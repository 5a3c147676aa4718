"""Edge labelings, vertex weights, and the two distinctness verifiers.

The weight of a vertex is the sum of the labels on its incident edges.
An irregular assignment makes all vertex weights distinct; a modular
irregular labeling makes the weights, reduced modulo the order, hit every
residue exactly once. A ``WeightProfile`` stores the weights alone and
derives the residues from them. Weights are summed in int64, which the
supported input limits (order <= 1e6, labels <= 1e6) keep below 1e12:
one scatter-add over the higher endpoints, one sum per run of edges
sharing a lower endpoint. A labeling keeps the profile of the graph object
it was last weighed on, so a pair is weighed once. The irregular verdict
sorts a few ascending runs, as in a book's profile, with timsort; the
modular verdict marks each residue in a bitmap of the order's residue classes.

Certificates and DOT are written through ``graphs._rows``, in the layout
``_FIELDS`` that ``_writer_doc`` also reads back as whole arrays.
"""

from __future__ import annotations

import json
import reprlib
from dataclasses import dataclass

import numpy as np

from .graphs import _CHUNK, FormatError, Graph, _decimals, _integer, _integer_array, _rows

LABEL_LIMIT = 10**6

IRREGULAR = "irregular"
MODULAR = "modular"

# timsort merges a few ascending runs in about linear time, but is several times slower than the
# default sort on many; a book's profile, two centre weights then the pages ascending, has at most 2 descents
_FEW_DESCENTS = 3


class EdgeLabeling:
    """Positive integer labels aligned with a graph's canonical edge list."""

    __slots__ = ("labels", "k", "_weighed")

    def __init__(self, labels) -> None:
        arr = _integer_array(labels, "edge labels")
        if arr.ndim != 1:
            raise ValueError("labels must be a flat sequence")
        if arr.size == 0:
            raise ValueError("labeling must cover at least one edge")
        if arr.min() < 1:
            raise ValueError("edge labels must be positive")
        k = int(arr.max())
        if k > LABEL_LIMIT:
            raise ValueError(f"label {reprlib.repr(k)} exceeds supported limit {LABEL_LIMIT}")
        arr = arr.astype(np.int64)  # a copy, so the caller's array stays writable and apart
        arr.setflags(write=False)
        self.labels = arr
        self.k = k
        self._weighed = (None, None)  # (graph, profile) of the last graph weighed, set by vertex_weights

    def __len__(self) -> int:
        return int(self.labels.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EdgeLabeling):
            return NotImplemented
        return np.array_equal(self.labels, other.labels)

    def __repr__(self) -> str:
        return f"EdgeLabeling(k={self.k}, m={len(self)})"


@dataclass(eq=False, frozen=True)
class WeightProfile:
    """Per-vertex weights; ``residues``, the weights mod the order, is derived from them on each access."""

    weights: np.ndarray

    @property
    def residues(self) -> np.ndarray:
        n = self.weights.size
        residues = self.weights - self.weights // n * n  # as %, but numpy's int64 % takes about twice as long
        residues.setflags(write=False)
        return residues

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightProfile):
            return NotImplemented
        return np.array_equal(self.weights, other.weights)


@dataclass(frozen=True)
class Verdict:
    """Verifier outcome; ``pair`` names the first collision when not ok."""

    ok: bool
    kind: str | None = None
    pair: tuple[int, int] | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class Certificate:
    """A labeling plus its computed weights, sufficient for re-verification."""

    graph: Graph
    labeling: EdgeLabeling
    profile: WeightProfile
    mode: str


def vertex_weights(g: Graph, f: EdgeLabeling) -> WeightProfile:
    """Exact integer vertex weights.

    An int64 scatter-add over the higher endpoints, plus one sum per run of edges up, at its head.
    ``f`` keeps the profile for the very graph object ``g``; an equal but distinct graph is weighed afresh.
    """
    weighed_on, profile = f._weighed
    if weighed_on is g:
        return profile
    if len(f) != g.size:
        raise ValueError(f"labeling covers {len(f)} edges, graph has {g.size}")
    heads, bounds = g._up_runs()
    weights = np.zeros(g.order, dtype=np.int64)
    np.add.at(weights, g.edges[:, 1], f.labels)
    weights[heads] += np.add.reduceat(f.labels, bounds[:-1])
    weights.setflags(write=False)
    profile = WeightProfile(weights=weights)
    f._weighed = (g, profile)
    return profile


def _first_collision(values: np.ndarray) -> tuple[int, int]:
    # scan in vertex-id order so the reported pair is reproducible
    seen: dict[int, int] = {}
    for v, val in enumerate(values.tolist()):
        if val in seen:
            return seen[val], v
        seen[val] = v
    raise AssertionError("no collision present")


def verify_profile(profile: WeightProfile, mode: str) -> Verdict:
    """Judge a weight profile against the rule of ``mode``.

    Irregular: the sorted weights hold no two equal neighbours (timsort for
    fewer than ``_FEW_DESCENTS`` descents, else numpy's default). Modular: the
    residues, order-many in [0, order), mark every class in a bitmap of the
    classes, so they form a bijection onto Z_order.
    """
    if mode == IRREGULAR:
        values, kind = profile.weights, "duplicate-weight"
        few_runs = np.count_nonzero(values[1:] < values[:-1]) < _FEW_DESCENTS
        ordered = np.sort(values, kind="stable" if few_runs else None)
        ok = not (ordered[1:] == ordered[:-1]).any()
    elif mode == MODULAR:
        values, kind = profile.residues, "residue-collision"
        if values.size < 3:
            raise ValueError("modular verification needs order >= 3")
        hit = np.zeros(values.size, dtype=bool)
        hit[values] = True
        ok = hit.all()
    else:
        raise ValueError(f"unknown mode {reprlib.repr(mode)}")
    return Verdict(ok=True) if ok else Verdict(ok=False, kind=kind, pair=_first_collision(values))


def verify_irregular(g: Graph, f: EdgeLabeling) -> Verdict:
    """Check that all vertex weights are pairwise distinct."""
    return verify_profile(vertex_weights(g, f), IRREGULAR)


def verify_modular(g: Graph, f: EdgeLabeling) -> Verdict:
    """Check that the residues form a bijection onto 0..order-1."""
    return verify_profile(vertex_weights(g, f), MODULAR)


def make_certificate(g: Graph, f: EdgeLabeling, mode: str) -> Certificate:
    if mode not in (IRREGULAR, MODULAR):
        raise ValueError(f"unknown mode {reprlib.repr(mode)}")
    return Certificate(graph=g, labeling=f, profile=vertex_weights(g, f), mode=mode)


# the certificate text up to its mode: per field, its opening and the row of each value
# (of each edge, its endpoints), the rows separated by commas
_FIELDS = (('{"order":', "%d"), (',"edges":[', "[%d,%d]"), ('],"labels":[', "%d"),
           ('],"weights":[', "%d"), ('],"residues":[', "%d"), ('],"k":', "%d"))
_MODE_KEY = ',"mode":'


def certificate_to_json(cert: Certificate) -> str:
    """Single-line JSON with fixed key order, suitable for golden files."""
    g, f, p = cert.graph, cert.labeling, cert.profile
    columns = ([[g.order]], g.edges.T, [f.labels], [p.weights], [p.residues], [[f.k]])
    text = []
    for (opening, row), values in zip(_FIELDS, columns):
        # every row but the last ends in the comma, so no field's text is copied to drop one;
        # a field of one row, such as order and k, is written by % alone
        rest = _rows(row + ",", *(c[:-1] for c in values)) if len(values[0]) > 1 else ""
        text += opening, rest, row % tuple(c[-1] for c in values)
    text += _MODE_KEY, json.dumps(cert.mode), "}"
    return "".join(text)


# 1: may open a number's slot, 2: may close one, 3: both
_SLOT_SIDES = bytes({ord(":"): 1, ord("["): 1, ord(","): 3, ord("]"): 2}.get(c, 0) for c in range(256))
_MODE_ENDS = {(_MODE_KEY + json.dumps(mode) + "}").encode(): mode for mode in (IRREGULAR, MODULAR)}


def _empty_slot(text: str | bytes) -> bool:
    """Whether ASCII ``text`` closes a number's slot right where it opens one, read a chunk at a time."""
    for start in range(0, len(text), _CHUNK):
        chunk = text[start : start + _CHUNK + 1]  # one byte of overlap, so every two neighbours share a chunk
        if isinstance(chunk, str):
            chunk = chunk.encode("ascii")
        sides = np.frombuffer(chunk.translate(_SLOT_SIDES), dtype=np.uint8)
        if (sides[:-1] & (sides[1:] >> 1)).any():
            return True
    return False


def _writer_doc(text: str | bytes) -> dict | None:
    """The fields of ``text`` read as whole arrays, or None unless it is the writer's output.

    ``text`` (``str`` or ASCII ``bytes``), stripped of JSON whitespace,
    must be byte for byte what ``certificate_to_json`` emits for the
    numbers it holds: every other text is left to ``json.loads``, so both
    read alike and fail alike.
    """
    if not (isinstance(text, (str, bytes)) and text.isascii()) or _empty_slot(text):
        return None
    # with every slot filled, a value count that matches the layout puts one value in each slot;
    # digits next to the stripped space would be values outside the slots, so that count rejects them
    values, layout = _decimals(text)
    if values is None or not values.size:
        return None
    layout = layout.strip(b" \t\n\r")
    order = int(values[0])
    m, rest = divmod(values.size - 2 - 2 * order, 3)
    if m < 1 or order < 1 or rest:
        return None
    rows = ((opening, row.replace("%d", ""), n) for (opening, row), n in zip(_FIELDS, (1, m, m, order, order, 1)))
    head = "".join(opening + (row + ",") * (n - 1) + row for opening, row, n in rows).encode("ascii")
    mode = _MODE_ENDS.get(layout[len(head) :])
    if mode is None or not layout.startswith(head):
        return None
    edges, labels, weights, residues, k = np.split(values[1:], np.cumsum([2 * m, m, order, order]))
    return {
        "order": order,
        "edges": edges.reshape(m, 2),
        "labels": labels,
        "weights": weights,
        "residues": residues,
        "k": int(k[0]),
        "mode": mode,
    }


def certificate_from_json(text: str | bytes) -> Certificate:
    """Parse and fully re-validate a certificate document.

    ``Graph`` judges the order and edges, ``EdgeLabeling`` the labels and ``make_certificate``
    the mode, as for every caller. The reader itself checks only the JSON shape, the
    missing fields, and the stored k, weights and residues against their recomputation.
    """
    doc = _writer_doc(text)
    if doc is None:
        # ValueError covers JSONDecodeError and a number past Python's integer
        # digit limit; RecursionError, nesting past the recursion limit
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise FormatError(f"bad certificate JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError("certificate must be a JSON object")
    missing = {"order", "edges", "labels", "weights", "residues", "k", "mode"} - doc.keys()
    if missing:
        raise FormatError(f"certificate missing fields: {sorted(missing)}")
    try:
        cert = make_certificate(Graph(doc["order"], doc["edges"]), EdgeLabeling(doc["labels"]), doc["mode"])
        k = _integer(doc["k"], "k", 1)
        weights, residues = _integer_array(doc["weights"], "weights"), _integer_array(doc["residues"], "residues")
    except (ValueError, TypeError, OverflowError) as exc:
        raise FormatError(str(exc)) from exc
    if cert.labeling.k != k:
        raise FormatError(f"stored k={reprlib.repr(k)} but max label is {cert.labeling.k}")
    if not np.array_equal(cert.profile.weights, weights):
        raise FormatError("stored weights do not match recomputation")
    if not np.array_equal(cert.profile.residues, residues):
        raise FormatError("stored residues do not match recomputation")
    return cert


def certificate_to_dot(cert: Certificate) -> str:
    """DOT rendering: weights as vertex labels, edge labels as attributes."""
    g = cert.graph
    vertices = _rows('  %d [label="%d"];\n', np.arange(g.order), cert.profile.weights)
    edges = _rows('  %d -- %d [label="%d"];\n', *g.edges.T, cert.labeling.labels)
    return "".join(("graph G {\n", vertices, edges, "}\n"))
