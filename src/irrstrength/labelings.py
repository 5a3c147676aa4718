"""Edge labelings, vertex weights, and the two distinctness verifiers.

The weight of a vertex is the sum of the labels on its incident edges.
An irregular assignment makes all vertex weights distinct; a modular
irregular labeling makes the weights, reduced modulo the order, hit every
residue exactly once. Weights stay well inside int64 for the supported
input limits (order <= 1e6, labels <= 1e6), which also keeps the float64
accumulation in ``np.bincount`` exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .graphs import ORDER_LIMIT, FormatError, Graph, _integer_array

LABEL_LIMIT = 10**6

IRREGULAR = "irregular"
MODULAR = "modular"


class EdgeLabeling:
    """Positive integer labels aligned with a graph's canonical edge list."""

    __slots__ = ("labels", "k")

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
            raise ValueError(f"label {k} exceeds supported limit {LABEL_LIMIT}")
        arr = arr.astype(np.int64, copy=False)
        arr.setflags(write=False)
        self.labels = arr
        self.k = k

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
    """Per-vertex weights and their residues modulo the graph order."""

    weights: np.ndarray
    residues: np.ndarray

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightProfile):
            return NotImplemented
        return np.array_equal(self.weights, other.weights) and np.array_equal(
            self.residues, other.residues
        )


@dataclass(frozen=True)
class Verdict:
    """Verifier outcome; ``pair`` names the first collision when not ok."""

    ok: bool
    kind: str | None = None
    pair: tuple[int, int] | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(eq=False, frozen=True)
class Certificate:
    """A labeling plus its computed weights, sufficient for re-verification."""

    graph: Graph
    labeling: EdgeLabeling
    profile: WeightProfile
    mode: str

    def __eq__(self, other) -> bool:
        if not isinstance(other, Certificate):
            return NotImplemented
        return (
            self.graph == other.graph
            and self.labeling == other.labeling
            and self.profile == other.profile
            and self.mode == other.mode
        )


def vertex_weights(g: Graph, f: EdgeLabeling) -> WeightProfile:
    """Exact integer vertex weights and residues mod the order."""
    if len(f) != g.size:
        raise ValueError(f"labeling covers {len(f)} edges, graph has {g.size}")
    u = g.edges[:, 0]
    v = g.edges[:, 1]
    w = np.bincount(u, weights=f.labels, minlength=g.order)
    w += np.bincount(v, weights=f.labels, minlength=g.order)
    weights = w.astype(np.int64)
    residues = weights % g.order
    weights.setflags(write=False)
    residues.setflags(write=False)
    return WeightProfile(weights=weights, residues=residues)


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

    Irregular: the weights are pairwise distinct. Modular: the residues hit
    every class mod the order exactly once, which for order-many residues in
    [0, order) is the same as being pairwise distinct.
    """
    if mode == IRREGULAR:
        values, kind = profile.weights, "duplicate-weight"
    elif mode == MODULAR:
        if profile.residues.size < 3:
            raise ValueError("modular verification needs order >= 3")
        values, kind = profile.residues, "residue-collision"
    else:
        raise ValueError(f"unknown mode {mode!r}")
    ordered = np.sort(values)
    if not (ordered[1:] == ordered[:-1]).any():
        return Verdict(ok=True)
    return Verdict(ok=False, kind=kind, pair=_first_collision(values))


def verify_irregular(g: Graph, f: EdgeLabeling) -> Verdict:
    """Check that all vertex weights are pairwise distinct."""
    return verify_profile(vertex_weights(g, f), IRREGULAR)


def verify_modular(g: Graph, f: EdgeLabeling) -> Verdict:
    """Check that the residues form a bijection onto 0..order-1."""
    return verify_profile(vertex_weights(g, f), MODULAR)


def make_certificate(g: Graph, f: EdgeLabeling, mode: str) -> Certificate:
    if mode not in (IRREGULAR, MODULAR):
        raise ValueError(f"unknown mode {mode!r}")
    return Certificate(graph=g, labeling=f, profile=vertex_weights(g, f), mode=mode)


def _layout(m: int, order: int, slot: str) -> tuple[str, ...]:
    """The writer's certificate text up to the mode's value, one part per field, ``slot`` in place of each number."""
    n = slot + ","
    return (
        '{"order":' + slot,
        ',"edges":[' + (("[" + n + slot + "],") * m)[:-1],
        '],"labels":[' + (n * m)[:-1],
        '],"weights":[' + (n * order)[:-1],
        '],"residues":[' + (n * order)[:-1],
        '],"k":' + n + '"mode":',
    )


def certificate_to_json(cert: Certificate) -> str:
    """Single-line JSON with fixed key order, suitable for golden files."""
    g, f = cert.graph, cert.labeling
    fields = (g.order, g.edges, f.labels, cert.profile.weights, cert.profile.residues, f.k)
    # field by field, so the Python ints of one field are freed before the next is formatted
    text = "".join(part % tuple(np.ravel(v).tolist()) for part, v in zip(_layout(g.size, g.order, "%d"), fields))
    return text + json.dumps(cert.mode) + "}"


_DIGITS = b"0123456789"
_DIGITS_ONLY = bytes(c if c in _DIGITS else 32 for c in range(256))
# 1: may open a number's slot, 2: may close one, 3: both
_SLOT_SIDES = bytes({ord(":"): 1, ord("["): 1, ord(","): 3, ord("]"): 2}.get(c, 0) for c in range(256))
_POWERS = 10 ** np.arange(1, 18, dtype=np.int64)
_MODE_ENDS = {b'"%s"}' % mode.encode(): mode for mode in (IRREGULAR, MODULAR)}


def _writer_doc(text: str) -> dict | None:
    """The fields of ``text`` read as whole arrays, or None unless it is the writer's output.

    ``text``, stripped of JSON whitespace, must be byte for byte what
    ``certificate_to_json`` emits for the numbers it holds: every other
    text is left to ``json.loads``, so both read alike and fail alike.
    """
    if not (isinstance(text, str) and text.isascii()):
        return None
    raw = text.strip(" \t\n\r").encode("ascii")
    sides = np.frombuffer(raw.translate(_SLOT_SIDES), dtype=np.uint8)
    if (sides[:-1] & (sides[1:] >> 1)).any():  # an empty slot, so values could sit outside the slots
        return None
    # with every slot filled, a value count that matches the layout puts one value in each slot
    values = np.fromstring(raw.translate(_DIGITS_ONLY), dtype=np.int64, sep=" ")
    order = int(values[0]) if values.size else 0
    m, rest = divmod(values.size - 2 - 2 * order, 3)
    if m < 1 or order < 1 or rest:
        return None
    layout = raw.translate(None, _DIGITS)
    head = "".join(_layout(m, order, "")).encode("ascii")
    mode = _MODE_ENDS.get(layout[len(head) :])
    if mode is None or not layout.startswith(head):
        return None
    # digits counted up to 18, so a leading zero or a value from 10^18 up (clipped to int64 or not) spells more
    if len(raw) - len(layout) != values.size + int(np.searchsorted(_POWERS, values, side="right").sum()):
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


def _json_ints(doc: dict, field: str, scan_bools: bool) -> np.ndarray:
    """``doc[field]``, a JSON integer or nested lists of them, as an int64 array.

    ``_integer_array`` judges the field itself when ``scan_bools`` is true,
    else numpy's conversion of it, which for integers alone passes at no
    cost. Anything but integers within int64 is a FormatError.
    """
    value = doc[field]
    try:
        arr = np.asarray(value)
        _integer_array(value if scan_bools else arr, field)
    except (ValueError, TypeError, OverflowError) as exc:
        raise FormatError(f"{field}: {exc}") from exc
    if arr.size and arr.dtype.kind != "i":
        raise FormatError(f"{field} must be JSON integers within int64, got dtype {arr.dtype}")
    return arr.astype(np.int64, copy=False)


def certificate_from_json(text: str) -> Certificate:
    """Parse and fully re-validate a certificate document.

    Enforces the input limits and recomputes the weight profile from the
    graph and labels; any mismatch with the stored arrays is rejected.
    """
    doc = _writer_doc(text)
    scan_bools = False
    if doc is None:
        try:
            doc = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:  # nesting past the recursion limit
            raise FormatError(f"bad certificate JSON: {exc}") from exc
        # a JSON boolean is spelled out in the text; without one, none can be inside
        scan_bools = "true" in text or "false" in text
    if not isinstance(doc, dict):
        raise FormatError("certificate must be a JSON object")
    missing = {"order", "edges", "labels", "weights", "residues", "k", "mode"} - doc.keys()
    if missing:
        raise FormatError(f"certificate missing fields: {sorted(missing)}")
    if doc["mode"] not in (IRREGULAR, MODULAR):
        raise FormatError(f"unknown certificate mode {doc['mode']!r}")
    order = _json_ints(doc, "order", scan_bools)
    if order.ndim or order > ORDER_LIMIT:
        raise FormatError("certificate order missing or out of range")
    edges = _json_ints(doc, "edges", scan_bools)
    labels = _json_ints(doc, "labels", scan_bools)
    try:
        graph = Graph(int(order), edges)
        labeling = EdgeLabeling(labels)
    except (ValueError, TypeError, OverflowError) as exc:
        raise FormatError(str(exc)) from exc
    k = _json_ints(doc, "k", scan_bools)
    if k.ndim or labeling.k != k:
        raise FormatError(f"stored k={doc['k']} but max label is {labeling.k}")
    if len(labeling) != graph.size:
        raise FormatError("labels not aligned with edge list")
    profile = vertex_weights(graph, labeling)
    if not np.array_equal(profile.weights, _json_ints(doc, "weights", scan_bools)):
        raise FormatError("stored weights do not match recomputation")
    if not np.array_equal(profile.residues, _json_ints(doc, "residues", scan_bools)):
        raise FormatError("stored residues do not match recomputation")
    return Certificate(graph=graph, labeling=labeling, profile=profile, mode=doc["mode"])


def certificate_to_dot(cert: Certificate) -> str:
    """DOT rendering: weights as vertex labels, edge labels as attributes."""
    g = cert.graph
    vertices = np.column_stack((np.arange(g.order), cert.profile.weights)).ravel().tolist()
    edges = np.column_stack((g.edges, cert.labeling.labels)).ravel().tolist()
    head = "graph G {\n" + '  %d [label="%d"];\n' * g.order % tuple(vertices)
    return head + '  %d -- %d [label="%d"];\n' * g.size % tuple(edges) + "}\n"
