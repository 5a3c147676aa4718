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

from .graphs import ORDER_LIMIT, FormatError, Graph

LABEL_LIMIT = 10**6

IRREGULAR = "irregular"
MODULAR = "modular"


class EdgeLabeling:
    """Positive integer labels aligned with a graph's canonical edge list."""

    __slots__ = ("labels", "k")

    def __init__(self, labels) -> None:
        arr = np.asarray(labels, dtype=np.int64)
        if arr.ndim != 1:
            raise ValueError("labels must be a flat sequence")
        if arr.size == 0:
            raise ValueError("labeling must cover at least one edge")
        if arr.min() < 1:
            raise ValueError("edge labels must be positive")
        k = int(arr.max())
        if k > LABEL_LIMIT:
            raise ValueError(f"label {k} exceeds supported limit {LABEL_LIMIT}")
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


def _check_alignment(g: Graph, f: EdgeLabeling) -> None:
    if len(f) != g.size:
        raise ValueError(f"labeling covers {len(f)} edges, graph has {g.size}")


def vertex_weights(g: Graph, f: EdgeLabeling) -> WeightProfile:
    """Exact integer vertex weights and residues mod the order."""
    _check_alignment(g, f)
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


def verify_irregular(g: Graph, f: EdgeLabeling) -> Verdict:
    """Check that all vertex weights are pairwise distinct."""
    profile = vertex_weights(g, f)
    ordered = np.sort(profile.weights)
    if not (ordered[1:] == ordered[:-1]).any():
        return Verdict(ok=True)
    return Verdict(ok=False, kind="duplicate-weight", pair=_first_collision(profile.weights))


def verify_modular(g: Graph, f: EdgeLabeling) -> Verdict:
    """Check that the residues form a bijection onto 0..order-1."""
    if g.order < 3:
        raise ValueError("modular verification needs order >= 3")
    profile = vertex_weights(g, f)
    counts = np.bincount(profile.residues, minlength=g.order)
    if (counts == 1).all():
        return Verdict(ok=True)
    return Verdict(ok=False, kind="residue-collision", pair=_first_collision(profile.residues))


def make_certificate(g: Graph, f: EdgeLabeling, mode: str) -> Certificate:
    if mode not in (IRREGULAR, MODULAR):
        raise ValueError(f"unknown mode {mode!r}")
    _check_alignment(g, f)
    return Certificate(graph=g, labeling=f, profile=vertex_weights(g, f), mode=mode)


def certificate_to_json(cert: Certificate) -> str:
    """Single-line JSON with fixed key order, suitable for golden files."""
    doc = {
        "order": cert.graph.order,
        "edges": [[int(u), int(v)] for u, v in cert.graph.edges],
        "labels": cert.labeling.labels.tolist(),
        "weights": cert.profile.weights.tolist(),
        "residues": cert.profile.residues.tolist(),
        "k": cert.labeling.k,
        "mode": cert.mode,
    }
    return json.dumps(doc, separators=(",", ":"))


def certificate_from_json(text: str) -> Certificate:
    """Parse and fully re-validate a certificate document.

    Enforces the input limits and recomputes the weight profile from the
    graph and labels; any mismatch with the stored arrays is rejected.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad certificate JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError("certificate must be a JSON object")
    missing = {"order", "edges", "labels", "weights", "residues", "k", "mode"} - doc.keys()
    if missing:
        raise FormatError(f"certificate missing fields: {sorted(missing)}")
    if doc["mode"] not in (IRREGULAR, MODULAR):
        raise FormatError(f"unknown certificate mode {doc['mode']!r}")
    order = doc["order"]
    if not isinstance(order, int) or order > ORDER_LIMIT:
        raise FormatError("certificate order missing or out of range")
    try:
        labels = np.asarray(doc["labels"])
        # floats would be truncated; strings and ints beyond int64 convert to other kinds
        if labels.dtype.kind != "i":
            raise FormatError(f"labels must be JSON integers within int64, got dtype {labels.dtype}")
        graph = Graph(order, doc["edges"])
        labeling = EdgeLabeling(labels)
    except (ValueError, TypeError, OverflowError) as exc:
        raise FormatError(str(exc)) from exc
    if labeling.k != doc["k"]:
        raise FormatError(f"stored k={doc['k']} but max label is {labeling.k}")
    if len(labeling) != graph.size:
        raise FormatError("labels not aligned with edge list")
    profile = vertex_weights(graph, labeling)
    if not np.array_equal(profile.weights, np.asarray(doc["weights"], dtype=np.int64)):
        raise FormatError("stored weights do not match recomputation")
    if not np.array_equal(profile.residues, np.asarray(doc["residues"], dtype=np.int64)):
        raise FormatError("stored residues do not match recomputation")
    return Certificate(graph=graph, labeling=labeling, profile=profile, mode=doc["mode"])


def certificate_to_dot(cert: Certificate) -> str:
    """DOT rendering: weights as vertex labels, edge labels as attributes."""
    lines = ["graph G {"]
    for v in range(cert.graph.order):
        lines.append(f'  {v} [label="{int(cert.profile.weights[v])}"];')
    for e, (u, v) in enumerate(cert.graph.edge_tuples()):
        lines.append(f'  {u} -- {v} [label="{int(cert.labeling.labels[e])}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
