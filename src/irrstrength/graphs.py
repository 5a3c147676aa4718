"""Simple undirected graphs with a canonical edge list.

Vertices are 0..order-1. The edge list is stored as an (m, 2) int64 array
with u < v per row, rows sorted lexicographically. Graphs are immutable
after construction; the triangular book constructor pins a = 0, b = 1 and
c_i = i + 1 so emitted certificates are comparable across runs.
"""

from __future__ import annotations

import numpy as np

ORDER_LIMIT = 10**6


class FormatError(ValueError):
    """Malformed or out-of-range textual input (edge lists, certificates)."""


class Graph:
    """Immutable simple graph: vertex count plus canonical sorted edge list."""

    __slots__ = ("order", "_edges", "_degrees")

    def __init__(self, order: int, edges) -> None:
        if order < 0:
            raise ValueError(f"order must be nonnegative, got {order}")
        if order > ORDER_LIMIT:
            raise ValueError(f"order {order} exceeds supported limit {ORDER_LIMIT}")
        arr = np.asarray(edges, dtype=np.int64)
        if arr.size == 0:
            arr = np.empty((0, 2), dtype=np.int64)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("edges must be a sequence of vertex pairs")
        if arr.size and (arr.min() < 0 or arr.max() >= order):
            raise ValueError("edge endpoint out of range")
        arr = np.sort(arr, axis=1)
        if np.any(arr[:, 0] == arr[:, 1]):
            raise ValueError("self-loops are not allowed")
        if not _is_canonical(arr):
            arr = arr[np.lexsort((arr[:, 1], arr[:, 0]))]
            if not _is_canonical(arr):
                raise ValueError("duplicate edges are not allowed")
        arr.setflags(write=False)
        self.order = int(order)
        self._edges = arr
        self._degrees = None

    @classmethod
    def _from_canonical(cls, order: int, arr: np.ndarray) -> "Graph":
        # trusted constructor for generators whose output is canonical by design
        g = cls.__new__(cls)
        arr.setflags(write=False)
        g.order = order
        g._edges = arr
        g._degrees = None
        return g

    @property
    def edges(self) -> np.ndarray:
        """(m, 2) read-only int64 array, u < v, lexicographically sorted."""
        return self._edges

    @property
    def size(self) -> int:
        return self._edges.shape[0]

    def degrees(self) -> np.ndarray:
        if self._degrees is None:
            deg = np.bincount(self._edges.ravel(), minlength=self.order).astype(np.int64)
            deg.setflags(write=False)
            self._degrees = deg
        return self._degrees

    def edge_tuples(self) -> list[tuple[int, int]]:
        return [(int(u), int(v)) for u, v in self._edges]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.order == other.order and np.array_equal(self._edges, other._edges)

    def __hash__(self):
        return hash((self.order, self._edges.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(order={self.order}, size={self.size})"


def _is_canonical(arr: np.ndarray) -> bool:
    # strictly increasing rows (lexicographic) also rules out duplicates
    if arr.shape[0] < 2:
        return True
    d0 = np.diff(arr[:, 0])
    d1 = np.diff(arr[:, 1])
    return bool(np.all((d0 > 0) | ((d0 == 0) & (d1 > 0))))


def make_triangular_book(n: int) -> Graph:
    """Triangular book: n triangles sharing the common edge ab.

    Vertices: a = 0, b = 1, page apexes c_i = i + 1 for 1 <= i <= n.
    Order n + 2, size 2n + 1. The canonical edge order is ab, then
    ac_1..ac_n, then bc_1..bc_n.
    """
    if n < 1:
        raise ValueError(f"a triangular book needs n >= 1 pages, got {n}")
    if n + 2 > ORDER_LIMIT:
        raise ValueError(f"order {n + 2} exceeds supported limit {ORDER_LIMIT}")
    apex = np.arange(2, n + 2, dtype=np.int64)
    edges = np.empty((2 * n + 1, 2), dtype=np.int64)
    edges[0] = (0, 1)
    edges[1 : n + 1, 0] = 0
    edges[1 : n + 1, 1] = apex
    edges[n + 1 :, 0] = 1
    edges[n + 1 :, 1] = apex
    return Graph._from_canonical(n + 2, edges)


def make_family(kind: str, size: int) -> Graph:
    """Small named families for the solver corpus: path, cycle, or star.

    ``size`` is the vertex count for paths and cycles, the leaf count for
    stars (star order is size + 1).
    """
    if kind == "path":
        if size < 2:
            raise ValueError("path needs at least 2 vertices")
        i = np.arange(size - 1, dtype=np.int64)
        return Graph(size, np.column_stack([i, i + 1]))
    if kind == "cycle":
        if size < 3:
            raise ValueError("cycle needs at least 3 vertices")
        i = np.arange(size, dtype=np.int64)
        return Graph(size, np.column_stack([i, (i + 1) % size]))
    if kind == "star":
        if size < 2:
            raise ValueError("star needs at least 2 leaves")
        leaves = np.arange(1, size + 1, dtype=np.int64)
        return Graph(size + 1, np.column_stack([np.zeros(size, dtype=np.int64), leaves]))
    raise ValueError(f"unknown family {kind!r}")


def format_edge_list(g: Graph) -> str:
    """Edge-list text: first line ``order m``, then one ``u v`` line per edge."""
    lines = [f"{g.order} {g.size}"]
    lines.extend(f"{u} {v}" for u, v in g.edge_tuples())
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    # int() would also take a sign, "1_0" and non-ASCII digits such as "١"
    if not text.isascii() or any(c in text for c in "+-_"):
        raise FormatError("edge-list numbers must be unsigned ASCII decimals")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise FormatError("first line must be 'order m'")
    try:
        order, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise FormatError(f"bad header {lines[0]!r}") from exc
    if order > ORDER_LIMIT:
        raise FormatError(f"order {order} exceeds supported limit {ORDER_LIMIT}")
    if len(lines) - 1 != m:
        raise FormatError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise FormatError(f"bad edge line {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise FormatError(f"bad edge line {ln!r}") from exc
        if not u < v:
            raise FormatError(f"edge line {ln!r} must satisfy u < v")
        edges.append((u, v))
    try:
        return Graph(order, edges)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
