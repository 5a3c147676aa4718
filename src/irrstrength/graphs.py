"""Simple undirected graphs with a canonical edge list.

Vertices are 0..order-1. The edge list is stored as an (m, 2) int64 array
with u < v per row, rows sorted lexicographically. Graphs are immutable
after construction; the triangular book constructor pins a = 0, b = 1 and
c_i = i + 1 so emitted certificates are comparable across runs.
"""

from __future__ import annotations

import operator

import numpy as np

ORDER_LIMIT = 10**6


class FormatError(ValueError):
    """Malformed or out-of-range textual input (edge lists, certificates)."""


class Graph:
    """Immutable simple graph: vertex count plus canonical sorted edge list."""

    __slots__ = ("order", "_edges", "_degrees")

    def __init__(self, order: int, edges) -> None:
        order = _integer(order, "order", 0)
        if order > ORDER_LIMIT:
            raise ValueError(f"order {order} exceeds supported limit {ORDER_LIMIT}")
        arr = _integer_array(edges, "edge endpoints")
        if arr.size == 0:
            arr = np.empty((0, 2), dtype=np.int64)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("edges must be a sequence of vertex pairs")
        if arr.size and (arr.min() < 0 or arr.max() >= order):
            raise ValueError("edge endpoint out of range")
        arr = np.sort(arr.astype(np.int64, copy=False), axis=1)
        if np.any(arr[:, 0] == arr[:, 1]):
            raise ValueError("self-loops are not allowed")
        if not _is_canonical(arr):
            arr = arr[np.lexsort((arr[:, 1], arr[:, 0]))]
            if not _is_canonical(arr):
                raise ValueError("duplicate edges are not allowed")
        arr.setflags(write=False)
        self.order = order
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
        return list(zip(*self._edges.T.tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.order == other.order and np.array_equal(self._edges, other._edges)

    def __hash__(self):
        return hash((self.order, self._edges.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(order={self.order}, size={self.size})"


def _integer(value, what: str, least: int) -> int:
    """``value`` as an int; ValueError unless it is an int or numpy integer (not bool) >= ``least``."""
    try:
        number = operator.index(value)
    except TypeError:
        number = None
    if number is None or isinstance(value, bool) or number < least:
        raise ValueError(f"{what} must be an integer >= {least}, got {value!r}")
    return number


def _integer_array(values, what: str) -> np.ndarray:
    """``values`` as an array of integers, exact past int64; ValueError if any is not an integer."""
    # numpy casts booleans among integers to 0 and 1, so all but an integer ndarray is judged per element
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        return values
    arr = np.asarray(values, dtype=object)
    if not all(issubclass(t, (int, np.integer)) and t is not bool for t in set(map(type, arr.flat))):
        raise ValueError(f"{what} must be integers")
    try:
        return arr.astype(np.int64)
    except OverflowError:  # past int64: kept exact, so range checks report the value as it is
        return arr


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
    n = _integer(n, "page count", 1)
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
    size = _integer(size, "size", 2)
    if kind == "path":
        i = np.arange(size - 1, dtype=np.int64)
        return Graph(size, np.column_stack([i, i + 1]))
    if kind == "cycle":
        if size < 3:
            raise ValueError("cycle needs at least 3 vertices")
        i = np.arange(size, dtype=np.int64)
        return Graph(size, np.column_stack([i, (i + 1) % size]))
    if kind == "star":
        leaves = np.arange(1, size + 1, dtype=np.int64)
        return Graph(size + 1, np.column_stack([np.zeros(size, dtype=np.int64), leaves]))
    raise ValueError(f"unknown family {kind!r}")


def format_edge_list(g: Graph) -> str:
    """Edge-list text: first line ``order m``, then one ``u v`` line per edge."""
    return f"{g.order} {g.size}\n" + "%d %d\n" * g.size % tuple(g.edges.ravel().tolist())


# ASCII bytes that str.split() treats as whitespace and str.splitlines() as breaks
_SPACE = np.zeros(256, dtype=bool)
_SPACE[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32]] = True
_BREAK = np.zeros(256, dtype=bool)
_BREAK[[10, 11, 12, 13, 28, 29, 30]] = True
_EXACT_DIGITS = 18  # longer tokens might pass int64 and are read by int() instead


def parse_edge_list(text: str) -> Graph:
    """``order m``, then exactly m non-blank ``u v`` lines; see the README for the grammar."""
    # the tokeniser's temporaries are freed before Graph allocates, which keeps peak memory down
    order, edges = _edge_list_values(text)
    try:
        return Graph(order, edges)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def _edge_list_values(text: str) -> tuple[int, np.ndarray]:
    """The order and the (m, 2) endpoints, read as whole arrays; a suspect line is re-read alone."""
    # int() would also take a sign, "1_0" and non-ASCII digits such as "١"
    if not text.isascii() or any(c in text for c in "+-_"):
        raise FormatError("edge-list numbers must be unsigned ASCII decimals")
    raw = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    space, brk = _SPACE[raw], _BREAK[raw]
    # token i is raw[starts[i]:ends[i]]
    starts, ends = np.flatnonzero(np.diff(space, prepend=True, append=True)).reshape(-1, 2).T
    if not starts.size:
        raise FormatError("empty edge-list input")
    breaks = np.flatnonzero(np.concatenate(([True], brk, [True]))) - 1  # from -1 to len(text)

    def line_at(pos) -> str:
        k = np.searchsorted(breaks, pos)
        return text[breaks[k - 1] + 1 : breaks[k]]

    head = line_at(starts[0])
    parts = head.split()
    if len(parts) != 2:
        raise FormatError("first line must be 'order m'")
    try:
        order, m = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise FormatError(f"bad header {head!r}") from exc
    if order > ORDER_LIMIT:
        raise FormatError(f"order {order} exceeds supported limit {ORDER_LIMIT}")
    # a line starts at each token with a break between it and the token before
    first = np.flatnonzero(np.logical_or.reduceat(brk[: ends[-1]], ends[:-1])) + 1
    if first.size != m:
        raise FormatError(f"expected {m} edge lines, found {first.size}")
    # place value over each token's last _EXACT_DIGITS digits
    length = ends - starts
    digit = raw - 48
    value = np.zeros(starts.size, dtype=np.int64)
    for j in range(min(int(length.max()), _EXACT_DIGITS)):
        d = digit[ends - 1 - j]  # past a token's start (or wrapped below 0) once it is used up
        d[length <= j] = 0
        value += d * np.int64(10**j)
    second = np.minimum(first + 1, starts.size - 1)
    bad = (np.diff(first, append=starts.size) != 2) | (value[first] >= value[second])
    # a line with a stray byte (neither digit nor whitespace) or a long token goes to int()
    stray = np.flatnonzero((digit > 9) & ~space)
    odd = np.union1d(np.flatnonzero(length > _EXACT_DIGITS), np.searchsorted(starts, stray, side="right") - 1)
    bad[np.searchsorted(first, odd[odd >= 2], side="right") - 1] = True
    for i in np.flatnonzero(bad).tolist():
        line = line_at(starts[first[i]])
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"bad edge line {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise FormatError(f"bad edge line {line!r}") from exc
        if not u < v:
            raise FormatError(f"edge line {line!r} must satisfy u < v")
        # any value from order up is out of range alike, and clamped it fits int64
        value[first[i]], value[first[i] + 1] = min(u, order), min(v, order)
    return order, value[2:].reshape(-1, 2)
