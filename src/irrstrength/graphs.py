"""Simple undirected graphs with a canonical edge list.

Vertices are 0..order-1. The edge list is stored as an (m, 2) int64 array
with u < v per row, rows sorted lexicographically, so the edges from each
vertex up to higher ones are one run of consecutive rows. Each edge has
one key, min(u, v) * order + max(u, v): canonical input has u < v and
strictly increasing keys; any other is sorted once by key, checked for
equal neighbours (duplicates) and rebuilt by ``divmod``. Graphs are
immutable after construction; the triangular book constructor pins a = 0,
b = 1 and c_i = i + 1 so emitted certificates are comparable across runs.

Four derived facts are lazy slots, computed on first use and kept: the
degree array (``degrees()``), the runs of edges up (``_up_runs()``), the
degree histogram (``_degree_counts()``) and the search plan, which the
solver fills (``solver._search_plan``). ``make_triangular_book`` fills
the runs and the histogram from its closed form; the rest wait until used.

Edge-list text in ``format_edge_list``'s own layout is parsed as whole
arrays; any other text, CRLF line ends included, is parsed line by line,
which raises every error of the grammar, so both paths accept and reject
alike. All text codecs read numbers through ``_decimals`` and write them
through ``_rows``.
"""

from __future__ import annotations

import operator
import reprlib

import numpy as np

ORDER_LIMIT = 10**6


class FormatError(ValueError):
    """Malformed or out-of-range textual input (edge lists, certificates)."""


class Graph:
    """Immutable simple graph: vertex count plus canonical sorted edge list."""

    __slots__ = ("order", "_edges", "_degrees", "_runs", "_counts", "_plan")

    def __init__(self, order: int, edges) -> None:
        order = _integer(order, "order", 0)
        if order > ORDER_LIMIT:
            raise ValueError(f"order {reprlib.repr(order)} exceeds supported limit {ORDER_LIMIT}")
        arr = _integer_array(edges, "edge endpoints")
        if arr.size == 0:
            arr = np.empty((0, 2), dtype=np.int64)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("edges must be a sequence of vertex pairs")
        if arr.size and (arr.min() < 0 or arr.max() >= order):
            raise ValueError("edge endpoint out of range")
        arr = arr.astype(np.int64)  # a copy, so the caller's array stays writable and apart
        u, v = arr.T
        if np.any(u == v):
            raise ValueError("self-loops are not allowed")
        ordered = (u < v).all()
        if not ordered:
            u, v = np.minimum(u, v), np.maximum(u, v)
        key = u * order
        key += v  # in place: one key array is the only temporary as large as a column
        if not (ordered and (key[1:] > key[:-1]).all()):
            key.sort()
            if np.any(key[1:] == key[:-1]):
                raise ValueError("duplicate edges are not allowed")
            arr = np.stack(divmod(key, order), axis=1)
        self._set(order, arr)

    @classmethod
    def _from_canonical(cls, order: int, arr: np.ndarray) -> "Graph":
        # trusted constructor for generators whose output is canonical by design
        return cls.__new__(cls)._set(order, arr)

    def _set(self, order: int, arr: np.ndarray) -> "Graph":
        """Freeze the canonical ``arr`` and fill every slot; returns self.

        The lazy slots ``_degrees``, ``_runs``, ``_counts`` and ``_plan`` start empty;
        ``make_triangular_book`` then fills ``_runs`` and ``_counts``, and the solver ``_plan``.
        """
        arr.setflags(write=False)
        self.order, self._edges, self._degrees, self._runs, self._counts, self._plan = order, arr, None, None, None, None
        return self

    @property
    def edges(self) -> np.ndarray:
        """(m, 2) read-only int64 array, u < v, lexicographically sorted."""
        return self._edges

    @property
    def size(self) -> int:
        return self._edges.shape[0]

    def degrees(self) -> np.ndarray:
        if self._degrees is None:
            heads, bounds = self._up_runs()
            deg = np.bincount(self._edges[:, 1], minlength=self.order).astype(np.int64, copy=False)
            deg[heads] += bounds[1:] - bounds[:-1]
            deg.setflags(write=False)
            self._degrees = deg
        return self._degrees

    def _up_runs(self) -> tuple[np.ndarray, np.ndarray]:
        """``(heads, bounds)``: the u each run of rows shares, and the first row of each run, then m."""
        # a sum per run, added at its head, spares a scatter over u its repeated increments at a hub of a book
        if self._runs is None:
            u = self._edges[:, 0]
            m = u.size
            new = np.empty(m + 1, dtype=bool)
            new[0] = new[m] = True
            np.not_equal(u[1:], u[:-1], out=new[1:m])
            bounds = np.flatnonzero(new)
            self._runs = (u[bounds[:-1]], bounds)
        return self._runs

    def _degree_counts(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``(degrees, counts)``: each occurring degree, ascending, and how many vertices have it."""
        if self._counts is None:
            counts = np.bincount(self.degrees())
            present = np.flatnonzero(counts)
            self._counts = (tuple(present.tolist()), tuple(counts[present].tolist()))
        return self._counts

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
        raise ValueError(f"{what} must be an integer >= {least}, got {reprlib.repr(value)}")
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


def make_triangular_book(n: int) -> Graph:
    """Triangular book: n triangles sharing the common edge ab.

    Vertices: a = 0, b = 1, page apexes c_i = i + 1 for 1 <= i <= n.
    Order n + 2, size 2n + 1. The canonical edge order is ab, then
    ac_1..ac_n, then bc_1..bc_n. The lazy slots ``_runs`` (two runs up,
    from a and from b) and ``_counts`` (n apexes of degree 2, a and b of
    degree n + 1) are filled from this closed form; ``_degrees`` is not.
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
    g = Graph._from_canonical(n + 2, edges)
    g._runs = (np.array([0, 1], dtype=np.int64), np.array([0, n + 1, 2 * n + 1], dtype=np.int64))
    g._counts = ((2,), (3,)) if n == 1 else ((2, n + 1), (n, 2))
    return g


_EDGE_LINE = "%d %d\n"


def format_edge_list(g: Graph) -> str:
    """Edge-list text: first line ``order m``, then one ``u v`` line per edge."""
    return _EDGE_LINE % (g.order, g.size) + _rows(_EDGE_LINE, *g.edges.T)


# 4 ASCII bytes per group of 4 digits: "%04d" below a higher group, then the leading
# group NUL-padded (all NULs for a blank group above it), then "0" for the value 0
_INNER = (np.arange(10**4, dtype=np.int16)[:, None] // np.int16([1000, 100, 10, 1]) % 10 + ord("0")).astype(np.uint8)
_LEADING = _INNER * np.logical_or.accumulate(_INNER > ord("0"), axis=1)
_GROUPS = np.concatenate((_INNER, _LEADING, np.uint8([[0, 0, 0, ord("0")]]))).view(np.uint32).ravel()
_BLOCK = 1 << 13


def _rows(template: str, *columns) -> str:
    """``"".join(template % row for row in zip(*columns))`` for a NUL-free ASCII ``template``, written whole.

    Columns are equal-length non-negative int64: endpoints, labels, weights,
    residues. Each value is cut into groups of 4 digits, each written as one
    4-byte cell of ``_GROUPS``; deleting the NULs that pad the cells from a
    table of rows of constant bytes and cells leaves the text.
    """
    columns = [np.asarray(column, dtype=np.int64) for column in columns]
    groups = [(len(str(column.max(initial=0))) + 3) // 4 for column in columns]
    n = len(columns[0])
    # a block of rows at a time, in one table whose constant bytes are written once,
    # so that every array a block needs is small enough to be reused, not mapped afresh
    table = np.empty((min(n, _BLOCK), len(template) - 2 * len(columns) + 4 * sum(groups)), dtype=np.uint8)
    slots, at = [], 0
    for part, g in zip(template.encode("ascii").split(b"%d"), groups + [0]):
        table[:, at : at + len(part)] = np.frombuffer(part, dtype=np.uint8)
        slots.append(table[:, at + len(part) : at + len(part) + 4 * g])
        at += len(part) + 4 * g
    text = []
    for start in range(0, n, _BLOCK):
        rows = min(n - start, _BLOCK)
        for column, g, slot in zip(columns, groups, slots):
            slot[:rows] = _cells(column[start : start + rows], g).view(np.uint8)
        text.append(table[:rows].tobytes().translate(None, b"\0").decode("ascii"))
    return "".join(text)


def _cells(values: np.ndarray, g: int) -> np.ndarray:
    """(n, g) uint32: the cells of each value's last g groups of 4 digits, most significant first."""
    index = np.empty((values.size, g), dtype=np.int64)
    high = values
    for j in range(g - 1, -1, -1):
        rest = high // 10**4
        index[:, j] = high - rest * 10**4 + (rest == 0) * 10**4
        high = rest
    index[:, -1] += (values == 0) * 10**4
    return _GROUPS[index]


_DIGITS = b"0123456789"
_DIGITS_ONLY = bytes(c if c in _DIGITS else 32 for c in range(256))
_POWERS = 10 ** np.arange(1, 18, dtype=np.int64)
_CHUNK = 1 << 16  # the bytes of text, or the values, that a reader's checks hold at once


def _decimals(text: str | bytes) -> tuple[np.ndarray | None, bytes]:
    """Each run of digits in ASCII ``text`` as int64 (None on a leading zero or 10^18 up), and ``text`` without them.

    While the numbers are parsed, the only copies of ``text`` held here are
    its digit-only copy and its layout: a ``str``'s encoded copy goes first,
    and the spelled digits are counted a chunk of values at a time.
    """
    raw = text.encode("ascii") if isinstance(text, str) else text
    digits, layout = raw.translate(_DIGITS_ONLY), raw.translate(None, _DIGITS)
    del raw
    values = np.fromstring(digits, dtype=np.int64, sep=" ")
    # digits counted up to 18, so a leading zero or a value from 10^18 up (clipped to int64 or not) spells more
    spelled = values.size
    for at in range(0, values.size, _CHUNK):
        spelled += int(np.searchsorted(_POWERS, values[at : at + _CHUNK], side="right").sum())
    return (values if len(digits) - len(layout) == spelled else None), layout


def parse_edge_list(text: str) -> Graph:
    """``order m``, then exactly m non-blank ``u v`` lines; see the README for the grammar."""
    order, edges = _writer_fields(text) or _edge_lines(text)
    try:
        return Graph(order, edges)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def _writer_fields(text: str) -> tuple[int, np.ndarray] | None:
    """The order and the (m, 2) endpoints, or None unless ``text`` is ``format_edge_list``'s layout with u < v."""
    if not (text.isascii() and text.endswith("\n")):
        return None
    values, layout = _decimals(text)
    if values is None or values.size < 2 or values.size != 2 * int(values[1]) + 2:
        return None
    # with a break last, 2m + 2 values for 2m + 2 separators put one value before each
    if layout != _EDGE_LINE.replace("%d", "").encode() * (values.size // 2):
        return None
    edges = values[2:].reshape(-1, 2)
    return (int(values[0]), edges) if (edges[:, 0] < edges[:, 1]).all() else None


def _edge_lines(text: str) -> tuple[int, list[tuple[int, int]]]:
    """The order and the endpoints, read line by line; raises every error of the grammar, and ``Graph`` the rest."""
    # int() would also take a sign, "1_0" and non-ASCII digits such as "١"
    if not text.isascii() or any(c in text for c in "+-_"):
        raise FormatError("edge-list numbers must be unsigned ASCII decimals")
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise FormatError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise FormatError("first line must be 'order m'")
    try:
        order, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise FormatError(f"bad header {reprlib.repr(lines[0])}") from exc
    if len(lines) - 1 != m:
        raise FormatError(f"expected {reprlib.repr(m)} edge lines, found {len(lines) - 1}")
    edges = []
    for line in lines[1:]:
        try:
            u, v = map(int, line.split())  # a count other than two is a ValueError too
        except ValueError as exc:
            raise FormatError(f"bad edge line {reprlib.repr(line)}") from exc
        if not u < v:
            raise FormatError(f"edge line {reprlib.repr(line)} must satisfy u < v")
        edges.append((u, v))
    return order, edges
