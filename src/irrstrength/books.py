"""Closed-form labelings and strength values for triangular book graphs.

Label vectors follow the canonical edge order of ``make_triangular_book``:
ab first, then ac_1..ac_n, then bc_1..bc_n. Each construction of Theorem 1
(irregular) or 2 (modular) is one row of integer coefficients. ``_case``,
the single dispatch on the page count, returns the row of n in ``_SMALL``,
else the row of n mod 8 in ``_BY_RESIDUE`` (None: no labeling exists), and
one evaluator, ``_labels``, reads every row.

A row is (strength, ab, weights, pieces). The strength, the label ab and
the center weights (w(a), w(b)), or the whole profile for the triangle,
are forms in n. A piece (first, step, last, ac, bc) puts the labels ac on
edge ac_i and bc on bc_i for i = first, first + step, ..., last; its
endpoints are forms in n, its labels forms in i and n, and the pieces of
a row tile the pages 1..n. A form (d, ci, c0, c1, c2) stands for
(ci*i + c0 + c1*n + c2*n**2) / d, trailing zeros left out.

Every division must be exact, and ``_exact_div`` guards each one, so a
wrong coefficient fails loudly instead of corrupting a labeling. Along a
piece the label on its j-th page is v0 + j*delta, so it is exact on every
page iff the numerator at the first page and ci*step are divisible by d:
one check per piece. ``tests/test_book_proof.py`` proves from the rows
that they give the stated labelings for every n >= 8.
"""

from __future__ import annotations

import math

import numpy as np

from .graphs import _integer
from .labelings import EdgeLabeling, WeightProfile


def _exact_div(value: int, divisor: int) -> int:
    if value % divisor:
        raise ArithmeticError(f"inexact division by {divisor} (residue-class dispatch bug)")
    return value // divisor


def _value(form: tuple[int, ...], n: int, i: int = 0) -> int:
    d, ci, c0, c1, c2 = form + (0,) * (5 - len(form))
    return _exact_div(ci * i + c0 + (c1 + c2 * n) * n, d)


# Theorem 1, n >= 2: odd pages get (i+1)/2 twice, even pages i/2 and i/2 + 1
_T1_EVEN = ((2, 0, 2, 1), (1, 0, 1), ((4, 0, 4, 2, 1), (4, 0, 4, 4, 1)), (
    ((1, 0, 1), 2, (1, 0, -1, 1), (2, 1, 1), (2, 1, 1)),
    ((1, 0, 2), 2, (1, 0, 0, 1), (2, 1), (2, 1, 2))))
_T1_ODD = ((2, 0, 1, 1), (1, 0, 1), ((4, 0, 5, 2, 1), (4, 0, 3, 4, 1)), (
    ((1, 0, 1), 2, (1, 0, 0, 1), (2, 1, 1), (2, 1, 1)),
    ((1, 0, 2), 2, (1, 0, -1, 1), (2, 1), (2, 1, 2))))
# Theorem 2, n = 2 or 3 mod 4: odd pages as in Theorem 1; pages i = 2 mod 4
# get i/2 and i/2 + 1, pages i = 0 mod 4 the same two the other way round
_T2_MOD4_2 = ((2, 0, 2, 1), (4, 0, 6, 1), ((4, 0, 4, 4, 1), (4, 0, 8, 4, 1)), (
    ((1, 0, 1), 2, (1, 0, -1, 1), (2, 1, 1), (2, 1, 1)),
    ((1, 0, 2), 4, (1, 0, 0, 1), (2, 1), (2, 1, 2)),
    ((1, 0, 4), 4, (1, 0, -2, 1), (2, 1, 2), (2, 1))))
_T2_MOD4_3 = ((2, 0, 1, 1), (1, 0, 1), ((4, 0, 2, 3, 1), (4, 0, 6, 3, 1)), (
    ((1, 0, 1), 2, (1, 0, 0, 1), (2, 1, 1), (2, 1, 1)),
    ((1, 0, 2), 4, (1, 0, -1, 1), (2, 1), (2, 1, 2)),
    ((1, 0, 4), 4, (1, 0, -3, 1), (2, 1, 2), (2, 1))))
# n = 1 mod 8, n >= 9: pages below the middle page (n+1)/2 get 1 and i, the
# middle page (n+15)/8 and (3n-3)/8, the pages above it (2i-n+1)/2 and (n+1)/2
_T2_MOD8_1 = ((2, 0, 1, 1), (1, 0, 1), ((8, 0, 14, 9, 1), (8, 0, 2, 3, 3)), (
    ((1, 0, 1), 1, (2, 0, -1, 1), (1, 0, 1), (1, 1)),
    ((2, 0, 1, 1), 1, (2, 0, 1, 1), (8, 0, 15, 1), (8, 0, -3, 3)),
    ((2, 0, 3, 1), 1, (1, 0, 0, 1), (2, 2, 1, -1), (2, 0, 1, 1))))
# n = 5 mod 8, n >= 13: as n = 1 mod 8, but with two middle pages, labelled
# (n+1)/2 and 1, then (n+35)/8 and (3n-15)/8
_T2_MOD8_5 = ((2, 0, 1, 1), (1, 0, 1), ((8, 0, 22, 13, 1), (8, 0, -6, -1, 3)), (
    ((1, 0, 1), 1, (2, 0, -1, 1), (1, 0, 1), (1, 1)),
    ((2, 0, 1, 1), 1, (2, 0, 1, 1), (2, 0, 1, 1), (1, 0, 1)),
    ((2, 0, 3, 1), 1, (2, 0, 3, 1), (8, 0, 35, 1), (8, 0, -15, 3)),
    ((2, 0, 5, 1), 1, (1, 0, 0, 1), (2, 2, 1, -1), (2, 0, 1, 1))))
# the single triangle: weights 3, 4, 5 land on c_1, a, b
_TRIANGLE = ((1, 0, 3), (1, 0, 3), ((1, 0, 4), (1, 0, 5), (1, 0, 3)), (
    ((1, 0, 1), 1, (1, 0, 1), (1, 0, 1), (1, 0, 2)),))
# n = 2 as n even, but ab = 2: with ab = 1, w(a) = 3 = w(c_2)
_T1_TWO = ((1, 0, 2), (1, 0, 2), ((1, 0, 4), (1, 0, 5)), _T1_EVEN[3])
# n = 5: modular strength 4, one more than ceil((n+1)/2)
_T2_FIVE = ((1, 0, 4), (1, 0, 1), ((1, 0, 8), (1, 0, 14)), (
    ((1, 0, 1), 1, (1, 0, 3), (1, 0, 1), (1, 1)),
    ((1, 0, 4), 1, (1, 0, 5), (1, 0, 2), (1, 1, -1))))
_SMALL = {(1, 1): _TRIANGLE, (2, 1): _TRIANGLE, (1, 2): _T1_TWO, (2, 5): _T2_FIVE}
# n = 0 mod 4 (order 2 mod 4) has no modular labeling
_BY_RESIDUE = {1: (_T1_EVEN, _T1_ODD) * 4,
               2: (None, _T2_MOD8_1, _T2_MOD4_2, _T2_MOD4_3, None, _T2_MOD8_5, _T2_MOD4_2, _T2_MOD4_3)}


def _labels(row, n: int) -> np.ndarray:
    """The labels of ``row`` for B_n; a page that no piece covers keeps 0, which EdgeLabeling rejects."""
    out = np.zeros(2 * n + 1, dtype=np.int64)
    out[0] = _value(row[1], n)
    for first, step, last, *sides in row[3]:
        lo = _value(first, n)
        count = _exact_div(_value(last, n) - lo, step) + 1
        for at, form in zip((lo, n + lo), sides):
            v0, delta = _value(form, n, lo), _exact_div(form[1] * step, form[0])
            out[at : at + count * step : step] = np.arange(v0, v0 + count * delta, delta) if delta else v0
    return out


def _case(theorem: int, n: int) -> tuple[tuple | None, int]:
    """``(row, n)``: Theorem ``theorem``'s row for B_n (None: no labeling exists) and n as an int."""
    n, theorem = _integer(n, "page count", 1), _integer(theorem, "theorem", 1)
    if theorem > 2:
        raise ValueError(f"theorem must be 1 or 2, got {theorem}")
    return _SMALL.get((theorem, n), _BY_RESIDUE[theorem][n % 8]), n


def irregular_strength(n: int) -> int:
    """Minimum k admitting an irregular assignment of the n-page book."""
    row, n = _case(1, n)
    return _value(row[0], n)


def modular_strength(n: int) -> int | float:
    """Minimum k admitting a modular irregular labeling; inf when none exists."""
    row, n = _case(2, n)
    return math.inf if row is None else _value(row[0], n)


def irregular_labeling(n: int) -> EdgeLabeling:
    """Irregular assignment with max label ``irregular_strength(n)``.

    For n >= 2 the page weights are w(c_i) = i + 1 and the two centers get
    the largest weights, with w(a) < w(b).
    """
    return EdgeLabeling(_labels(*_case(1, n)))


def modular_labeling(n: int) -> EdgeLabeling | None:
    """Modular irregular labeling with max label ``modular_strength(n)``.

    Returns None for n divisible by 4 (order 2 mod 4: no such labeling).
    """
    row, n = _case(2, n)
    return None if row is None else EdgeLabeling(_labels(row, n))


def predicted_weights(n: int, theorem: int = 2) -> WeightProfile:
    """Closed-form weight profile for the matching construction.

    Vertex order is a, b, c_1..c_n. Page weights are i + 1 throughout
    (with the n = 1 triangle carrying 4, 5, 3 on a, b, c_1); the center
    weights come from per-residue-class quadratics.
    """
    row, n = _case(theorem, n)
    if row is None:
        raise ValueError(f"no modular labeling for n = {n} (divisible by 4)")
    head = np.array([_value(w, n) for w in row[2]], dtype=np.int64)
    # vertex j >= 2 is page c_{j-1}, of weight j; the triangle lists all three
    weights = np.concatenate([head, np.arange(head.size, n + 2, dtype=np.int64)])
    weights.setflags(write=False)
    return WeightProfile(weights=weights)
