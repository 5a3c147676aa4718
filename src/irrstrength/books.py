"""Closed-form labelings and strength values for triangular book graphs.

Label vectors follow the canonical edge order of ``make_triangular_book``:
the common edge ab first, then ac_1..ac_n, then bc_1..bc_n. ``_case`` is
the single dispatch on the page count: for each theorem it maps n to the
strength, the label builder and the center weights, and every public
function here reads one field of that record. Every division in the
formulas below is exact within its residue class; ``_exact_div`` guards
each one so a dispatch bug fails loudly instead of corrupting a labeling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .labelings import EdgeLabeling, WeightProfile


def _require_pages(n: int) -> None:
    if n < 1:
        raise ValueError(f"page count must be >= 1, got {n}")


def _exact_div(value, divisor: int):
    if np.count_nonzero(value % divisor):
        raise ArithmeticError(f"inexact division by {divisor} (residue-class dispatch bug)")
    return value // divisor


@dataclass(frozen=True)
class _Case:
    """One construction: strength, labels on demand, and center weights.

    ``labels`` builds the full label vector when called; ``weights`` is
    (w(a), w(b)), or the whole profile for the single triangle. Both are
    None when no labeling exists.
    """

    strength: int | float
    labels: Callable[[], object] | None
    weights: tuple[int, ...] | None


# single triangle: weights 3, 4, 5 land on c_1, a, b
_TRIANGLE = _Case(3, lambda: (3, 1, 2), (4, 5, 3))


def _book_labels(ab: int, pages: Callable[[int], tuple[np.ndarray, np.ndarray]], n: int):
    """Builder for the labels ab, then the (ac, bc) pair from ``pages(n)``."""
    return lambda: np.concatenate([[ab], *pages(n)])


def _case(theorem: int, n: int) -> _Case:
    """The construction of Theorem ``theorem`` (1: irregular, 2: modular) for B_n."""
    _require_pages(n)
    if theorem not in (1, 2):
        raise ValueError(f"theorem must be 1 or 2, got {theorem}")
    if n == 1:
        return _TRIANGLE
    s = (n + 2) // 2  # ceil((n+1)/2)
    if theorem == 1:
        if n == 2:
            centers = (4, 5)
        elif n % 2 == 1:
            centers = (_exact_div(n * n + 2 * n + 5, 4), _exact_div(n * n + 4 * n + 3, 4))
        else:
            centers = (_exact_div(n * n + 2 * n + 4, 4), _exact_div(n * n + 4 * n + 4, 4))
        return _Case(s, _book_labels(2 if n == 2 else 1, _labels_alternating, n), centers)
    if n == 5:
        return _Case(4, lambda: (1, 1, 1, 1, 2, 2, 1, 2, 3, 3, 4), (8, 14))
    if n % 4 == 0:  # order 2 mod 4: no modular labeling
        return _Case(math.inf, None, None)
    if n % 8 == 1:
        wa = _exact_div((n + 7) * (n + 2), 8)
        wb = _exact_div(3 * (n - 1) * (n + 2), 8) + 1
        return _Case(s, _book_labels(1, _labels_residue1_mod8, n), (wa, wb))
    if n % 8 == 5:
        wa = _exact_div((n + 11) * (n + 2), 8)
        wb = _exact_div((3 * n - 7) * (n + 2), 8) + 1
        return _Case(s, _book_labels(1, _labels_residue5_mod8, n), (wa, wb))
    if n % 4 == 2:
        wa = _exact_div((n + 2) * (n + 2), 4)
        ab = _exact_div(n + 6, 4)
        return _Case(s, _book_labels(ab, _labels_even_odd_split, n), (wa, wa + 1))
    wa = _exact_div((n + 1) * (n + 2), 4)
    return _Case(s, _book_labels(1, _labels_even_odd_split, n), (wa, wa + 1))


def irregular_strength(n: int) -> int:
    """Minimum k admitting an irregular assignment of the n-page book."""
    return _case(1, n).strength


def modular_strength(n: int) -> int | float:
    """Minimum k admitting a modular irregular labeling; inf when none exists."""
    return _case(2, n).strength


def irregular_labeling(n: int) -> EdgeLabeling:
    """Irregular assignment with max label ``irregular_strength(n)``.

    For n >= 2 the page weights are w(c_i) = i + 1 and the two centers get
    the largest weights, with w(a) < w(b).
    """
    return EdgeLabeling(_case(1, n).labels())


def modular_labeling(n: int) -> EdgeLabeling | None:
    """Modular irregular labeling with max label ``modular_strength(n)``.

    Returns None for n divisible by 4 (order 2 mod 4: no such labeling).
    """
    case = _case(2, n)
    return None if case.labels is None else EdgeLabeling(case.labels())


def _labels_alternating(n: int) -> tuple[np.ndarray, np.ndarray]:
    # Theorem 1, n >= 2: page i sits at 0-based index i - 1, so odd i is
    # the 0::2 stride; even pages put the larger label on the b side.
    i_odd = np.arange(1, n + 1, 2, dtype=np.int64)
    i_even = np.arange(2, n + 1, 2, dtype=np.int64)
    ac = np.empty(n, dtype=np.int64)
    bc = np.empty(n, dtype=np.int64)
    odd_vals = _exact_div(i_odd + 1, 2)
    half_even = _exact_div(i_even, 2)
    ac[0::2] = odd_vals
    ac[1::2] = half_even
    bc[0::2] = odd_vals
    bc[1::2] = half_even + 1
    return ac, bc


def _labels_residue1_mod8(n: int) -> tuple[np.ndarray, np.ndarray]:
    # n = 8t+1, n >= 9; three pieces around the middle page (n+1)/2.
    # Page i sits at 0-based index i - 1.
    half = (n - 1) // 2
    mid = half + 1
    i_high = np.arange(mid + 1, n + 1, dtype=np.int64)
    ac = np.empty(n, dtype=np.int64)
    bc = np.empty(n, dtype=np.int64)
    ac[:half] = 1
    ac[half] = _exact_div(n - 1, 8) + 2
    ac[mid:] = _exact_div(2 * i_high - n + 1, 2)
    bc[:half] = np.arange(1, half + 1, dtype=np.int64)
    bc[half] = _exact_div(3 * n - 3, 8)
    bc[mid:] = _exact_div(n + 1, 2)
    return ac, bc


def _labels_residue5_mod8(n: int) -> tuple[np.ndarray, np.ndarray]:
    # n = 8t+5, n >= 13; four pieces, two special pages after the middle.
    # The b-side tail is the constant (n+1)/2 so w(c_i) = i + 1 holds across
    # the whole range and the max label stays at (n+1)/2.
    half = (n - 1) // 2
    mid2 = half + 2
    i_high = np.arange(mid2 + 1, n + 1, dtype=np.int64)
    ac = np.empty(n, dtype=np.int64)
    bc = np.empty(n, dtype=np.int64)
    ac[:half] = 1
    ac[half] = _exact_div(n + 1, 2)
    ac[half + 1] = _exact_div(n + 35, 8)
    ac[mid2:] = _exact_div(2 * i_high - n + 1, 2)
    bc[:half] = np.arange(1, half + 1, dtype=np.int64)
    bc[half] = 1
    bc[half + 1] = _exact_div(3 * n - 15, 8)
    bc[mid2:] = _exact_div(n + 1, 2)
    return ac, bc


def _labels_even_odd_split(n: int) -> tuple[np.ndarray, np.ndarray]:
    # n = 2 or 3 mod 4; even pages split by i mod 4, odd pages symmetric.
    # Strides: odd i at 0::2, i = 0 mod 4 at 3::4, i = 2 mod 4 at 1::4.
    i_odd = np.arange(1, n + 1, 2, dtype=np.int64)
    i_by4 = np.arange(4, n + 1, 4, dtype=np.int64)
    i_by2 = np.arange(2, n + 1, 4, dtype=np.int64)
    ac = np.empty(n, dtype=np.int64)
    bc = np.empty(n, dtype=np.int64)
    odd_vals = _exact_div(i_odd + 1, 2)
    half4 = _exact_div(i_by4, 2)
    half2 = _exact_div(i_by2, 2)
    ac[0::2] = odd_vals
    ac[3::4] = half4 + 1
    ac[1::4] = half2
    bc[0::2] = odd_vals
    bc[3::4] = half4
    bc[1::4] = half2 + 1
    return ac, bc


def predicted_weights(n: int, theorem: int = 2) -> WeightProfile:
    """Closed-form weight profile for the matching construction.

    Vertex order is a, b, c_1..c_n. Page weights are i + 1 throughout
    (with the n = 1 triangle carrying 4, 5, 3 on a, b, c_1); the center
    weights come from per-residue-class quadratics.
    """
    case = _case(theorem, n)
    if case.weights is None:
        raise ValueError(f"no modular labeling for n = {n} (divisible by 4)")
    head = np.array(case.weights, dtype=np.int64)
    # vertex j >= 2 is page c_{j-1}, of weight j; the triangle lists all three
    weights = np.concatenate([head, np.arange(head.size, n + 2, dtype=np.int64)])
    residues = weights % (n + 2)
    weights.setflags(write=False)
    residues.setflags(write=False)
    return WeightProfile(weights=weights, residues=residues)
