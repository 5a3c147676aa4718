"""Proof from the coefficient table that the book constructions hold for every n >= 8.

Write n = 8t + r. For each theorem ``books._BY_RESIDUE`` holds one row per
residue r, and every form in a row is a polynomial in t, and in the page
i, of degree at most 2 (``test_forms_have_the_stated_degrees``). Such a
polynomial is fixed by D0, D1, D2, its value and its first and second
forward differences at T0: f(T0 + u) = D0 + D1*u + D2*u*(u-1)/2. So, in
exact Fraction arithmetic,

- f is an integer for every t >= T0 iff D0, D1 and D2 are integers;
- f >= 0 for every t >= T0 if D0, D1 and D2 are >= 0, and f > 0 if also
  D0 > 0;
- two such polynomials are equal iff their D0, D1 and D2 are.

Every claim below reduces to these three checks, so each test is a proof
for all t >= T0, not a sample. The books below 8 pages, among them every
row of ``_SMALL``, are covered by the sweeps and the counting oracle in
the other test files.
"""

import math
from fractions import Fraction

import pytest

from irrstrength.books import _BY_RESIDUE, _SMALL

T0 = 1
ROWS = [(theorem, r) for theorem in (1, 2) for r in range(8) if _BY_RESIDUE[theorem][r] is not None]


def diffs(fn) -> tuple[Fraction, Fraction, Fraction]:
    v0, v1, v2 = (fn(t) for t in (T0, T0 + 1, T0 + 2))
    return v0, v1 - v0, v2 - 2 * v1 + v0


def integral(fn) -> bool:
    return all(d.denominator == 1 for d in diffs(fn))


def nonnegative(fn) -> bool:
    return all(d >= 0 for d in diffs(fn))


def positive(fn) -> bool:
    return diffs(fn)[0] > 0 and nonnegative(fn)


def identical(fn, gn) -> bool:
    return diffs(fn) == diffs(gn)


def coefficients(form) -> list[Fraction]:
    """(ci, c0, c1, c2) of the form (d, ci, c0, c1, c2), each over d."""
    d, *coeffs = form + (0,) * (5 - len(form))
    return [Fraction(c, d) for c in coeffs]


def at(form, r: int, page=lambda t: 0):
    """The form as a function of t for n = 8t + r, at the page ``page(t)``."""
    ci, c0, c1, c2 = coefficients(form)

    def fn(t):
        n = 8 * t + r
        return ci * page(t) + c0 + c1 * n + c2 * n * n

    return fn


def pieces(theorem: int, r: int):
    """(lo, step, hi, ac, bc) per piece, with lo and hi, its first and last page, as functions of t."""
    row_pieces = _BY_RESIDUE[theorem][r][3]
    return [(at(first, r), step, at(last, r), ac, bc) for first, step, last, ac, bc in row_pieces]


def pages(r: int):
    return lambda t: 8 * t + r


def piece_sum(form, r: int, lo, step: int, hi):
    """The sum of the label ``form`` over the pages lo, lo + step, ..., hi, as a function of t."""
    first, last = at(form, r, lo), at(form, r, hi)
    return lambda t: ((hi(t) - lo(t)) / step + 1) * (first(t) + last(t)) / 2


@pytest.mark.parametrize("theorem,r", ROWS)
class TestBookRows:
    def test_forms_have_the_stated_degrees(self, theorem, r):
        strength, ab, weights, row_pieces = _BY_RESIDUE[theorem][r]
        in_n = [strength, ab, *(end for first, _, last, *_ in row_pieces for end in (first, last))]
        assert all(len(form) <= 4 and coefficients(form)[0] == 0 for form in in_n)  # affine in n
        assert all(len(form) <= 4 for _, _, _, *sides in row_pieces for form in sides)  # affine in i and n
        assert len(weights) == 2 and all(len(w) <= 5 and coefficients(w)[0] == 0 for w in weights)

    def test_pieces_tile_the_pages(self, theorem, r):
        spans = [(lo, step, hi) for lo, step, hi, *_ in pieces(theorem, r)]
        period = math.lcm(*(step for _, step, _ in spans))
        assert 8 % period == 0  # so n = r (mod period) for every t
        for lo, step, hi in spans:
            assert integral(lo) and integral(hi)
            assert integral(lambda t: (hi(t) - lo(t)) / step)  # hi is a page of the piece
            # each endpoint keeps its residue mod the period, so a piece meets the same classes for every t
            assert all(diffs(end)[k] % period == 0 for end in (lo, hi) for k in (1, 2))
        for q in range(period):
            # the first and last page = q (mod period) of each piece that has pages in that class
            runs = []
            for lo, step, hi in spans:
                if (lo(T0) - q) % step == 0:
                    up, down = (q - lo(T0)) % period, (hi(T0) - q) % period
                    run = (lambda t, lo=lo, up=up: lo(t) + up, lambda t, hi=hi, down=down: hi(t) - down)
                    runs.append(run)
            runs.sort(key=lambda run: run[0](T0))
            assert runs and all(nonnegative(lambda t, a=a, b=b: b(t) - a(t)) for a, b in runs)
            assert identical(runs[0][0], lambda t: 1 + (q - 1) % period)
            for (_, b), (a, _) in zip(runs, runs[1:]):
                assert identical(a, lambda t, b=b: b(t) + period)
            assert identical(runs[-1][1], lambda t: 8 * t + r - (r - q) % period)

    def test_labels_are_integers_from_one_to_the_strength(self, theorem, r):
        strength, ab = at(_BY_RESIDUE[theorem][r][0], r), at(_BY_RESIDUE[theorem][r][1], r)
        ends = [ab]
        for lo, step, hi, *sides in pieces(theorem, r):
            for form in sides:
                # integers on every page: at the first page, and in steps of ci*step/d
                assert integral(at(form, r, lo)) and (coefficients(form)[0] * step).denominator == 1
                ends += [at(form, r, lo), at(form, r, hi)]  # affine in i: the extremes are at the ends
        assert integral(ab) and integral(strength)
        assert all(nonnegative(lambda t, f=f: f(t) - 1) for f in ends)
        assert all(nonnegative(lambda t, f=f: strength(t) - f(t)) for f in ends)
        assert any(identical(f, strength) for f in ends)

    def test_page_weights_are_i_plus_one(self, theorem, r):
        for lo, _, hi, ac, bc in pieces(theorem, r):
            # ac + bc - (i + 1) is affine in i, so it vanishes on the piece if it does at both ends
            for p in (lo, hi):
                assert identical(lambda t, p=p: at(ac, r, p)(t) + at(bc, r, p)(t), lambda t, p=p: p(t) + 1)

    def test_center_weights_match_the_row(self, theorem, r):
        _, ab, weights, _ = _BY_RESIDUE[theorem][r]
        for side, w in enumerate(weights):
            sums = [piece_sum(piece[3 + side], r, *piece[:3]) for piece in pieces(theorem, r)]
            total = lambda t, sums=sums: at(ab, r)(t) + sum(s(t) for s in sums)
            assert identical(total, at(w, r))


@pytest.mark.parametrize("r", [r for theorem, r in ROWS if theorem == 1])
def test_theorem_one_centers_above_the_pages_and_apart(r):
    wa, wb = (at(w, r) for w in _BY_RESIDUE[1][r][2])
    assert positive(lambda t: wa(t) - pages(r)(t) - 1)
    assert positive(lambda t: wb(t) - pages(r)(t) - 1)
    assert positive(lambda t: wb(t) - wa(t)) or positive(lambda t: wa(t) - wb(t))


@pytest.mark.parametrize("r", [r for theorem, r in ROWS if theorem == 2])
def test_theorem_two_center_residues_are_the_two_left_over(r):
    residues = []
    for w in _BY_RESIDUE[2][r][2]:
        _, c0, c1, c2 = coefficients(w)
        rest = c0 - 2 * c1 + 4 * c2  # w at n = -2, so n + 2 divides w - rest as polynomials
        quotient = lambda t, w=w, rest=rest: (at(w, r)(t) - rest) / (pages(r)(t) + 2)
        assert integral(quotient)  # w = rest (mod n + 2) for every t
        residues.append(rest)
    # pages weigh 2..n+1, so the centers must take residues 0 and 1
    assert sorted(residues) == [0, 1]


def test_small_rows_lie_below_t0():
    # so every n = 8t + r with t >= T0 takes the row of its residue
    assert all(n < 8 * T0 for _, n in _SMALL)
