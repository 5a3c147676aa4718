import hashlib
import math

import numpy as np
import pytest

from irrstrength import (
    EdgeLabeling,
    irregular_labeling,
    irregular_strength,
    make_triangular_book,
    modular_labeling,
    modular_strength,
    predicted_weights,
    verify_irregular,
    verify_modular,
    vertex_weights,
)
from irrstrength.books import _case, _labels, _value


class TestStrengthFormulas:
    def test_irregular_values(self):
        assert [irregular_strength(n) for n in range(1, 10)] == [3, 2, 2, 3, 3, 4, 4, 5, 5]

    def test_modular_values(self):
        got = [modular_strength(n) for n in range(1, 10)]
        assert got == [3, 2, 2, math.inf, 4, 4, 4, math.inf, 5]

    def test_large_even_and_odd(self):
        assert irregular_strength(9) == 5
        assert irregular_strength(1000) == 501
        assert modular_strength(1001) == 501

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            irregular_strength(0)
        with pytest.raises(ValueError):
            modular_strength(0)
        with pytest.raises(ValueError):
            irregular_labeling(0)
        with pytest.raises(ValueError):
            modular_labeling(0)

    @pytest.mark.parametrize("n", [n for n in range(1, 200) if n != 5 and n % 4 != 0])
    def test_strengths_agree_outside_carveouts(self, n):
        assert modular_strength(n) == irregular_strength(n)


class TestIrregularLabeling:
    def test_two_pages_explicit(self):
        f = irregular_labeling(2)
        assert f.labels.tolist() == [2, 1, 1, 1, 2]
        prof = vertex_weights(make_triangular_book(2), f)
        assert prof.weights.tolist() == [4, 5, 2, 3]

    def test_five_pages_center_weights(self):
        prof = vertex_weights(make_triangular_book(5), irregular_labeling(5))
        assert prof.weights[0] == 10  # (25 + 10 + 5) / 4
        assert prof.weights[1] == 12  # (25 + 20 + 3) / 4

    def test_four_pages_weights(self):
        prof = vertex_weights(make_triangular_book(4), irregular_labeling(4))
        assert prof.weights[0] == 7
        assert prof.weights[1] == 9
        assert prof.weights[2:].tolist() == [2, 3, 4, 5]

    @pytest.mark.parametrize("n", list(range(1, 80)) + [641, 642, 643, 644])
    def test_verifies_at_stated_strength(self, n):
        g = make_triangular_book(n)
        f = irregular_labeling(n)
        assert verify_irregular(g, f).ok
        assert f.k == irregular_strength(n)
        assert vertex_weights(g, f) == predicted_weights(n, theorem=1)

    @pytest.mark.parametrize("n", range(3, 60))
    def test_weight_ordering(self, n):
        w = vertex_weights(make_triangular_book(n), irregular_labeling(n)).weights
        assert int(w[2:].max()) < int(w[0]) < int(w[1])


class TestModularLabeling:
    def test_single_page_fixed_assignment(self):
        f = modular_labeling(1)
        assert f.labels.tolist() == [3, 1, 2]
        prof = vertex_weights(make_triangular_book(1), f)
        assert prof.weights.tolist() == [4, 5, 3]

    def test_five_pages_explicit_list(self):
        f = modular_labeling(5)
        assert f.labels.tolist() == [1, 1, 1, 1, 2, 2, 1, 2, 3, 3, 4]
        prof = vertex_weights(make_triangular_book(5), f)
        assert prof.residues[0] == 1 and prof.residues[1] == 0
        assert prof.weights[2:].tolist() == [2, 3, 4, 5, 6]

    def test_infinite_class_returns_none(self):
        assert modular_labeling(4) is None
        assert modular_labeling(8) is None
        assert modular_labeling(4000) is None

    def test_nine_pages(self):
        prof = vertex_weights(make_triangular_book(9), modular_labeling(9))
        assert prof.weights[0] == 22 and prof.residues[0] == 0
        assert prof.weights[1] == 34 and prof.residues[1] == 1

    def test_six_pages(self):
        prof = vertex_weights(make_triangular_book(6), modular_labeling(6))
        assert prof.weights[0] == 16 and prof.weights[1] == 17

    @pytest.mark.parametrize(
        "n", [n for n in list(range(1, 80)) + [1021, 1022, 1023, 1025] if n % 4 != 0]
    )
    def test_verifies_at_stated_strength(self, n):
        g = make_triangular_book(n)
        f = modular_labeling(n)
        assert verify_modular(g, f).ok
        assert f.k == modular_strength(n)
        assert vertex_weights(g, f) == predicted_weights(n, theorem=2)

    @pytest.mark.parametrize("n", [n for n in range(2, 80) if n % 4 != 0])
    def test_page_weights_and_center_residues(self, n):
        prof = vertex_weights(make_triangular_book(n), modular_labeling(n))
        assert prof.weights[2:].tolist() == list(range(2, n + 2))
        if n != 5:
            assert prof.residues[0] == 0 and prof.residues[1] == 1


class TestPredictedWeights:
    def test_thirteen_pages(self):
        prof = predicted_weights(13)
        assert prof.weights[0] == 45 and prof.weights[1] == 61

    def test_three_pages(self):
        prof = predicted_weights(3)
        assert prof.weights[0] == 5 and prof.weights[1] == 6

    def test_single_page_triangle(self):
        assert predicted_weights(1).weights.tolist() == [4, 5, 3]

    def test_irregular_variant(self):
        assert predicted_weights(5, theorem=1).weights[:2].tolist() == [10, 12]
        assert predicted_weights(4, theorem=1).weights[:2].tolist() == [7, 9]
        assert predicted_weights(2, theorem=1).weights.tolist() == [4, 5, 2, 3]

    def test_rejects_infinite_class(self):
        with pytest.raises(ValueError, match="divisible by 4"):
            predicted_weights(4)

    def test_irregular_variant_allows_multiples_of_four(self):
        assert predicted_weights(8, theorem=1).weights[0] == (64 + 16 + 4) // 4

    def test_rejects_bad_theorem(self):
        with pytest.raises(ValueError):
            predicted_weights(3, theorem=3)
        for theorem in (True, 1.0):
            with pytest.raises(ValueError, match="theorem must be an integer"):
                predicted_weights(6, theorem=theorem)


class TestCaseClassification:
    """The case table: one record per construction, consistent with itself."""

    @pytest.mark.parametrize(
        "theorem,n,tag",
        [
            (1, 1, "n1"),
            (1, 2, "n2"),
            (1, 7, "generic-odd"),
            (1, 10, "generic-even"),
            (2, 1, "n1"),
            (2, 5, "n5"),
            (2, 12, "infinite"),
            (2, 9, "mod8r1"),
            (2, 13, "mod8r5"),
            (2, 6, "mod4r2"),
            (2, 3, "mod4r3"),
            (2, 2, "mod4r2"),
        ],
    )
    def test_dispatch(self, theorem, n, tag):
        row, n = _case(theorem, n)
        if tag == "infinite":
            assert row is None
            return
        g = make_triangular_book(n)
        f = EdgeLabeling(_labels(row, n))
        verify = verify_irregular if theorem == 1 else verify_modular
        assert verify(g, f).ok
        assert f.k == _value(row[0], n)
        head = [_value(w, n) for w in row[2]]
        assert vertex_weights(g, f).weights.tolist()[: len(head)] == head

    @pytest.mark.parametrize("theorem", [1, 2])
    def test_total_over_all_pages(self, theorem):
        for n in range(1, 400):
            row, m = _case(theorem, n)
            assert m == n and (row is None) == (theorem == 2 and n % 4 == 0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            _case(3, 1)
        with pytest.raises(ValueError):
            _case(1, 0)


class TestPageCountType:
    """The page count must be an integer: no float, bool or string passes, numpy integers do."""

    PUBLIC = [
        irregular_strength, modular_strength, irregular_labeling, modular_labeling, predicted_weights,
        make_triangular_book,
    ]

    @pytest.mark.parametrize("n", [6.0, 2.5, True, "6", np.float64(6), None])
    @pytest.mark.parametrize("fn", PUBLIC)
    def test_rejects_non_integer(self, fn, n):
        with pytest.raises(ValueError, match="page count must be an integer"):
            fn(n)

    @pytest.mark.parametrize("fn", PUBLIC)
    def test_accepts_numpy_integers(self, fn):
        assert fn(np.int64(6)) == fn(6)


# sha256 of the labels, strengths and predicted profiles below, taken from the
# hand-written builders that the coefficient table replaced
CONSTRUCTIONS_DIGEST = "4422c2c06c55224c9c84369d076a25ee589501844c56b00b58c5763b94977923"


def test_constructions_match_pinned_digest():
    h = hashlib.sha256()
    theorems = ((1, irregular_labeling, irregular_strength), (2, modular_labeling, modular_strength))
    for n in range(1, 2001):
        for theorem, labeling, strength in theorems:
            f = labeling(n)
            h.update(f"{n} {theorem} {strength(n)}\n".encode())
            if f is not None:
                prof = predicted_weights(n, theorem)
                for arr in (f.labels, prof.weights, prof.residues):
                    h.update(arr.astype("<i8").tobytes())
    assert h.hexdigest() == CONSTRUCTIONS_DIGEST
