"""Golden digests of ``solve`` results on books and on random graphs.

The digests were taken from the search before it pruned twin symmetry.
The search returns the first valid labeling in plan order, and a pruned
branch only ever holds labelings lex-greater than their image under a
graph automorphism, so every byte of every certificate must stay the same.
"""

import hashlib
import random

import pytest

from irrstrength import make_triangular_book, solve

from conftest import random_solid_graph


def _corpus(name):
    if name == "books":
        return [make_triangular_book(n) for n in range(1, 19)]
    rng = random.Random(0)
    return [random_solid_graph(rng, 8, 11, 0.3) for _ in range(20)]


def solve_digest(name: str, mode: str) -> str:
    h = hashlib.sha256()
    for g in _corpus(name):
        h.update(solve(g, mode).to_json().encode("ascii"))
        h.update(b"\0")
    return h.hexdigest()


PINS = {
    ("books", "s"): "7ce30c404e9e9427a83788483b712306ac429d63eb93a2116116b7b1fb89da67",
    ("books", "ms"): "8c0f0ae276711385d0f29ea456bb33b62c3586d88186cb8000df6a29729bd3d9",
    ("random", "s"): "78dd52fd2bf355a394a8207ccf369ba11b76e2b826575ab0f5bc7f03cca31cf5",
    ("random", "ms"): "941d095357769699ca0abaae5b2b8d4045b2baa056debb7de216b039297acbf6",
}


@pytest.mark.parametrize("name, mode", sorted(PINS))
def test_solve_results_are_byte_identical(name, mode):
    assert solve_digest(name, mode) == PINS[name, mode]
