"""Golden digests of ``solve`` results on books and on random graphs.

The digests were taken from the search before it pruned twin symmetry.
The search returns the first valid labeling in plan order, and a pruned
branch only ever holds labelings lex-greater than their image under a
graph automorphism, so every byte of every certificate must stay the same.
The counting oracle's counts on the same graphs are pinned too, taken by
full enumeration before the oracle became a dynamic program over the
search plan's edge order, so they referee it; the one count past
enumeration's reach is a zero the search's strength implies. The
failed-subtree table and the Hall check skip only subtrees without a
solution, so they move no digest either, even when the table's cap keeps
clearing it, down to a table of one key.
"""

import hashlib
import random
import signal
from pathlib import Path

import pytest

from irrstrength import count_labelings, make_triangular_book, parse_edge_list, solve, solver

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


# a cap of 100 clears the table many times per search, a cap of 1 at every new
# state; the ids without a cap name 100, the cap this test first held
@pytest.mark.parametrize(
    "name, mode, cap",
    [
        pytest.param(*case, cap, id="-".join(case) + ("" if cap == 100 else f"-cap{cap}"))
        for cap in (100, 1)
        for case in sorted(PINS)
    ],
)
def test_clearing_the_failed_table_keeps_every_certificate(name, mode, cap, monkeypatch):
    monkeypatch.setattr(solver, "_FAILED_CAP", cap)
    assert solve_digest(name, mode) == PINS[name, mode]


# graph 1 of random_solid_graph(random.Random(1), 13, 16, 0.3), order 15 and
# size 35, k = 3 in both modes; in ms it finishes only with the failed table
GRAPH_ONE = Path(__file__).parent / "data" / "sample_graph_1.txt"
GRAPH_ONE_PINS = {
    "s": "c496af1b6997563284f02c90d7b47c9f4b74920811cd137982ce34b6b1ab00e7",
    "ms": "279a8f02fc77c53eade48d13c8d4a7fa9a188c370dd7ad4a3d7d7b8971bf9175",
}
GRAPH_ONE_NODES = {"s": 70, "ms": 561_990}


def _graph_one():
    return parse_edge_list(GRAPH_ONE.read_text(encoding="ascii"))


def test_graph_one_fixture_is_the_second_draw():
    rng = random.Random(1)
    g = [random_solid_graph(rng, 13, 16, 0.3) for _ in range(2)][1]
    assert (g.order, g.size) == (15, 35)
    assert _graph_one() == g


@pytest.mark.parametrize("mode", sorted(GRAPH_ONE_PINS))
def test_graph_one_is_pinned(mode):
    result = solve(_graph_one(), mode)
    assert hashlib.sha256(result.to_json().encode("ascii")).hexdigest() == GRAPH_ONE_PINS[mode]
    assert result.nodes == GRAPH_ONE_NODES[mode]


@pytest.mark.parametrize("mode", sorted(GRAPH_ONE_PINS))
def test_graph_one_has_no_labeling_below_three(mode):
    # 2**35 assignments, past any enumeration; about 700,000 label extensions
    assert count_labelings(_graph_one(), mode, 2) == 0


# graph 3 of the same draws, order 16 and size 32, k = 4 in both modes, as an
# ILP finds too; its k = 3 refutation finishes only with the Hall check, in
# the pinned nodes (over 100 s without it)
GRAPH_THREE = Path(__file__).parent / "data" / "sample_graph_3.txt"
GRAPH_THREE_PINS = {
    "s": "de832a80530652ed3889fb7de67fe6d1afd3c2e9630becf9a684c3aef85ab197",
    "ms": "8363f0bd0afa1a92722f55cbb240fccbe06f0382c65868d17fee9c55a1c3acb8",
}
GRAPH_THREE_NODES = {"s": 143_409, "ms": 146_227}


def test_graph_three_fixture_is_the_fourth_draw():
    rng = random.Random(1)
    g = [random_solid_graph(rng, 13, 16, 0.3) for _ in range(4)][3]
    assert (g.order, g.size) == (16, 32)
    assert parse_edge_list(GRAPH_THREE.read_text(encoding="ascii")) == g


@pytest.fixture
def time_limit():
    """Fail the test with ``TimeoutError`` after 120 s: ``solve`` has no node budget to stop it."""

    def expire(signum, frame):
        raise TimeoutError("over 120 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(120)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("mode", sorted(GRAPH_THREE_PINS))
def test_graph_three_is_pinned(mode, time_limit):
    result = solve(parse_edge_list(GRAPH_THREE.read_text(encoding="ascii")), mode)
    assert hashlib.sha256(result.to_json().encode("ascii")).hexdigest() == GRAPH_THREE_PINS[mode]
    assert result.nodes == GRAPH_THREE_NODES[mode]


# (graph index, mode, j): count_labelings at j = k and j = k - 1, k the solved
# strength, wherever j**size <= 3**11, and at j = k - 1 for the rest of the
# random corpus (checked by enumeration up to 2**24; (10, "ms", 3) is 3**17);
# books are B_1..B_6
COUNT_PINS = {
    "books": {
        (0, "s", 3): 6, (0, "s", 2): 0, (0, "ms", 3): 6, (0, "ms", 2): 0,
        (1, "s", 2): 8, (1, "s", 1): 0, (1, "ms", 2): 8, (1, "ms", 1): 0,
        (2, "s", 2): 24, (2, "s", 1): 0, (2, "ms", 2): 12, (2, "ms", 1): 0,
        (3, "s", 3): 2160, (3, "s", 2): 0,
        (4, "s", 3): 2880, (4, "s", 2): 0, (4, "ms", 3): 0,
    },
    "random": {
        (0, "s", 3): 0, (0, "ms", 3): 0, (1, "s", 2): 0, (1, "ms", 2): 0, (2, "s", 2): 0,
        (3, "s", 3): 1896, (3, "s", 2): 0, (3, "ms", 3): 1116, (3, "ms", 2): 0,
        (6, "s", 2): 0,
        (8, "s", 3): 1994, (8, "s", 2): 0, (8, "ms", 3): 78, (8, "ms", 2): 0,
        (9, "s", 1): 0, (10, "s", 2): 0, (11, "s", 2): 0, (11, "ms", 2): 0,
        (13, "s", 1): 0, (13, "ms", 1): 0, (14, "s", 2): 0, (14, "ms", 2): 0,
        (15, "s", 2): 0, (15, "ms", 2): 0, (16, "s", 2): 0, (17, "s", 2): 0,
        (17, "ms", 2): 0, (18, "s", 2): 0, (18, "ms", 2): 0, (19, "s", 2): 0,
        (4, "s", 4): 0, (4, "ms", 4): 0, (5, "s", 2): 0, (5, "ms", 2): 0, (7, "s", 2): 0,
        (10, "ms", 3): 0, (12, "s", 4): 0, (12, "ms", 4): 0,
    },
}


@pytest.mark.parametrize("name", sorted(COUNT_PINS))
def test_oracle_counts_are_pinned(name):
    graphs = _corpus(name)
    counts = {key: count_labelings(graphs[key[0]], key[1], key[2]) for key in COUNT_PINS[name]}
    assert counts == COUNT_PINS[name]
