"""Counting lower bounds, the parity floor and the residue-class infinity criterion.

The classical lower bound for the irregularity strength (Chartrand et al.,
"Irregular networks", 1988) takes, over every pair of occurring degrees
i <= j, the value ceil((n_i + ... + n_j + i - 1) / j) where n_d is the
number of vertices of degree exactly d: under labels in 1..k, the vertices
with degree in [i, j] need distinct weights in [i, k * j]. It reads the
pairs (d, n_d) from the graph's degree histogram, computed once per graph
and stated in closed form by ``make_triangular_book``. A modular
irregular labeling is in particular an irregular assignment (distinct
residues force distinct weights), so the same value bounds the modular
strength from below.

The modular bound rises past it by parity. The weights sum to twice the
label sum, an even number, while a modular labeling's residues are
0..n - 1 once each. For an order of 2 mod 4 no weights with those
residues sum to an even number, so no modular irregular labeling exists
(the infinity property of Bača, Muthugurupackiam, Kathiresan and Ramya,
2020); for an order of 0 mod 4 they always do. For an odd order
``lower_bound_ms`` skips each k at which no weights w_v in [d_v, k * d_v]
take every residue with an even sum.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

from .graphs import Graph

_PARITY_BUDGET = 2**15  # state extensions, in machine words, one parity floor may make before it stops rising


@dataclass(frozen=True)
class BoundReport:
    """Lower bounds for one graph; ``ms_lower`` is ``math.inf`` when infinite."""

    s_lower: int
    ms_lower: int | float
    ms_infinite: bool


def has_small_component(g: Graph) -> bool:
    """True when some component has order <= 2.

    Such a component is either an isolated vertex (degree 0) or a lone
    edge whose two endpoints both have degree 1; no traversal is needed.
    """
    if g.order == 0:
        return False
    least = g._degree_counts()[0][0]
    if least != 1:  # an isolated vertex, or no vertex that could end a lone edge
        return least == 0
    deg = g.degrees()
    u = g.edges[:, 0]
    v = g.edges[:, 1]
    return bool(((deg[u] == 1) & (deg[v] == 1)).any())


def lower_bound_s(g: Graph) -> int:
    """Counting lower bound for the irregularity strength."""
    if g.order == 0:
        raise ValueError("bound undefined for the empty graph")
    if has_small_component(g):
        raise ValueError("graph has a component of order <= 2: s is infinite and ms undefined")
    # a plain loop: a numpy version over all pairs costs more on small graphs
    pairs = list(zip(*g._degree_counts()))
    best = 0
    for a, (i, _) in enumerate(pairs):
        total = i - 1
        for j, n in pairs[a:]:
            total += n
            best = max(best, (total + j - 1) // j)  # ceil((n_i + ... + n_j + i - 1) / j)
    return best


def modular_infinite(g: Graph) -> bool:
    """Order congruent to 2 mod 4 admits no modular irregular labeling."""
    return g.order % 4 == 2


def _refute(order: int, counts: tuple[tuple[int, ...], tuple[int, ...]], k: int, budget: int) -> int | None:
    """The budget left after proving that no weights w_v in [d_v, k * d_v],
    over the degree histogram ``counts`` (``Graph._degree_counts()``), take
    distinct residues mod ``order`` with an even sum; None when some do.

    A depth-first search gives the vertices weights in ascending degree, and
    each vertex its weights in ascending order, so its first descent gives
    each vertex its least weight with a free residue. Its state is the
    bitmask of the taken residues, shifted up by one, with the sum's parity
    in bit 0. It enters each state once, so it stops at the first even
    witness but refutes only after every reachable state. Each state it
    opens is charged its vertex's weights times the state's machine words.

    It answers None at once for an order of 0 mod 4; when the largest degree
    d has (k - 1) * d + 1 >= 2 * order, since 2 * order weights in a row
    reach every residue of an odd order with both parities; and when the
    charges pass ``budget``. So only a refutation is exact. Orders of
    2 mod 4, which are always refuted, are left to ``modular_infinite``.
    """
    degrees, numbers = counts
    if order % 4 == 0 or (k - 1) * degrees[-1] + 1 >= 2 * order:
        return None
    words = order // 64 + 1
    ends = list(itertools.accumulate(numbers))
    moves = {}
    seen = set()
    path = []  # each open state with an iterator over its moves not yet tried
    state = 0
    while True:
        if len(path) == order:
            if not state & 1:
                return None
        else:
            d = degrees[bisect.bisect_right(ends, len(path))]
            budget -= ((k - 1) * d + 1) * words  # charged before the moves are built
            if budget < 0:
                return None
            if d not in moves:
                moves[d] = [2 << w % order | w & 1 for w in range(d, k * d + 1)]
            path.append((state, iter(moves[d])))
        # enter the next unseen state one move below the deepest open state, closing spent ones
        while path:
            state, untried = path[-1]
            for m in untried:
                # a move whose residue is free sets its bit and flips the parity by its own
                if not state & m & -2 and state ^ m not in seen:
                    break
            else:
                path.pop()
                continue
            state ^= m
            seen.add(state)
            break
        else:
            return budget


def _parity_floor(order: int, counts: tuple[tuple[int, ...], tuple[int, ...]], k: int) -> int:
    """The least k' >= k that ``_refute`` does not refute, all levels sharing
    one ``_PARITY_BUDGET``; none is refuted once k' reaches 2 * order."""
    budget = _PARITY_BUDGET
    while (budget := _refute(order, counts, k, budget)) is not None:
        k += 1
    return k


def lower_bound_ms(g: Graph) -> int | float:
    """Lower bound for the modular irregularity strength: ``math.inf`` for an
    order of 2 mod 4, else ``lower_bound_s`` raised past every k at which
    the weights cannot take distinct residues with an even sum."""
    s_lower = lower_bound_s(g)
    return math.inf if modular_infinite(g) else _parity_floor(g.order, g._degree_counts(), s_lower)


def bound_report(g: Graph) -> BoundReport:
    """``lower_bound_s``, ``lower_bound_ms`` and ``modular_infinite`` of ``g``."""
    return BoundReport(s_lower=lower_bound_s(g), ms_lower=lower_bound_ms(g), ms_infinite=modular_infinite(g))
