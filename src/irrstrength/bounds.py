"""Counting lower bounds and the residue-class infinity criterion.

The classical lower bound for the irregularity strength (Chartrand et al.,
"Irregular networks", 1988) takes, over every pair of occurring degrees
i <= j, the value ceil((n_i + ... + n_j + i - 1) / j) where n_d is the
number of vertices of degree exactly d: under labels in 1..k, the vertices
with degree in [i, j] need distinct weights in [i, k * j]. It reads the
pairs (d, n_d) from the graph's degree histogram, computed once per graph
and stated in closed form by ``make_triangular_book``. A modular
irregular labeling is in particular an irregular assignment (distinct
residues force distinct weights), so the same value bounds the modular
strength from below; for orders congruent to 2 mod 4 no modular irregular
labeling exists at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graphs import Graph


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


def bound_report(g: Graph) -> BoundReport:
    infinite = modular_infinite(g)
    s_lower = lower_bound_s(g)
    return BoundReport(
        s_lower=s_lower,
        ms_lower=math.inf if infinite else s_lower,
        ms_infinite=infinite,
    )
