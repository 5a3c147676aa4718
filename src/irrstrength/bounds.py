"""Counting lower bounds and the residue-class infinity criterion.

The classical lower bound for the irregularity strength takes, over every
occurring degree i, the value ceil((n_i + i - 1) / i) where n_i is the
number of vertices of degree exactly i. A modular irregular labeling is
in particular an irregular assignment (distinct residues force distinct
weights), so the same value bounds the modular strength from below; for
orders congruent to 2 mod 4 no modular irregular labeling exists at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    deg = g.degrees()
    if g.order == 0:
        return False
    if (deg == 0).any():
        return True
    if g.size == 0:
        return False
    u = g.edges[:, 0]
    v = g.edges[:, 1]
    return bool(((deg[u] == 1) & (deg[v] == 1)).any())


def _require_no_small_component(g: Graph) -> None:
    if g.order == 0:
        raise ValueError("bound undefined for the empty graph")
    if has_small_component(g):
        raise ValueError("graph has a component of order <= 2; strength is infinite")


def lower_bound_s(g: Graph) -> int:
    """Counting lower bound for the irregularity strength."""
    _require_no_small_component(g)
    counts = np.bincount(g.degrees())
    i = np.nonzero(counts)[0]
    i = i[i > 0]
    terms = (counts[i] + 2 * i - 2) // i  # ceil((n_i + i - 1) / i)
    return int(terms.max())


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
