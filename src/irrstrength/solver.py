"""Exhaustive computation of exact strengths with certificates.

Search runs iterative deepening on the max label k, starting from the
counting lower bound. Each ``solve`` call builds one search plan and
reuses it at every k: a greedy edge order that always takes next the edge
closing the most vertices, so that vertices become final early, with the
vertices each edge closes. A vertex whose incident edges are all assigned
is final, and its weight (residue, in modular mode) must differ from every
other final vertex, otherwise the branch is cut. The first full assignment
in search-order DFS is mapped back to canonical edge order and returned,
so the minimal feasible k yields a deterministic certificate.
``count_labelings`` is an independent full-enumeration oracle with no
pruning, no search order and no theory; it exists to cross-check the
search. It checks every one of the k**size assignments in numpy batches:
the weight rows of all labelings of the first few edges form one block,
built once per call, and each labeling of the other edges is added to the
whole block by broadcasting. A budget of ``_COUNT_BUDGET`` assignments
(a few seconds) bounds every call.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass

import numpy as np

from .bounds import has_small_component, lower_bound_s, modular_infinite
from .graphs import Graph, _integer
from .labelings import (
    IRREGULAR,
    MODULAR,
    Certificate,
    EdgeLabeling,
    certificate_to_json,
    make_certificate,
    verify_profile,
)

MODE_S = "s"
MODE_MS = "ms"

FINITE = "finite"
INFINITE = "infinite"
UNKNOWN = "unknown"

_COUNT_BUDGET = 2**24  # assignments one count_labelings call may check
_COUNT_BLOCK = 1 << 15  # assignments checked per numpy batch


@dataclass
class SolverConfig:
    k_max: int | None = None  # None: 2 * order + 2

    def __post_init__(self) -> None:
        if self.k_max is not None:
            self.k_max = _integer(self.k_max, "k_max", 1)


@dataclass(eq=False)
class StrengthResult:
    mode: str
    outcome: str
    k: int | None = None
    k_max: int | None = None
    certificate: Certificate | None = None
    nodes: int = 0
    elapsed: float = 0.0

    def to_json(self) -> str:
        doc: dict = {"mode": self.mode, "outcome": self.outcome}
        if self.outcome == FINITE:
            doc["k"] = self.k
        elif self.outcome == UNKNOWN:
            doc["kMax"] = self.k_max
        text = json.dumps(doc, separators=(",", ":"))
        if self.outcome == FINITE:
            return text[:-1] + ',"certificate":' + certificate_to_json(self.certificate) + "}"
        return text


def _search_plan(g: Graph) -> list[tuple[int, int, int, tuple[int, ...]]]:
    """One step per edge, in the order the search assigns them.

    A step is (canonical edge index, u, v, vertices this edge closes); a
    vertex is closed by the step that assigns its last unassigned edge.
    Each step takes the unassigned edge that closes the most vertices; ties
    go to the smallest sum of the endpoints' unassigned degrees, then to
    the lowest index.
    """
    ends = g.edge_tuples()
    remaining = [0] * g.order
    for u, v in ends:
        remaining[u] += 1
        remaining[v] += 1

    def rank(e: int) -> tuple[int, int, int]:
        u, v = ends[e]
        closes = (remaining[u] == 1) + (remaining[v] == 1)
        return -closes, remaining[u] + remaining[v], e

    unassigned = set(range(g.size))
    plan = []
    while unassigned:
        e = min(unassigned, key=rank)
        unassigned.remove(e)
        u, v = ends[e]
        remaining[u] -= 1
        remaining[v] -= 1
        plan.append((e, u, v, tuple(w for w in (u, v) if remaining[w] == 0)))
    return plan


def _search(plan, order: int, k: int, modulus: int):
    """Depth-first search over ``plan`` with labels in 1..k.

    Returns (canonical labels of the first solution or None, nodes). A
    closed vertex's weight, reduced mod ``modulus`` when it is nonzero, must
    differ from every other closed vertex's.
    """
    size = len(plan)
    labels = [0] * size  # in plan order
    weights = [0] * order
    finals: set[int] = set()
    nodes = 0
    sys.setrecursionlimit(max(sys.getrecursionlimit(), size + 100))

    def descend(i: int) -> bool:
        nonlocal nodes
        if i == size:
            return True
        _, u, v, closing = plan[i]
        for lab in range(1, k + 1):
            nodes += 1
            labels[i] = lab
            weights[u] += lab
            weights[v] += lab
            added = []
            dead = False
            for w in closing:
                val = weights[w] % modulus if modulus else weights[w]
                if val in finals:
                    dead = True
                    break
                finals.add(val)
                added.append(val)
            if not dead and descend(i + 1):
                return True
            for val in added:
                finals.remove(val)
            weights[u] -= lab
            weights[v] -= lab
        return False

    if not descend(0):
        return None, nodes
    # a solution returns before its labels are undone
    canonical = [0] * size
    for step, lab in zip(plan, labels):
        canonical[step[0]] = lab
    return canonical, nodes


def solve(g: Graph, mode: str, cfg: SolverConfig | None = None) -> StrengthResult:
    """Exact strength of ``g`` in the requested mode, with a certificate.

    Modular mode reports infinite immediately for orders 2 mod 4 and never
    claims infinity on any other ground; exhausting the ceiling yields an
    unknown outcome instead.
    """
    if mode not in (MODE_S, MODE_MS):
        raise ValueError(f"mode must be '{MODE_S}' or '{MODE_MS}', got {mode!r}")
    if g.order == 0:
        raise ValueError("cannot solve the empty graph")
    cfg = cfg or SolverConfig()
    start = time.monotonic()

    if mode == MODE_S and has_small_component(g):
        return StrengthResult(mode=mode, outcome=INFINITE, elapsed=time.monotonic() - start)
    if mode == MODE_MS:
        if modular_infinite(g):
            return StrengthResult(mode=mode, outcome=INFINITE, elapsed=time.monotonic() - start)
        if has_small_component(g):
            raise ValueError(
                "modular strength undefined for graphs with a component of order <= 2"
            )

    lb = lower_bound_s(g)
    k_max = cfg.k_max if cfg.k_max is not None else 2 * g.order + 2
    if k_max < lb:
        raise ValueError(f"k_max={k_max} is below the lower bound {lb}")

    plan = _search_plan(g)
    modulus = g.order if mode == MODE_MS else 0
    nodes = 0
    for k in range(lb, k_max + 1):
        best, searched = _search(plan, g.order, k, modulus)
        nodes += searched
        if best is not None:
            cert = make_certificate(g, EdgeLabeling(best), MODULAR if mode == MODE_MS else IRREGULAR)
            verdict = verify_profile(cert.profile, cert.mode)
            if not verdict.ok:  # search invariant, not an input error
                raise AssertionError(f"solver produced an invalid certificate: {verdict}")
            return StrengthResult(
                mode=mode,
                outcome=FINITE,
                k=k,
                certificate=cert,
                nodes=nodes,
                elapsed=time.monotonic() - start,
            )
    return StrengthResult(
        mode=mode,
        outcome=UNKNOWN,
        k_max=k_max,
        nodes=nodes,
        elapsed=time.monotonic() - start,
    )


def count_labelings(g: Graph, mode: str, k: int) -> int:
    """Number of valid labelings with labels in 1..k, by full enumeration.

    Every one of the k**size assignments is generated and checked; there
    is no pruning, which is the point: this is the independent oracle the
    searching solver is compared against. The first b edges, b the most
    with k**b <= ``_COUNT_BLOCK``, give a block of k**b weight rows, built
    once. The labelings of the other edges come in chunks of about
    ``_COUNT_BLOCK / k**b``; each adds its own weight row to the whole
    block, so a batch has at most about ``_COUNT_BLOCK`` rows for any k.
    A row is valid when its weights are pairwise distinct (``s``) or its
    residues mod the order are (``ms``).

    ``k`` must be an integer (numpy integers too, ``bool`` not) and at
    least 1. A call over more than ``_COUNT_BUDGET`` assignments raises
    ``ValueError`` instead of running.
    """
    if mode not in (MODE_S, MODE_MS):
        raise ValueError(f"mode must be '{MODE_S}' or '{MODE_MS}', got {mode!r}")
    k = _integer(k, "k", 1)
    if g.size == 0:
        raise ValueError("graph has no edges")
    if k ** g.size > _COUNT_BUDGET:
        raise ValueError(
            f"instance too large to enumerate: {k}**{g.size} assignments exceed the budget of {_COUNT_BUDGET}"
        )
    # a weight is at most size * k: int32 holds it, as the budget keeps it
    # below 2**24 for k >= 2
    incidence = np.zeros((g.size, g.order), dtype=np.int32)
    rows = np.arange(g.size)
    incidence[rows, g.edges[:, 0]] = 1
    incidence[rows, g.edges[:, 1]] = 1

    b = 0
    while b < g.size and k ** (b + 1) <= _COUNT_BLOCK:
        b += 1
    block = np.zeros((1, g.order), dtype=np.int32)
    labels = np.arange(1, min(k, _COUNT_BLOCK) + 1, dtype=np.int32)  # all of 1..k when b > 0
    for row in incidence[:b]:
        block = (labels[:, None, None] * row + block).reshape(-1, g.order)
    rest = k ** (g.size - b)
    place = k ** np.arange(g.size - b, dtype=np.int32)
    chunk = max(1, _COUNT_BLOCK // len(block))
    expected = np.arange(g.order)
    total = 0
    for start in range(0, rest, chunk):
        index = np.arange(start, min(start + chunk, rest), dtype=np.int32)
        extra = (index[:, None] // place % k + 1) @ incidence[b:]
        weights = (extra[:, None] + block).reshape(-1, g.order)
        if mode == MODE_MS:
            candidates = np.sort(weights % g.order, axis=1)
            total += int((candidates == expected).all(axis=1).sum())
        else:
            ordered = np.sort(weights, axis=1)
            total += int((np.diff(ordered, axis=1) != 0).all(axis=1).sum())
    return total
