"""Exhaustive computation of exact strengths with certificates.

Search runs iterative deepening on the max label k, starting from the
counting lower bound. At each k a depth-first scan assigns edges in a
search order fixed once per ``solve`` call: a greedy permutation that
always takes next the edge closing the most vertices, so that vertices
become final early. A vertex whose incident edges are all assigned is
final, and its weight (residue, in modular mode) must differ from every
other final vertex, otherwise the branch is cut. The first full assignment
in search-order DFS is mapped back to canonical edge order and returned,
so the minimal feasible k yields a deterministic certificate.
``count_labelings`` is an independent full-enumeration oracle with no
pruning at all; it exists to cross-check the search, not to be fast.

Multi-worker runs fan the label choices of the first edge in search order
out to a thread pool; each worker is an independent sequential DFS over
its subtree and results are reduced in first-edge-label order, which
reproduces the single-threaded certificate bit for bit. A worker aborts
early only when a strictly smaller first label has already succeeded,
which cannot change the reduced result.
"""

from __future__ import annotations

import json
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import islice, product

import numpy as np

from .bounds import has_small_component, lower_bound_s, modular_infinite
from .graphs import Graph
from .labelings import (
    IRREGULAR,
    MODULAR,
    Certificate,
    EdgeLabeling,
    certificate_to_json,
    make_certificate,
    verify_irregular,
    verify_modular,
)

MODE_S = "s"
MODE_MS = "ms"

FINITE = "finite"
INFINITE = "infinite"
UNKNOWN = "unknown"

_COUNT_GUARD_BITS = 40.0


@dataclass
class SolverConfig:
    k_max: int | None = None  # None: 2 * order + 2
    thread_count: int = 1
    count_solutions: bool = False

    def __post_init__(self) -> None:
        if self.k_max is not None and self.k_max < 1:
            raise ValueError("k_max must be >= 1")
        if self.thread_count < 1:
            raise ValueError("thread_count must be >= 1")


@dataclass(eq=False)
class StrengthResult:
    mode: str
    outcome: str
    k: int | None = None
    k_max: int | None = None
    certificate: Certificate | None = None
    solution_count: int | None = None
    nodes: int = 0
    elapsed: float = 0.0

    def to_json(self) -> str:
        doc: dict = {"mode": self.mode, "outcome": self.outcome}
        if self.outcome == FINITE:
            doc["k"] = self.k
            doc["certificate"] = json.loads(certificate_to_json(self.certificate))
        elif self.outcome == UNKNOWN:
            doc["kMax"] = self.k_max
        if self.solution_count is not None:
            doc["solutionCount"] = self.solution_count
        return json.dumps(doc, separators=(",", ":"))


def _search_order(g: Graph) -> list[int]:
    """Canonical edge indices in the order the search assigns them.

    Each step takes the unassigned edge that closes the most vertices (is
    the last unassigned edge at either endpoint); ties go to the smallest
    sum of the endpoints' unassigned degrees, then to the lowest index.
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
    order = []
    while unassigned:
        e = min(unassigned, key=rank)
        unassigned.remove(e)
        order.append(e)
        u, v = ends[e]
        remaining[u] -= 1
        remaining[v] -= 1
    return order


class _Search:
    """Sequential DFS at a fixed k over one graph; reusable across workers.

    Position i of the search assigns canonical edge ``perm[i]``; labels are
    kept in search order and mapped back by ``run``.
    """

    def __init__(self, g: Graph, mode: str, k: int, perm: list[int]):
        self.k = k
        self.order = g.order
        self.size = g.size
        self.perm = perm
        edges = g.edge_tuples()
        self.ends = [edges[e] for e in perm]
        # closing[i] = vertices whose last incident edge in search order is at i
        last = {}
        for i, (u, v) in enumerate(self.ends):
            last[u] = i
            last[v] = i
        self.closing: list[list[int]] = [[] for _ in range(g.size)]
        for v, i in last.items():
            self.closing[i].append(v)
        self.modulus = g.order if mode == MODE_MS else 0
        self.nodes = 0

    def run(self, first_label: int | None = None, count_all: bool = False, abort=None):
        """Returns (canonical labels of the first solution or None, solution count)."""
        labels = [0] * self.size
        weights = [0] * self.order
        finals: set[int] = set()
        best: list[int] | None = None
        count = 0
        mod = self.modulus
        sys.setrecursionlimit(max(sys.getrecursionlimit(), self.size + 100))

        def descend(e: int) -> bool:
            nonlocal best, count
            if e == self.size:
                count += 1
                if best is None:
                    best = labels.copy()
                return not count_all
            u, v = self.ends[e]
            closing = self.closing[e]
            if e == 0 and first_label is not None:
                lo = hi = first_label
            else:
                lo, hi = 1, self.k
            for lab in range(lo, hi + 1):
                self.nodes += 1
                labels[e] = lab
                weights[u] += lab
                weights[v] += lab
                added = []
                dead = False
                for w in closing:
                    val = weights[w] % mod if mod else weights[w]
                    if val in finals:
                        dead = True
                        break
                    finals.add(val)
                    added.append(val)
                if not dead and descend(e + 1):
                    return True
                for val in added:
                    finals.remove(val)
                weights[u] -= lab
                weights[v] -= lab
            if abort is not None and abort():
                return True
            return False

        descend(0)
        if best is None:
            return None, count
        canonical = [0] * self.size
        for i, e in enumerate(self.perm):
            canonical[e] = best[i]
        return canonical, count


def _search_at_k(g: Graph, mode: str, k: int, cfg: SolverConfig, perm: list[int]):
    """(solution labels or None, count or None, nodes) at one fixed k."""
    counting = cfg.count_solutions
    if cfg.thread_count == 1 or g.size == 0 or k == 1:
        search = _Search(g, mode, k, perm)
        if counting:
            best, count = search.run(count_all=True)
            return best, count, search.nodes
        best, _ = search.run()
        return best, None, search.nodes

    found_at: list[int] = [k + 1]  # smallest first label with a solution

    def worker(first: int):
        search = _Search(g, mode, k, perm)
        abort = None if counting else (lambda: found_at[0] < first)
        best, count = search.run(first_label=first, count_all=counting, abort=abort)
        if best is not None and first < found_at[0]:
            found_at[0] = first  # GIL-atomic publication; monotone, so races are benign
        return best, count, search.nodes

    with ThreadPoolExecutor(max_workers=cfg.thread_count) as pool:
        results = list(pool.map(worker, range(1, k + 1)))

    nodes = sum(r[2] for r in results)
    if counting:
        total = sum(r[1] for r in results)
        best = next((r[0] for r in results if r[0] is not None), None)
        return best, total, nodes
    best = next((r[0] for r in results if r[0] is not None), None)
    return best, None, nodes


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

    perm = _search_order(g)
    nodes = 0
    for k in range(lb, k_max + 1):
        best, count, k_nodes = _search_at_k(g, mode, k, cfg, perm)
        nodes += k_nodes
        if best is not None:
            labeling = EdgeLabeling(best)
            cert_mode = MODULAR if mode == MODE_MS else IRREGULAR
            cert = make_certificate(g, labeling, cert_mode)
            verdict = (
                verify_modular(g, labeling) if mode == MODE_MS else verify_irregular(g, labeling)
            )
            if not verdict.ok:  # search invariant, not an input error
                raise AssertionError(f"solver produced an invalid certificate: {verdict}")
            return StrengthResult(
                mode=mode,
                outcome=FINITE,
                k=k,
                certificate=cert,
                solution_count=count,
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


def count_labelings(g: Graph, mode: str, k: int, block: int = 1 << 15) -> int:
    """Number of valid labelings with labels in 1..k, by full enumeration.

    Every one of the k**size assignments is generated and checked; there
    is no pruning, which is the point: this is the independent oracle the
    searching solver is compared against. Guarded to desk scale.
    """
    if mode not in (MODE_S, MODE_MS):
        raise ValueError(f"mode must be '{MODE_S}' or '{MODE_MS}', got {mode!r}")
    if k < 1:
        raise ValueError("k must be >= 1")
    if g.size == 0:
        raise ValueError("graph has no edges")
    if g.size * math.log2(k) > _COUNT_GUARD_BITS:
        raise ValueError(
            f"instance too large to enumerate: size*log2(k) = {g.size * math.log2(k):.1f} > {_COUNT_GUARD_BITS}"
        )
    incidence = np.zeros((g.size, g.order), dtype=np.int64)
    rows = np.arange(g.size)
    incidence[rows, g.edges[:, 0]] = 1
    incidence[rows, g.edges[:, 1]] = 1

    expected = np.arange(g.order)
    total = 0
    assignments = product(range(1, k + 1), repeat=g.size)
    while True:
        chunk = list(islice(assignments, block))
        if not chunk:
            break
        labels = np.asarray(chunk, dtype=np.int64)
        weights = labels @ incidence
        if mode == MODE_MS:
            candidates = np.sort(weights % g.order, axis=1)
            total += int((candidates == expected).all(axis=1).sum())
        else:
            ordered = np.sort(weights, axis=1)
            total += int((np.diff(ordered, axis=1) != 0).all(axis=1).sum())
    return total
