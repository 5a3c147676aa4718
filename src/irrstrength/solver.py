"""Exhaustive computation of exact strengths with certificates.

``solve`` deepens the largest label k from the degree-range counting
bound, below which no labeling exists. At each k, ``_search`` runs a
depth-first search over the one edge order that ``_search_plan`` builds,
and its first solution, in canonical edge order, is the certificate. The
search cuts a branch on five grounds, each documented where it is made:

- collision: a closed vertex's value, its weight mod ``_span``, is taken
  (``_search``);
- reach: an open vertex can reach no free value (``_search``);
- twins: lex-leader symmetry breaking for twins u, v with N(u) - {v} =
  N(v) - {u}, whose swap is an automorphism (``_least_label``, over the
  transpositions that ``_search_plan`` lists per step);
- nogoods: a table of the failed subtree states, Dechter 1990 (``_search``);
- Hall: the vertices not yet closed cannot all take distinct free values,
  Puget 1998 (``_hall``).

No cut removes the first solution in DFS order: a twin swap maps a valid
labeling to a valid one, so that solution is never lex-greater than its
image. Certificates are therefore those of the plain DFS.
``count_labelings`` is the independent counting oracle the search is
cross-checked against, with none of its cuts.
"""

from __future__ import annotations

import json
import reprlib
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

_COUNT_BUDGET = 2**21  # label extensions one count_labelings call may make
_FAILED_CAP = 1 << 18  # failed-subtree keys one search holds before it clears them


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


def _search_plan(g: Graph) -> tuple[tuple[tuple, ...], tuple[int, ...]]:
    """``_build_plan(g)``, built once per graph object and kept, as tuples, in its ``_plan`` slot."""
    if g._plan is None:
        g._plan = _build_plan(g)
    return g._plan


def _build_plan(g: Graph) -> tuple[tuple[tuple, ...], tuple[int, ...]]:
    """One step per edge, in the order the search assigns them, and the
    vertices in the order the steps first touch them.

    A step is (canonical edge index, u, v, closing, opened, twins, front,
    rests, t): the endpoints whose last unassigned edge this is, each other
    endpoint as (vertex, number of unassigned edges), a tuple of the twin
    transpositions with a cycle of steps ending here, each as all its
    cycles (p, q), p < q, sorted by p, the step's frontier: the vertices
    earlier steps touched and did not close, in first-touch order, their
    unassigned edges, this step's included, and the number of vertices
    earlier steps touched, so that the untouched ones are the suffix of the
    first-touch order from t. ``front``, ``rests`` and ``t`` are None on
    step 0 and on the steps j with min p < j <= max q for some
    transposition, whose subtree reads, through ``_least_label``, labels
    of steps before j; ``_search`` keys its failed-subtree table and runs
    its Hall check only on the other steps, which list no transposition.

    Each step takes the unassigned edge that closes the most vertices; ties
    go to the smallest sum of the endpoints' unassigned degrees, then to
    the lowest index. One int key per edge holds that rank, so ``min(keys)``
    picks the edge, and a step changes only the keys at its endpoints.
    """
    ends = g.edge_tuples()
    degrees = g.degrees().tolist()
    # keys[e] = (2 - closes) * base**2 + (sum of the unassigned degrees) * base + e, every
    # field below base; a step lowers by base the keys of the unassigned edges at its
    # endpoints, by base**2 more a vertex's last one, which now closes it, and puts its
    # own key above every live one
    base = max(g.size, 2 * max(degrees, default=0)) + 1
    square = base * base
    keys, live = [], [[] for _ in degrees]  # live: each vertex's unassigned edges
    for e, (u, v) in enumerate(ends):
        keys.append((2 - (degrees[u] == 1) - (degrees[v] == 1)) * square + (degrees[u] + degrees[v]) * base + e)
        live[u].append(e)
        live[v].append(e)
    at = [{} for _ in range(g.order)]  # at[u][w]: the step of edge {u, w}
    plan = []
    for j in range(g.size):
        e = min(keys) % base
        keys[e] = 3 * square
        u, v = ends[e]
        closing, opened = [], []
        for w in (u, v):
            rest = live[w]
            rest.remove(e)
            if rest:
                opened.append((w, len(rest)))
                drop = base if len(rest) > 1 else base + square  # its last edge now closes it
                for f in rest:
                    keys[f] -= drop
            else:
                closing.append(w)
        at[u][v] = at[v][u] = j
        plan.append((e, u, v, tuple(closing), tuple(opened), []))
    # difference array of the unkeyed steps: the spans (min p, max q] twins read across,
    # and step 0, whose key never repeats and whose Hall check, on the degrees alone, is
    # the counting bound that k starts at
    covered = [1, -1] + [0] * (len(plan) - 1)
    last = {}  # the latest vertex with each open (key >= 0) or closed neighbourhood
    for v in range(g.order):
        mask = sum(1 << w for w in at[v])  # v's neighbours as a bitmask
        for key in (mask, ~(mask | 1 << v)):
            u = last.get(key)
            last[key] = v
            if u is not None:
                pairs = [(p, at[v][w]) for w, p in at[u].items() if w != v]
                cycles = tuple(sorted([(p, q) if p < q else (q, p) for p, q in pairs]))
                top = -1  # the last step of a cycle, none for twins with no neighbour but each other
                for _, q in cycles:
                    plan[q][5].append(cycles)
                    if q > top:
                        top = q
                if top >= 0:
                    covered[cycles[0][0] + 1] += 1
                    covered[top + 1] -= 1
    depth = 0
    first = {}  # the vertices earlier steps touched, in first-touch order
    touched = {}  # those of them not closed, each with its unassigned edges
    for j, (e, u, v, closing, opened, twins) in enumerate(plan):
        depth += covered[j]
        if depth:
            plan[j] = (e, u, v, closing, opened, tuple(twins), None, None, None)
        else:
            plan[j] = (e, u, v, closing, opened, tuple(twins), tuple(touched), tuple(touched.values()), len(first))
        first[u] = first[v] = None
        touched.update(opened)
        for w in closing:
            touched.pop(w, None)
    return tuple(plan), tuple(first)


def _least_label(twins, labels, i: int) -> int:
    """The least label step i may take: a smaller one makes ``labels[:i + 1]``
    lex-greater than its image under a transposition in ``twins``."""
    least = 1
    for cycles in twins:
        bound = 0
        for p, q in cycles:
            if q > i:
                break
            if q == i:  # labels[i] >= labels[p]; if equal, the later cycles decide
                bound = labels[p]
            elif labels[p] != labels[q]:
                bound += labels[p] > labels[q]
                break
        least = max(least, bound)
    return least


def _hall(degrees, touch, k: int, span: int, wrap: int):
    """The interval Hall check of ``_search`` at label range 1..k, as a
    function of a keyed step's state: ``matched(front, rests, weights, t,
    taken)`` tells whether every vertex not yet closed can still end at its
    own value that no bit of ``taken`` holds.

    A front vertex, with weight w and r unassigned edges, can end only in
    the run [w + r, w + r*k], an untouched one (``touch[t:]``) in
    [degree, degree*k], both mod ``span``. Each run is unrolled from its
    first value, bits at or past ``span`` standing for the values ``wrap``
    below them, so an ``ms`` arc that wraps past the order is one interval
    on the doubled residue line. A run of ``order`` (the length of
    ``degrees``) or more values is dropped: with at most ``order`` - 1
    values taken or held by the other runs, it always keeps one. The runs
    are served by their last value, each the least free value at or above
    its first; the check fails when that is past the run's last value
    (Glover's greedy, which finds a matching of unit jobs to intervals
    whenever one exists). In ``ms`` the doubled line is a relaxation: a
    value and its partner ``wrap`` above are not both cleared, so a
    failure still proves that no labeling completes the state.
    """
    order = len(degrees)
    # ends[r]: a run's last value minus its first for r unassigned edges, -1 if it is dropped
    ends = [r * (k - 1) if r * (k - 1) < order - 1 else -1 for r in range(order)]
    tails = {}  # t: the untouched vertices' runs, sorted

    def matched(front, rests, weights, t: int, taken: int) -> bool:
        runs = tails.get(t)
        if runs is None:  # an untouched vertex's run starts at its degree, below the span
            runs = tails[t] = sorted((d + ends[d], d) for d in map(degrees.__getitem__, touch[t:]) if ends[d] >= 0)
        runs = runs.copy()
        for w, r in zip(front, rests):
            if ends[r] >= 0:
                lo = (weights[w] + r) % span
                runs.append((lo + ends[r], lo))
        runs.sort()
        free = ~(taken | taken << wrap)
        for hi, lo in runs:
            rest = free >> lo
            pos = lo + (rest & -rest).bit_length() - 1
            if pos > hi:
                return False
            free ^= 1 << pos
        return True

    return matched


def _span(g: Graph, mode: str, k: int) -> int:
    """Values are weights mod this: the order in ``ms``; in ``s`` k * max degree + 1, past every weight."""
    return g.order if mode == MODE_MS else k * int(g.degrees().max()) + 1


def _search(plan, touch, degrees, k: int, span: int, wrap: int):
    """Depth-first search over ``plan`` with labels in 1..k, as one loop over the steps.

    Returns (canonical labels of the first solution or None, nodes).
    ``labels[i]`` is the label step i holds, 0 for none: a visit takes it
    back from both endpoints' weights and tries the next, or, entered
    afresh, ``_least_label`` of the step's ``twins``; a step out of labels
    resets to 0 and the search returns to step i - 1. A closed vertex's
    value, its weight mod ``span`` (``_span``), must differ from every
    other's; ``finals[i]`` is the one int bitmask of the values of the
    vertices closed before step i. An endpoint in a step's ``opened`` with
    weight w and r unassigned edges can still reach only [w + r, w + r*k]
    (mod ``span``), of which the first ``order`` values are checked; a
    label that leaves every checked value taken is cut. A run that wraps
    past the span is matched against the taken bits shifted by ``wrap``
    too: ``span`` in ``ms``, 0 in ``s``, where every run ends below k * max
    degree + 1 = span.

    Below a step with a ``front``, the search depends only on i,
    ``finals[i]`` and the front's weights mod ``span``, packed into one int
    key. A keyed step entered afresh with a key in ``failed`` returns to
    step i - 1 at once and counts no node; with any other key it adds it
    to ``failed`` and runs the Hall check (``_hall``) on the vertices not
    yet closed, the front and the untouched ``touch[t:]``, which reads only
    that key's parts too: when their runs cannot take distinct free values,
    the step fails as one out of labels, again without a node. A solution
    ends the search, so a key matched later is a failed subtree's. Only
    subtrees without a solution are skipped, in unchanged DFS order, so the
    first solution is the same. ``failed`` is cleared at ``_FAILED_CAP`` keys.
    """
    size = len(plan)
    order = len(degrees)
    matched = _hall(degrees, touch, k, span, wrap)
    labels = [0] * size  # in plan order
    finals = [0] * (size + 1)
    failed = set()
    weights = [0] * order
    # runs[r]: the r*(k - 1) + 1 values a vertex with r open edges can reach, as
    # a run of bits from bit 0, at most ``order`` of them: an open vertex holds no
    # value, so at most order - 1 are taken and any ``order`` in a row hold a free one
    runs = [(1 << min(r * (k - 1) + 1, order)) - 1 for r in range(order)]
    nodes = 0
    i = 0
    while 0 <= i < size:
        _, u, v, closing, opened, twins, front, rests, t = plan[i]
        lab = labels[i]
        if lab:
            weights[u] -= lab
            weights[v] -= lab
            lab += 1
        elif front is None:
            lab = _least_label(twins, labels, i) if twins else 1
        else:
            key = finals[i]
            for w in front:
                key = key * span + weights[w] % span
            key = key * size + i
            if key in failed:
                i -= 1
                continue
            if len(failed) >= _FAILED_CAP:
                failed.clear()
            # a solution below ends the search, and a key ends in i, a step not re-entered
            # while its subtree runs: every key a lookup matches is a failed subtree's
            failed.add(key)
            # a state with no matching fails as a step out of labels would
            lab = 1 if matched(front, rests, weights, t, finals[i]) else k + 1
        if lab > k:
            labels[i] = 0
            i -= 1
            continue
        nodes += 1
        labels[i] = lab
        weights[u] += lab
        weights[v] += lab
        taken = finals[i]
        for w in closing:
            bit = 1 << weights[w] % span
            if taken & bit:
                break
            taken |= bit
        else:
            free = ~(taken | taken << wrap)
            for w, r in opened:
                if not runs[r] << (weights[w] + r) % span & free:
                    break
            else:
                i += 1
                finals[i] = taken
    if i < 0:
        return None, nodes
    canonical = np.empty(size, dtype=np.int64)
    canonical[[step[0] for step in plan]] = labels
    return canonical, nodes


def solve(g: Graph, mode: str, cfg: SolverConfig | None = None) -> StrengthResult:
    """Exact strength of ``g`` in the requested mode, with a certificate.

    ``bounds`` judges graphs without a strength: s is infinite if ``has_small_component``,
    ms if ``modular_infinite`` (order 2 mod 4), and ``lower_bound_s`` raises ValueError
    for the empty graph and, in ms, for a component of order <= 2, where ms is undefined.
    Modular mode claims infinity on no other ground: exhausting the ceiling yields unknown.
    """
    if mode not in (MODE_S, MODE_MS):
        raise ValueError(f"mode must be '{MODE_S}' or '{MODE_MS}', got {reprlib.repr(mode)}")
    cfg = cfg or SolverConfig()
    start = time.monotonic()

    if modular_infinite(g) if mode == MODE_MS else has_small_component(g):
        return StrengthResult(mode=mode, outcome=INFINITE, elapsed=time.monotonic() - start)

    lb = lower_bound_s(g)
    k_max = cfg.k_max if cfg.k_max is not None else 2 * g.order + 2
    if k_max < lb:
        raise ValueError(f"k_max={k_max} is below the lower bound {lb}")

    plan, touch = _search_plan(g)
    degrees = g.degrees().tolist()
    nodes = 0
    for k in range(lb, k_max + 1):
        span = _span(g, mode, k)
        best, searched = _search(plan, touch, degrees, k, span, span if mode == MODE_MS else 0)
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
    """Number of valid labelings with labels in 1..k, by dynamic programming over the edges.

    It shares only the edge order of ``_search_plan`` and the value rule
    ``_span`` with the search, and prunes nothing, so it is an exact and
    independent oracle. After each edge, a state maps to the number of
    partial labelings that reach it: the values of closed vertices, as the
    bits of ``taken``, and the weights mod span of the front, the vertices
    touched and not closed (the state of frontier-based search, Kawahara,
    Inoue, Iwashita and Minato 2017). A state is one int: each front
    vertex's weight in a field of ``span.bit_length()`` bits, reused once
    the vertex closes, and ``taken`` above every field. An edge extends
    every state by each label 1..k; an endpoint closes at its last edge, on
    a value no bit of ``taken`` holds. A degree-0 vertex holds value 0.

    ``k`` must be an integer (numpy integers too, ``bool`` not) and at
    least 1. More than ``_COUNT_BUDGET`` label extensions (states times k,
    summed over the edges) raise ``ValueError``, which bounds the DP's time
    and states; the plan, built on a graph's first solve or count, costs O(m^2) time with no budget.
    """
    if mode not in (MODE_S, MODE_MS):
        raise ValueError(f"mode must be '{MODE_S}' or '{MODE_MS}', got {reprlib.repr(mode)}")
    k = _integer(k, "k", 1)
    if g.size == 0:
        raise ValueError("graph has no edges")
    span = _span(g, mode, k)
    if k == 1:  # the one labeling, whose weights are the degrees
        return int(np.unique(g.degrees() % span).size == g.order)
    remaining = g.degrees().tolist()  # each vertex's edges not yet counted over
    isolated = remaining.count(0)
    if isolated > 1:
        return 0
    bits = span.bit_length()
    field = (1 << bits) - 1
    slots, free, steps = {}, [], []  # slots: each open vertex's field, as its shift
    for _, u, v, *_ in _search_plan(g)[0]:
        su, sv = slots.get(u, 0), slots.get(v, 0)
        mu, mv = (field << slots[w] if w in slots else 0 for w in (u, v))  # 0: untouched, of weight 0
        for w in (u, v):
            remaining[w] -= 1
            if not remaining[w] and w in slots:
                free.append(slots.pop(w))
            elif remaining[w] and w not in slots:
                slots[w] = free.pop() if free else len(slots) * bits
        steps.append((su, mu, sv, mv, slots.get(u), slots.get(v)))  # None: the endpoint closes
    one = 1 << (len(slots) + len(free)) * bits  # bit 0 of taken
    states = {isolated * one: 1}  # a degree-0 vertex takes value 0
    extensions = 0
    for su, mu, sv, mv, pu, pv in steps:
        extensions += len(states) * k
        if extensions > _COUNT_BUDGET:
            raise ValueError(f"instance too large to count: over {_COUNT_BUDGET} label extensions")
        extended = {}
        for s, count in states.items():
            fu, fv = s & mu, s & mv
            a, b, rest = fu >> su, fv >> sv, s - fu - fv
            if pu is None and pv is None and a == b:  # x - y = a - b mod span: one value for both, every label
                continue
            for lab in range(1, k + 1):
                x = (a + lab) % span
                y = (b + lab) % span
                # an endpoint that closes sets the bit of its value in taken, if free; an open one, its field
                if pu is None and s & (bit := one << x):
                    continue
                key = rest | (bit if pu is None else x << pu)
                if pv is None and s & (bit := one << y):
                    continue
                key |= bit if pv is None else y << pv
                extended[key] = extended.get(key, 0) + count
        states = extended
    return sum(states.values())
