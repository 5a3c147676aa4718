import random

from irrstrength import EdgeLabeling, Graph
from irrstrength.bounds import has_small_component


def random_graph(rng: random.Random, min_order=3, max_order=8, p=0.5) -> Graph:
    """Random simple graph with at least one edge."""
    while True:
        order = rng.randint(min_order, max_order)
        edges = [
            (u, v)
            for u in range(order)
            for v in range(u + 1, order)
            if rng.random() < p
        ]
        if edges:
            return Graph(order, edges)


def random_solid_graph(rng: random.Random, min_order=3, max_order=8, p=0.5) -> Graph:
    """Random graph with no component of order <= 2 (rejection sampled)."""
    while True:
        g = random_graph(rng, min_order, max_order, p)
        if not has_small_component(g):
            return g


def make_family(kind: str, size: int) -> Graph:
    """Path or cycle on ``size`` vertices, or star with ``size`` leaves (order size + 1)."""
    if kind == "path":
        return Graph(size, [(i, i + 1) for i in range(size - 1)])
    if kind == "cycle":
        return Graph(size, [(i, (i + 1) % size) for i in range(size)])
    if kind == "star":
        return Graph(size + 1, [(0, i) for i in range(1, size + 1)])
    raise ValueError(f"unknown family {kind!r}")


def random_labeling(rng: random.Random, g: Graph, k_max=5) -> EdgeLabeling:
    return EdgeLabeling([rng.randint(1, k_max) for _ in range(g.size)])
