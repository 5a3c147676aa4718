"""Golden digests of every text codec's output.

The digests were taken from the per-element writers that preceded the
whole-array ones, so any byte of drift in an edge list, a certificate, a
DOT rendering or a solve result fails here.
"""

import hashlib

import pytest

from irrstrength import (
    certificate_to_dot,
    certificate_to_json,
    format_edge_list,
    irregular_labeling,
    make_certificate,
    make_family,
    make_triangular_book,
    modular_labeling,
    solve,
)

FAMILIES = [("path", 2), ("path", 7), ("cycle", 3), ("cycle", 8), ("star", 5)]
BOOKS = range(1, 301)
SOLVED_BOOKS = range(1, 17)


def _graphs(pages):
    return [make_triangular_book(n) for n in pages] + [make_family(*f) for f in FAMILIES]


def _certificates():
    """Both closed-form certificates of each book, then a solved one per family."""
    for n in BOOKS:
        g = make_triangular_book(n)
        yield make_certificate(g, irregular_labeling(n), "irregular")
        f = modular_labeling(n)
        if f is not None:
            yield make_certificate(g, f, "modular")
    for f in FAMILIES:
        cert = solve(make_family(*f), "s").certificate
        if cert is not None:  # a single edge has no irregular assignment
            yield cert


def _digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("ascii"))
        h.update(b"\0")
    return h.hexdigest()


def edge_list_digest() -> str:
    return _digest(format_edge_list(g) for g in _graphs(BOOKS))


def certificate_json_digest() -> str:
    return _digest(certificate_to_json(c) for c in _certificates())


def certificate_dot_digest() -> str:
    return _digest(certificate_to_dot(c) for c in _certificates())


def solve_json_digest() -> str:
    return _digest(solve(g, mode).to_json() for g in _graphs(SOLVED_BOOKS) for mode in ("s", "ms"))


PINS = {
    "format_edge_list": (
        edge_list_digest,
        "153ccaf13c3e13dc6204b35ae80c52820895a34c1153ac9c0ce75fd4fedb09ae",
    ),
    "certificate_to_json": (
        certificate_json_digest,
        "815a4ba9e236fcfed20995b605f0589e3e8ef830d6b6427a7b373118ac81b0e1",
    ),
    "certificate_to_dot": (
        certificate_dot_digest,
        "68526677b4a6a1911562b395247940f119d1195de110369ac104e0abe23b11c4",
    ),
    "solve_to_json": (
        solve_json_digest,
        "54839aa1d88999d1607167aea04a4374125f570eff723c53cf5a22a67ca8c790",
    ),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_output_is_byte_identical(name):
    compute, pinned = PINS[name]
    assert compute() == pinned
