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
    make_triangular_book,
    modular_labeling,
    solve,
)

from conftest import make_family

FAMILIES = [("path", 2), ("path", 7), ("cycle", 3), ("cycle", 8), ("star", 5)]
BOOKS = range(1, 301)
SOLVED_BOOKS = range(1, 17)


def _graphs(pages):
    return [make_triangular_book(n) for n in pages] + [make_family(*f) for f in FAMILIES]


def _book_certificates(n):
    """The Theorem 1 certificate of B_n, then the Theorem 2 one where it exists."""
    g = make_triangular_book(n)
    yield make_certificate(g, irregular_labeling(n), "irregular")
    f = modular_labeling(n)
    if f is not None:
        yield make_certificate(g, f, "modular")


def _certificates():
    """Both closed-form certificates of each book, then a solved one per family."""
    for n in BOOKS:
        yield from _book_certificates(n)
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


# The books of BOOKS write no number past 5 digits. B_9999 first writes vertex id 10^4,
# B_19998 the first 9-digit weight (exactly 10^8), and B_100000 is the
# largest book the benchmark runs. Each tuple is the digest of the edge
# list, then of the JSON and of the DOT text of every certificate of the book.
LARGE_BOOKS = {
    9999: (
        "d3932725dd9bdbd346d88401eb2db38fda77bdb289146d11b908b877474834ec",
        "fd47633516cc0f8264377693cfd3c6a64eafb0cfdc916e1cc3cb639439b8c581",
        "7dce16f6be4673bcf511c83aabfbe5fc6c8ce9fe714152491bdafbc1a5c489db",
    ),
    19998: (
        "e7619e66b0c8358d6e01656e542bacabad0a33505e9d8057345e4b9db029a53c",
        "dd235cf8c19de3db04d70be074faf1debfd0fd0754f112aa65e72522ec18f05e",
        "fad72f68debee2b770ff3a904b0efe627e02efd94efc1ad207eda75c19686847",
    ),
    100000: (
        "d5145438727a3501e076093c9e4850e03592448933d93ff66ba310e95b5601d7",
        "837fc4550135c6f5fa60ec8f26d27be4a936bc553e6ff17f8988fb442652078d",
        "d131b9a9c8daad704665fab79fa11273d7e900f4350511b1ac6dd8431555e225",
    ),
}


@pytest.mark.parametrize("n", sorted(LARGE_BOOKS))
def test_large_book_output_is_byte_identical(n):
    certificates = list(_book_certificates(n))
    digests = (
        _digest([format_edge_list(make_triangular_book(n))]),
        _digest(map(certificate_to_json, certificates)),
        _digest(map(certificate_to_dot, certificates)),
    )
    assert digests == LARGE_BOOKS[n]
