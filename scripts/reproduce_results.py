#!/usr/bin/env python3
"""Reproduce the headline results end to end.

1. Strength table for triangular books, closed form vs. exhaustive solver.
2. The five-page impossibility: an exact count of the modular labelings
   among all 3^11 at k = 3, by dynamic programming over the edges
   (``count_labelings``), finds none, so the solver's k = 4 is minimal.
3. Construction soundness sweep: both closed-form labelings verified and
   compared against their predicted weight profiles for every n up to a
   configurable ceiling.

Usage:
    python scripts/reproduce_results.py [--table-to N] [--solve-upto N] [--sweep-to N]
"""

import argparse
import sys
import time

from irrstrength import (
    count_labelings,
    make_certificate,
    make_triangular_book,
    solve,
    verify_profile,
)
from irrstrength.books import (
    irregular_labeling,
    irregular_strength,
    modular_labeling,
    modular_strength,
    predicted_weights,
)
from irrstrength.cli import run


def check(ok: bool, what: str, n: int) -> None:
    """Exit 1 with one line naming the check and n unless ``ok``; unlike an assert, ``python -O`` does not strip it."""
    if not ok:
        print(f"check failed: {what}, n={n}", file=sys.stderr)
        sys.exit(1)


def five_page_impossibility() -> None:
    g = make_triangular_book(5)
    space = 3 ** g.size
    start = time.perf_counter()
    found = count_labelings(g, "ms", 3)
    elapsed = time.perf_counter() - start
    print(f"\nB_5 at k=3: {found} modular labelings among all {space}, counted in {elapsed:.3f}s")
    result = solve(g, "ms")
    print(f"B_5 exact ms: {result.k} (search nodes {result.nodes})")
    check(found == 0, "no modular labeling at k=3", 5)
    check(result.k == 4, "solved ms is 4", 5)


def construction_sweep(sweep_to: int) -> None:
    start = time.monotonic()
    modular_checked = 0
    for n in range(1, sweep_to + 1):
        g = make_triangular_book(n)
        cert = make_certificate(g, irregular_labeling(n), "irregular")
        check(verify_profile(cert.profile, "irregular").ok, "Theorem 1 labeling is irregular", n)
        check(cert.labeling.k == irregular_strength(n), "Theorem 1 largest label is s", n)
        check(cert.profile == predicted_weights(n, theorem=1), "Theorem 1 weights as predicted", n)
        labeling = modular_labeling(n)
        if labeling is not None:
            cert = make_certificate(g, labeling, "modular")
            check(verify_profile(cert.profile, "modular").ok, "Theorem 2 labeling is modular", n)
            check(cert.labeling.k == modular_strength(n), "Theorem 2 largest label is ms", n)
            check(cert.profile == predicted_weights(n, theorem=2), "Theorem 2 weights as predicted", n)
            modular_checked += 1
    print(
        f"\nconstructions verified for n = 1..{sweep_to} "
        f"({modular_checked} modular cases) in {time.monotonic() - start:.1f}s"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--table-to", type=int, default=16)
    parser.add_argument("--solve-upto", type=int, default=16)
    parser.add_argument("--sweep-to", type=int, default=10000)
    args = parser.parse_args()

    # the CLI's table, which exits 1 when a solved row differs from the closed form
    code = run(["table", "--from", "1", "--to", str(args.table_to), "--solve-upto", str(args.solve_upto)])
    if code:
        sys.exit(code)
    five_page_impossibility()
    construction_sweep(args.sweep_to)
    print("\nall reproduction checks passed")


if __name__ == "__main__":
    main()
