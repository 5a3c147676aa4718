#!/usr/bin/env python3
"""In-process A/B timing of the package against another checkout.

Loads this working tree and the checkout given by ``--base`` side by side,
each package under a module name of its own (``irrstrength_tree``,
``irrstrength_base``), and builds each side's operations with that side's
own ``bench/workloads.py``: ``--ops books`` runs those of the
``solve-books`` workload, ``--ops random`` those of ``solve-random``,
``--ops sweep`` and ``--ops cli`` those of the workloads of those names.
Each side writes its ``cli`` input files into a directory of its own, kept
until the last round.

Each round times one pass over the operations on each side, the side that
goes first alternating from round to round. The script prints the median
of the rounds' ratios of pass times, tree over base, with its quartiles:
below 1, the working tree is faster. A first, untimed pass runs each
operation's benchmark check; when a check fails or the two sides return
different results, the script exits 1.

Usage:
    python scripts/ab.py --base ../parent --ops books --rounds 20
"""

import argparse
import gc
import importlib.util
import statistics
import sys
import tempfile
import time
from pathlib import Path

TREE = Path(__file__).resolve().parent.parent
WORKLOADS = {"books": "solve-books", "random": "solve-random", "sweep": "sweep", "cli": "cli"}


def load(path: Path, name: str):
    """The module at ``path``, a file or a package's directory, imported as ``name``."""
    init = path / "__init__.py" if path.is_dir() else path
    if not init.is_file():
        raise SystemExit(f"error: no module at {path}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(path)] if path.is_dir() else None
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def operations(checkout: Path, side: str, workload: str, workdir: Path) -> list:
    """The benchmark's operations of ``workload``, as the checkout builds them
    for its own package: its ``bench/workloads.py`` imports ``irrstrength``,
    so that name stands for the checkout's package while the module loads."""
    name = f"irrstrength_{side}"
    load(checkout / "src" / "irrstrength", name)
    ours = {key: module for key, module in sys.modules.items() if key.split(".")[0] == name}
    theirs = {key: sys.modules.pop(key) for key in list(sys.modules) if key.split(".")[0] == "irrstrength"}
    sys.modules.update({"irrstrength" + key[len(name):]: module for key, module in ours.items()})
    try:
        workloads = load(checkout / "bench" / "workloads.py", f"workloads_{side}")
    finally:  # submodules the load imported, such as the cli, go too
        for key in [key for key in sys.modules if key.split(".")[0] == "irrstrength"]:
            del sys.modules[key]
        sys.modules.update(theirs)
    return workloads.build(workload, 0, workdir)


def call(_name, fn, *args):
    return fn(*args)


def same(out):
    """What both sides must agree on, by value, since the two packages' objects never compare equal:
    solve documents, labels and weights (by their bytes, both packages keep them in int64),
    verdicts, counts, exit codes and output text."""
    if isinstance(out, tuple):
        return tuple(map(same, out))
    if isinstance(out, dict):
        return {key: same(value) for key, value in out.items()}
    if hasattr(out, "to_json"):
        return out.to_json()
    if hasattr(out, "labels"):
        return out.labels.tobytes()
    if hasattr(out, "weights"):
        return out.weights.tobytes()
    if hasattr(out, "pair"):
        return out.ok, out.kind, out.pair
    return out


def timed_pass(ops) -> float:
    gc.collect()
    start = time.perf_counter()
    for op in ops:
        op.run(call)
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="checkout to compare against")
    parser.add_argument("--ops", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--rounds", type=int, default=20)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    with tempfile.TemporaryDirectory() as workdir:
        return compare(args, Path(workdir))


def compare(args, workdir: Path) -> int:
    """Build both sides' operations under ``workdir``, check them, then time the rounds."""
    sides = []
    for checkout, side in ((TREE, "tree"), (args.base.resolve(), "base")):
        (workdir / side).mkdir()
        sides.append(operations(checkout, side, WORKLOADS[args.ops], workdir / side))
    outputs = [[op.run(call) for op in ops] for ops in sides]  # also the warm-up pass
    bad = [
        f"{side} {op.key}: {reason}"
        for side, ops, outs in zip(("tree", "base"), sides, outputs)
        for op, out in zip(ops, outs)
        for _, reason in op.check(out)
    ]
    bad += [f"{op.key}: the two sides differ" for op, a, b in zip(sides[0], *outputs) if same(a) != same(b)]
    if bad:
        print("error: " + "\nerror: ".join(bad), file=sys.stderr)
        return 1

    times = [[], []]
    for r in range(args.rounds):
        for side in (0, 1) if r % 2 == 0 else (1, 0):
            times[side].append(timed_pass(sides[side]))
    ratios = sorted(t / b for t, b in zip(*times))
    if len(ratios) > 1:
        q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    else:
        q1 = median = q3 = ratios[0]
    tree_ms, base_ms = (statistics.median(ts) * 1e3 for ts in times)
    print(
        f"{args.ops}: {len(sides[0])} operations, {args.rounds} rounds; "
        f"median pass tree {tree_ms:.2f} ms, base {base_ms:.2f} ms"
    )
    print(f"tree/base median {median:.3f} (quartiles {q1:.3f}-{q3:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
