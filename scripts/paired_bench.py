"""Compare two checkouts on one benchmark workload in alternating pairs.

    python scripts/paired_bench.py --parent DIR --change DIR \\
        --workload speculative-faults-sim --seeds 501-505 --seconds 35

Pair ``i`` runs ``perfbench/run.py --workload W --seed N --seconds S
--trace 0`` in both checkouts on the same seed ``N``, one process at a
time, the parent first in even pairs and the change first in odd ones,
so each side goes first in half the pairs.  Then, for every end-to-end
metric of the change's ``BENCHMARK.json``, it prints each side's median
and quartiles, the change/parent ratio of the medians and the number of
pairs the change won (strictly better in the metric's direction).  Runs
that exit non-zero or report ``"correct": false`` are listed, and make
the script exit 1; their pairs are left out of the table.

Compare numbers only between runs on the same machine; the two sides of
a pair share its load, which is what the alternation is for.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Tuple

SIDES = ("parent", "change")


def parse_seeds(text: str) -> List[int]:
    """``"A-B"`` (inclusive) or a single seed."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True,
                        help="checkout of the baseline commit")
    parser.add_argument("--change", required=True,
                        help="checkout of the commit under test")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True,
                        help="run seeds A-B, one pair per seed")
    parser.add_argument("--seconds", type=float, required=True)
    return parser.parse_args(argv)


def run_once(root: str, workload: str, seed: int, seconds: float
             ) -> Tuple[Optional[Dict[str, float]], Optional[str]]:
    """One untraced perfbench run in ``root``: ``(metrics, None)``, or
    ``(None, why)`` when it failed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if proc.returncode != 0 or result is None:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return None, f"exit {proc.returncode}: {tail[0][:200]}"
    if not result.get("correct", False):
        return None, '"correct": false'
    return {name: float(m["value"])
            for name, m in result["metrics"].items()}, None


def quartiles(values: List[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    roots = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    with open(os.path.join(roots["change"], "BENCHMARK.json"),
              encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    pairs: List[Dict[str, Dict[str, float]]] = []
    failures: List[str] = []
    for i, seed in enumerate(args.seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair: Dict[str, Dict[str, float]] = {}
        for side in order:
            got, why = run_once(roots[side], args.workload, seed,
                                args.seconds)
            if got is None:
                failures.append(f"{side} seed {seed}: {why}")
            else:
                pair[side] = got
            print(f"pair {i + 1}/{len(args.seeds)} seed {seed} {side}: "
                  + (why or " ".join(f"{k}={v:g}" for k, v in
                                     sorted(got.items()))),
                  file=sys.stderr, flush=True)
        if len(pair) == 2:
            pairs.append(pair)
    print(f"{args.workload}: {len(pairs)} pairs, seeds "
          f"{args.seeds[0]}-{args.seeds[-1]}, {args.seconds:g} s per run")
    if pairs:
        print(f"{'metric':<15} {'parent median [q1, q3]':>30} "
              f"{'change median [q1, q3]':>30} {'ratio':>7} {'won':>6}")
    for metric in metrics if pairs else []:
        name, lower = metric["name"], metric["better"] == "lower"
        columns = []
        for side in SIDES:
            values = [p[side][name] for p in pairs]
            q1, q3 = quartiles(values)
            columns.append(f"{statistics.median(values):.5g} "
                           f"[{q1:.5g}, {q3:.5g}]")
        parent = statistics.median(p["parent"][name] for p in pairs)
        change = statistics.median(p["change"][name] for p in pairs)
        ratio = change / parent if parent else float("nan")
        won = sum((p["change"][name] < p["parent"][name]) if lower
                  else (p["change"][name] > p["parent"][name])
                  for p in pairs)
        print(f"{name:<15} {columns[0]:>30} {columns[1]:>30} "
              f"{ratio:>7.3f} {won:>3}/{len(pairs)}")
    for failure in failures:
        print("FAILED RUN:", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
