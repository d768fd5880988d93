"""Compare two sets of benchmark runs, per workload and per metric.

Run from the repository root::

    python3 benchmarks/e2e/compare.py A/*.json B/*.json
    python3 benchmarks/e2e/compare.py A B        # two directories

The files are records written by ``run.py --out``; the first directory
named holds set A (the base), the second set B (the candidate).  For
every workload and every end-to-end metric of ``BENCHMARK.json`` it
prints each set's median and quartiles, B's change against A as a
share of A's median (positive is worse), and a verdict:

* ``unresolved`` -- either set's spread (inter-quartile range over
  median) exceeds the metric's bound, and B's runs do not all read
  better than all of A's;
* ``worse`` -- B's median is worse than A's by more than the bound;
* ``better`` -- B's median is better than A's by more than A's own
  spread, and the two sets' inter-quartile ranges do not overlap;
* ``same`` -- none of these.

The exit status is 1 when any metric is ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

import stats

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def split_sets(args: list[str]) -> list[list[Path]]:
    """The two sets of record files named by *args*."""
    paths = [Path(arg) for arg in args]
    if len(paths) == 2 and all(path.is_dir() for path in paths):
        return [sorted(path.glob("*.json")) for path in paths]
    groups: dict[Path, list[Path]] = {}
    for path in paths:
        groups.setdefault(path.parent, []).append(path)
    return list(groups.values())


def load(paths: list[Path]) -> dict[str, dict[str, list[float]]]:
    """``workload -> metric -> values`` of untraced runs."""
    values: dict[str, dict[str, list[float]]] = defaultdict(
        lambda: defaultdict(list))
    for path in paths:
        with open(path) as handle:
            record = json.load(handle)
        if record.get("trace"):
            continue
        for name, metric in record["metrics"].items():
            values[record["workload"]][name].append(metric["value"])
    return values


def verdict(a: list[float], b: list[float], bound: float,
            higher_is_better: bool) -> tuple[float, str]:
    """``(change, verdict)``; *change* is B's median against A's as a
    share of A's, positive when B is worse."""
    sign = -1.0 if higher_is_better else 1.0
    med_a, med_b = stats.median(a), stats.median(b)
    change = sign * (med_b - med_a) / med_a if med_a else 0.0
    if max(stats.spread(a), stats.spread(b)) > bound:
        if higher_is_better:
            all_better = min(b) > max(a)
        else:
            all_better = max(b) < min(a)
        return change, "better" if all_better else "unresolved"
    if change > bound:
        return change, "worse"
    a_q1, _, a_q3 = stats.quartiles(a)
    b_q1, _, b_q3 = stats.quartiles(b)
    apart = b_q1 > a_q3 if higher_is_better else b_q3 < a_q1
    if -change > stats.spread(a) and apart:
        return change, "better"
    return change, "same"


def main(argv: list[str]) -> int:
    sets = split_sets(argv)
    if len(sets) != 2 or not all(sets):
        print("usage: compare.py A/*.json B/*.json  (or: compare.py A B)",
              file=sys.stderr)
        return 2
    with open(SPEC_PATH) as handle:
        spec = json.load(handle)
    base, head = load(sets[0]), load(sets[1])
    failing = 0
    print(f"{'workload':<16s} {'metric':<20s} {'A median [q1, q3]':>32s} "
          f"{'B median [q1, q3]':>32s} {'change':>8s} {'bound':>6s} verdict")
    for workload in sorted(set(base) & set(head)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = base[workload].get(name), head[workload].get(name)
            if not a or not b:
                continue
            change, word = verdict(a, b, metric["bound"],
                                   metric["better"] == "higher")
            failing += word in ("worse", "unresolved")
            cells = []
            for values in (a, b):
                q1, mid, q3 = stats.quartiles(values)
                cells.append(f"{mid:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}")
            print(f"{workload:<16s} {name:<20s} {cells[0]:>32s} "
                  f"{cells[1]:>32s} {change:>+8.1%} {metric['bound']:>6.0%} "
                  f"{word}")
    missing = sorted(set(base) ^ set(head))
    if missing:
        print(f"workloads in only one set: {', '.join(missing)}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
