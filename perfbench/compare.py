"""Compare benchmark records of two code versions, metric by metric.

Usage: python3 perfbench/compare.py BASE.json [...] --new NEW.json [...]

The records are the files perfbench/run.py writes to .perfbench/results/.
Records whose environments differ in any field of environment.COMPARED are
refused (exit 3). Otherwise each metric's median and quartiles are printed
for both sides with the change of the medians as a share of the base
median; an end-to-end metric that got worse by more than its bound in
BENCHMARK.json is marked WORSE.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(path):
    with open(path, encoding="ascii") as f:
        return json.load(f)


def _summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _bounds():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return {}
    return {m["name"]: m for m in _load(path)["end_to_end"]}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("base", nargs="+")
    p.add_argument("--new", nargs="+", required=True)
    args = p.parse_args(argv)
    sys.path.insert(0, ROOT)
    from perfbench.environment import COMPARED

    base = [_load(x) for x in args.base]
    new = [_load(x) for x in args.new]
    ref = base[0]["environment"]
    for path, rec in zip(args.base + args.new, base + new):
        diff = [k for k in COMPARED if rec["environment"].get(k) != ref.get(k)]
        if diff:
            print(f"refused: {path} differs from {args.base[0]} in "
                  f"{', '.join(diff)}", file=sys.stderr)
            return 3
    bounds = _bounds()
    print(f"{'metric':44s} {'unit':9s} {'base q1/median/q3':>30s} "
          f"{'new q1/median/q3':>30s} {'change':>8s}")
    for name in sorted(base[0]["result"]["metrics"]):
        unit = base[0]["result"]["metrics"][name]["unit"]
        sides = [_summary([r["result"]["metrics"][name]["value"]
                           for r in recs]) for recs in (base, new)]
        b_med, n_med = sides[0][1], sides[1][1]
        change = (n_med - b_med) / b_med if b_med else 0.0
        verdict = ""
        if name in bounds:
            worse = change if bounds[name]["better"] == "lower" else -change
            verdict = "WORSE" if worse > bounds[name]["bound"] else ""
        cols = ["/".join(f"{v:.4g}" for v in s) for s in sides]
        print(f"{name:44s} {unit:9s} {cols[0]:>30s} {cols[1]:>30s} "
              f"{change:+8.3f} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
