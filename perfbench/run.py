"""Run one sictomo benchmark workload and print its result.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 times the CLI pipeline end to end, one `python -m sictomo` process
per stage; --trace 1 drives the same stages in process with spans around
each layer and reports per-layer metrics. The last line of standard output is
one JSON object: correct, attempted, failed and metrics. The full record,
with the environment, every stage and every check, goes to
.perfbench/results/ and its path is printed on the line before.
"""

import argparse
import json
import os
import shutil
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
# as workloads.WORKLOADS, which cannot be imported before the sources are
# found because it imports sictomo
WORKLOADS = ("ghz8-stream", "paper-small", "ghz12-wide")


def result_line(result, unit):
    """The object the last line of output carries; unit(name) -> unit."""
    return {"correct": result["failed"] == 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: {"value": v, "unit": unit(k)}
                        for k, v in sorted(result["metrics"].items())}}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sictomo", "__init__.py")):
        print(f"perfbench: no sictomo package under {SRC}; run from the root "
              "of a sictomo checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, SRC]
    from perfbench.environment import environment
    from perfbench.pipeline import E2E_UNITS, measure_untraced
    from perfbench.tracing import layer_unit, measure_traced
    from perfbench.workloads import make_workload

    w = make_workload(args.workload)
    env = environment(ROOT, w.name, args.seed, args.seconds, args.trace,
                      w.sizes())
    run_id = f"{w.name}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    workdir = os.path.join(OUT_DIR, "work", run_id)
    measure, unit = ((measure_traced, layer_unit) if args.trace
                     else (measure_untraced, E2E_UNITS.get))
    try:
        result = measure(w, args.seed, args.seconds, ROOT, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_1m_after"] = os.getloadavg()[0]
    final = result_line(result, unit)
    spans = result.get("spans")
    record = {"environment": env, "result": final,
              "failed_share": result["failed"] / result["attempted"],
              "detail": {k: v for k, v in result.items()
                         if k not in ("metrics", "spans")}}
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    path = os.path.join(OUT_DIR, "results", run_id + ".json")
    with open(path, "w", encoding="ascii") as f:
        json.dump(record, f, indent=1)
    if spans is not None:
        with open(path[:-5] + ".spans.jsonl", "w", encoding="ascii") as f:
            for s in spans:
                f.write(json.dumps(s) + "\n")
    print(f"record: {os.path.relpath(path, ROOT)}")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
