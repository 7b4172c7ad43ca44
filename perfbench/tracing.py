"""The traced run: the workload's stages driven through `sictomo.cli.main`
in this process, with spans around calls into each module's public
functions. Spans live in memory and are written out when the run ends.

The wrappers are installed by this file at run time and removed afterwards;
nothing in `sictomo` knows about them. A function a module imported with
`from .x import y` is wrapped in the namespace its caller looks it up in.
"""

import contextlib
import functools
import importlib
import os
import re
import statistics
import sys
import time
import traceback
import weakref

import numpy as np

# by module object: the package re-exports a function named `reconstruct`
cli, estimators, povm, reconstruct, shadows, stream = (
    importlib.import_module(f"sictomo.{name}") for name in
    ("cli", "estimators", "povm", "reconstruct", "shadows", "stream"))

from .pipeline import (clear_dir, count_operations, rate, run_pipeline,
                       run_process, stage_env)
from .workloads import STAGE_NAMES, check_outputs

PURITY_KS = (1, 2, 6)       # subset sizes the workloads track
IMPORT_REPEATS = 3
_UNIT_SUFFIXES = (("_shots_per_s", "shots/s"), ("_mb_per_s", "MB/s"),
                  ("_records_per_s", "records/s"),
                  ("_updates_per_s", "updates/s"),
                  ("_ms_per_iteration", "ms"), (".p50", "ms"), (".p99", "ms"),
                  ("_per_trial", "shots"),
                  ("_bytes", "bytes"), ("_mb", "MB"), ("_share", "share"),
                  ("_s", "s"))


class Tracer:
    """In-memory span recorder: name, start, end, parent span and run id."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._open = []
        self.feed_rows = 0  # >0: hand the engine one interval per feed call

    @contextlib.contextmanager
    def span(self, name):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "run": self.run_id, "start": time.perf_counter(), "end": None,
               "attrs": {}}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()


def _timed(tracer, name, attrs=None):
    """Wrap fn in a span; attrs(args, result) adds counts after it ends."""
    def wrap(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as rec:
                result = fn(*args, **kwargs)
            if attrs is not None:
                rec["attrs"].update(attrs(args, result))
            return result
        return wrapper
    return wrap


def _interval_slices(chunks, rows):
    """Re-cut a stream of digit chunks into blocks of exactly `rows` rows,
    leaving a shorter block only at the end."""
    carry = None
    for chunk in chunks:
        if carry is not None:
            chunk = np.concatenate([carry, chunk])
        full = len(chunk) - len(chunk) % rows
        for lo in range(0, full, rows):
            yield chunk[lo:lo + rows]
        carry = chunk[full:] if full < len(chunk) else None
    if carry is not None:
        yield carry


def _traced_chunks(tracer, rechunk):
    def wrap(fn):
        def parsed(path, *args, **kwargs):
            it = fn(path, *args, **kwargs)
            while True:
                with tracer.span("stream.parse_sic") as rec:
                    chunk = next(it, None)
                if chunk is None:
                    return
                rec["attrs"]["records"] = len(chunk)
                yield chunk

        @functools.wraps(fn)
        def wrapper(path, *args, **kwargs):
            chunks = parsed(path, *args, **kwargs)
            if rechunk and tracer.feed_rows:
                return _interval_slices(chunks, tracer.feed_rows)
            return chunks
        return wrapper
    return wrap


def _superop_wrappers(tracer):
    """Wrappers for FrameSuperoperator methods. Each cached dense array
    counts its bytes once: on the method's first call on each instance."""
    seen = weakref.WeakKeyDictionary()

    def wrapper_for(method):
        def attrs(args, result):
            done = seen.setdefault(args[0], set())
            first = method not in done
            done.add(method)
            return {"bytes": int(result.nbytes) if first else 0}
        return _timed(tracer, "povm.superop", attrs)
    return wrapper_for


def _wrappers(tracer):
    """(owner, attribute, wrap) for every layer entry point."""
    t = functools.partial(_timed, tracer)
    superop = _superop_wrappers(tracer)
    return [
        (cli, "sample_sic_shots",
         t("povm.sample", lambda a, r: {"shots": len(r)})),
        (cli, "sample_pauli_shots",
         t("povm.sample", lambda a, r: {"shots": len(r[0])})),
        *((povm.FrameSuperoperator, method, superop(method))
          for method in ("probability_map", "matrix", "pinv_matrix")),
        (cli, "write_shots",
         t("stream.write", lambda a, r: {"bytes": os.path.getsize(a[0])})),
        (cli, "iter_sic_chunks", _traced_chunks(tracer, rechunk=True)),
        (stream, "iter_sic_chunks", _traced_chunks(tracer, rechunk=False)),
        (cli, "read_pauli_shots",
         t("stream.parse_pauli", lambda a, r: {"records": len(r[1])})),
        (stream.OnlineEngine, "__init__", t("stream.engine.init")),
        (stream.OnlineEngine, "feed",
         t("stream.engine.feed", lambda a, r: {"reports": len(r)})),
        (stream.OnlineEngine, "finalize",
         t("stream.engine.finalize", lambda a, r: {"reports": len(r)})),
        (stream, "observable_lut", t("estimators.lut_build")),
        (estimators.PurityTracker, "add_records",
         t("estimators.purity_ingest",
           lambda a, r: {"k": len(a[0].subset), "rows": len(a[1])})),
        (estimators.PurityTracker, "value", t("estimators.purity_readout")),
        (estimators.PurityTracker, "stderr", t("estimators.purity_readout")),
        (stream.Game, "__init__", t("stream.game.build")),
        (stream.Game, "play",
         t("stream.game.trial", lambda a, r: {
             "shots": r[1], "correct": int(r[2]["correct"])})),
        (shadows.ShadowAccumulator, "add_records", t("shadows.accumulate")),
        (reconstruct.FrequencyVector, "from_sic_shots",
         t("reconstruct.counts")),
        (reconstruct.FrequencyVector, "from_pauli_shots",
         t("reconstruct.counts")),
        (reconstruct, "lininv", t("reconstruct.lininv")),
        (reconstruct, "pls_from_freqs", t("reconstruct.pls")),
        (reconstruct, "mle",
         t("reconstruct.mle", lambda a, r: {"iterations": r.iterations})),
    ]


def install(tracer):
    """Wrap sictomo's layer entry points; returns a function that undoes it."""
    saved = []

    def restore():
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)

    try:
        for owner, attr, wrap in _wrappers(tracer):
            orig = vars(owner)[attr]
            if isinstance(orig, classmethod):
                setattr(owner, attr, classmethod(wrap(orig.__func__)))
            else:
                setattr(owner, attr, wrap(orig))
            saved.append((owner, attr, orig))
    except BaseException:
        restore()
        raise
    return restore


def run_inprocess(w, seed, workdir, tracer=None):
    """Run every stage through `sictomo.cli.main` in this process, one after
    another; with a tracer, each stage is a `cli.<stage>` span."""
    clear_dir(workdir)
    stages = w.stages(seed)
    restore = install(tracer) if tracer is not None else None
    cwd = os.getcwd()
    results = []
    try:
        os.chdir(workdir)
        with open(os.devnull, "w") as sink, \
                contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            for stage in stages:
                span = contextlib.nullcontext()
                if tracer is not None:
                    tracer.feed_rows = stage.interval
                    span = tracer.span(f"cli.{stage.name}")
                r = {"stage": stage.name}
                try:
                    with span:
                        r["exit"] = cli.main(list(stage.argv))
                except Exception:  # a crashing stage is a failed operation
                    r["exit"], r["error"] = None, traceback.format_exc()
                r["ok"] = (r["exit"] in stage.ok_codes
                           and os.path.exists(stage.output))
                results.append(r)
            wall = time.perf_counter() - t0
    finally:
        os.chdir(cwd)
        if restore is not None:
            restore()
    return {"wall_s": wall, "stages": results,
            "checks": check_outputs(w, stages, workdir)}


# --- per-layer metrics ------------------------------------------------------


def _pct(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(spans):
    """Per-layer totals, self times, counts and ratios from one traced pass.

    Self time is a span's duration minus that of its child spans. Layers a
    workload never calls read 0."""
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + dur[s["id"]]
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def total(name):
        return sum(dur[s["id"]] for s in by_name.get(name, ()))

    def self_time(name):
        return sum(dur[s["id"]] - child.get(s["id"], 0.0)
                   for s in by_name.get(name, ()))

    def attr(name, key):
        return sum(s["attrs"].get(key, 0) for s in by_name.get(name, ()))

    feeds = [s for s in by_name.get("stream.engine.feed", ())
             + by_name.get("stream.engine.finalize", ())
             if s["attrs"].get("reports")]
    interval_ms = [1000 * dur[s["id"]] for s in feeds]
    trials = by_name.get("stream.game.trial", [])
    trial_ms = [1000 * dur[s["id"]] for s in trials]
    ingest = by_name.get("estimators.purity_ingest", [])
    mle_s = self_time("reconstruct.mle")
    mle_iters = attr("reconstruct.mle", "iterations")
    m = {
        "povm.sample_s": total("povm.sample"),
        "povm.sample_shots_per_s": rate(attr("povm.sample", "shots"),
                                        total("povm.sample")),
        "povm.superop_build_s": self_time("povm.superop"),
        "povm.superop_bytes": attr("povm.superop", "bytes"),
        "stream.write_s": total("stream.write"),
        "stream.write_mb_per_s": rate(attr("stream.write", "bytes") / 1e6,
                                      total("stream.write")),
        "stream.parse_sic_s": total("stream.parse_sic"),
        "stream.parse_sic_records_per_s": rate(
            attr("stream.parse_sic", "records"), total("stream.parse_sic")),
        "stream.parse_pauli_s": total("stream.parse_pauli"),
        "stream.engine_self_s": self_time("stream.engine.feed")
        + self_time("stream.engine.finalize"),
        "stream.interval_ms.p50": _pct(interval_ms, 50),
        "stream.interval_ms.p99": _pct(interval_ms, 99),
        "stream.intervals": len(interval_ms),
        "stream.game_build_s": total("stream.game.build"),
        "stream.game_trial_ms.p50": _pct(trial_ms, 50),
        "stream.game_trial_ms.p99": _pct(trial_ms, 99),
        "stream.game_shots_per_trial": rate(
            attr("stream.game.trial", "shots"), len(trials)),
        "stream.game_correct_share": rate(
            attr("stream.game.trial", "correct"), len(trials)),
        "estimators.purity_ingest_s": total("estimators.purity_ingest"),
        "estimators.purity_ingest_updates_per_s": rate(
            attr("estimators.purity_ingest", "rows"),
            total("estimators.purity_ingest")),
        "estimators.purity_readout_s": total("estimators.purity_readout"),
        "estimators.purity_readouts": len(
            by_name.get("estimators.purity_readout", [])),
        "estimators.lut_build_s": total("estimators.lut_build"),
        "estimators.lut_builds": len(by_name.get("estimators.lut_build", [])),
        "shadows.accumulate_s": total("shadows.accumulate"),
        "reconstruct.counts_s": total("reconstruct.counts"),
        "reconstruct.lininv_s": self_time("reconstruct.lininv"),
        "reconstruct.pls_s": self_time("reconstruct.pls"),
        "reconstruct.mle_s": mle_s,
        "reconstruct.mle_iterations": mle_iters,
        "reconstruct.mle_ms_per_iteration": rate(1000 * mle_s, mle_iters),
    }
    for k in PURITY_KS:
        m[f"estimators.purity_ingest_s.k{k}"] = sum(
            dur[s["id"]] for s in ingest if s["attrs"]["k"] == k)
    for stage in STAGE_NAMES:
        name = f"cli.{stage}"
        wall = total(name)
        m[f"trace.{stage}.unaccounted_share"] = rate(self_time(name), wall)
    return m


def layer_unit(name):
    base = re.sub(r"\.k\d+$", "", name)  # estimators.purity_ingest_s.k<K>
    for suffix, unit in _UNIT_SUFFIXES:
        if base.endswith(suffix):
            return unit
    return "count"


def _stage_metrics(rep):
    m = {}
    by_stage = {r["stage"]: r for r in rep["stages"]}
    for stage in STAGE_NAMES:
        r = by_stage.get(stage, {})
        for key in ("wall_s", "cpu_s", "peak_rss_mb"):
            m[f"cli.{stage}.{key}"] = r.get(key, 0.0)
    return m


def measure_traced(w, seed, seconds, root, workdir):
    """Rounds of (untraced subprocess pipeline, untraced in-process pass,
    traced in-process pass) until `seconds` have passed, at least one.
    Per-layer metrics are medians over rounds; trace.overhead_s is the traced
    pass's wall time minus the untraced in-process pass's."""
    deadline = time.perf_counter() + seconds
    env = stage_env(root)
    clear_dir(workdir)
    imports = [run_process([sys.executable, "-c", "import sictomo"],
                           workdir, env, os.path.join(workdir, "import.err"))
               for _ in range(IMPORT_REPEATS)]
    rounds, passes, tracers = [], [], []
    while (not rounds
           or time.perf_counter() + rounds[-1]["wall_s"] <= deadline):
        t0 = time.perf_counter()
        rep = run_pipeline(w, seed, workdir, env)
        plain = run_inprocess(w, seed, workdir)
        tracer = Tracer(f"{w.name}-seed{seed}-round{len(rounds)}")
        traced = run_inprocess(w, seed, workdir, tracer)
        m = layer_metrics(tracer.spans)
        m.update(_stage_metrics(rep))
        m["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        rounds.append({"metrics": m, "wall_s": time.perf_counter() - t0})
        passes += [rep, plain, traced]
        tracers.append(tracer)
    metrics = {key: statistics.median(r["metrics"][key] for r in rounds)
               for key in rounds[0]["metrics"]}
    metrics["cli.import_s"] = statistics.median(r["wall_s"] for r in imports)
    attempted, failed = count_operations(passes)
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "rounds": rounds, "passes": passes,
            "spans": [s for t in tracers for s in t.spans]}
