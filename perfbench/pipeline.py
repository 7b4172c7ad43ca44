"""Untraced end-to-end runs: each CLI stage is its own `python -m sictomo`
process, launched one after another, with its wall time, CPU time and peak
RSS taken from `os.wait4` on that process alone."""

import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

from .workloads import check_outputs, shots_consumed

STAGE_TIMEOUT_S = 60    # a stage normally takes under 5 s
EXIT_CAP = 4            # sictomo's exit code for a size-cap refusal
SETUP_REPEATS = 3
MIN_REPS = 2
PERFBENCH_DIR = os.path.dirname(os.path.abspath(__file__))
E2E_UNITS = {"pipeline_s": "s", "analysis_shots_per_s": "shots/s",
             "simulate_shots_per_s": "shots/s", "setup_s": "s",
             "peak_rss_mb": "MB"}


def stage_env(root):
    """Environment for child processes: sictomo imported from the checkout."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_process(cmd, cwd, env, err_path):
    """Run one process to its end and return what it cost."""
    t0 = time.perf_counter()
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, cwd=cwd, env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"exit": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0}


def _stderr_tail(path):
    with open(path, "rb") as f:
        return f.read().decode("utf-8", "replace")[-2000:]


def run_stage(stage, workdir, env):
    err_path = os.path.join(workdir, f"{stage.name}.stderr")
    r = run_process([sys.executable, "-m", "sictomo", *stage.argv],
                    workdir, env, err_path)
    problem = None
    if r["exit"] == EXIT_CAP:
        problem = "size-cap refusal (exit 4)"
    elif r["exit"] not in stage.ok_codes:
        problem = f"exit {r['exit']}"
    elif not os.path.exists(os.path.join(workdir, stage.output)):
        problem = f"missing output {stage.output}"
    r.update(stage=stage.name, ok=problem is None)
    if problem:
        r["error"] = f"{problem}; stderr: {_stderr_tail(err_path)}"
    return r


def clear_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


def rate(count, per):
    return count / per if per > 0 else 0.0


def run_pipeline(w, seed, workdir, env):
    """One pass over the workload's stages and its output checks."""
    clear_dir(workdir)
    stages = w.stages(seed)
    t0 = time.perf_counter()
    results = [run_stage(s, workdir, env) for s in stages]
    pipeline_s = time.perf_counter() - t0
    for stage, r in zip(stages, results):
        if stage.kind == "simulate":
            r["shots"] = stage.shots if r["ok"] else 0
        else:
            r["shots"] = shots_consumed(stage, workdir)
    return {"stages": results, "checks": check_outputs(w, stages, workdir),
            "pipeline_s": pipeline_s}


def e2e_metrics(w, reps):
    """Medians over repeated passes. The rates divide the shots by the sum
    over stages of each stage's median wall time, so one slow stage run
    does not spoil a whole pass."""
    kinds = {s.name: s.kind for s in w.stages(0)}
    walls, shots = {}, {}
    for rep in reps:
        for r in rep["stages"]:
            walls.setdefault(r["stage"], []).append(r["wall_s"])
            shots[r["stage"]] = r["shots"]

    def shots_per_s(simulate):
        names = [n for n in walls if (kinds[n] == "simulate") == simulate]
        return rate(sum(shots[n] for n in names),
                    sum(statistics.median(walls[n]) for n in names))

    return {"pipeline_s": statistics.median(r["pipeline_s"] for r in reps),
            "analysis_shots_per_s": shots_per_s(False),
            "simulate_shots_per_s": shots_per_s(True),
            "peak_rss_mb": statistics.median(
                max(r["peak_rss_mb"] for r in rep["stages"]) for rep in reps)}


def count_operations(passes):
    """(attempted, failed) over stage runs and output checks."""
    ops = [op["ok"] for p in passes for op in p["stages"] + p["checks"]]
    return len(ops), ops.count(False)


def setup_probe(w, workdir, env):
    """Wall time of a fresh interpreter that builds the workload's set-up."""
    r = run_process([sys.executable,
                     os.path.join(PERFBENCH_DIR, "setup_probe.py"), w.name],
                    workdir, env, os.path.join(workdir, "setup.stderr"))
    r.update(stage="setup", ok=r["exit"] == 0)
    if not r["ok"]:
        r["error"] = _stderr_tail(os.path.join(workdir, "setup.stderr"))
    return r


def measure_untraced(w, seed, seconds, root, workdir):
    """Repeat the pipeline until `seconds` have passed, at least MIN_REPS
    times. A set-up probe runs before each of the first SETUP_REPEATS passes,
    and any left over after the last one, so both spread over the run."""
    deadline = time.perf_counter() + seconds
    env = stage_env(root)
    clear_dir(workdir)
    setups, reps = [], []
    while (len(reps) < MIN_REPS
           or time.perf_counter() + reps[-1]["pipeline_s"] <= deadline):
        if len(setups) < SETUP_REPEATS:
            setups.append(setup_probe(w, workdir, env))
        reps.append(run_pipeline(w, seed, workdir, env))
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_probe(w, workdir, env))
    metrics = e2e_metrics(w, reps)
    metrics["setup_s"] = statistics.median(s["wall_s"] for s in setups)
    attempted, failed = count_operations(
        reps + [{"stages": setups, "checks": []}])
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "setups": setups, "reps": reps}
