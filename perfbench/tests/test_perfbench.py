"""Smoke-size runs of every benchmark workload.

Each workload runs once untraced and once traced at its smoke size. The
tests check that every metric BENCHMARK.json names is emitted with its
unit, that the output checks pass, and that a wrong exact value makes a
check fail.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import sictomo.cli  # noqa: E402
from perfbench import compare, pipeline, run, tracing, workloads  # noqa: E402
from perfbench.environment import COMPARED  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def untraced(request, tmp_path_factory):
    w = workloads.make_workload(request.param, smoke=True)
    workdir = tmp_path_factory.mktemp(request.param)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "SETUP_REPEATS", 1)
        mp.setattr(pipeline, "MIN_REPS", 1)
        result = pipeline.measure_untraced(w, SEED, 0, str(ROOT),
                                           str(workdir))
    return w, workdir, result


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def traced(request, tmp_path_factory):
    w = workloads.make_workload(request.param, smoke=True)
    workdir = tmp_path_factory.mktemp(request.param + "-traced")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tracing, "IMPORT_REPEATS", 1)
        result = tracing.measure_traced(w, SEED, 0, str(ROOT), str(workdir))
    return w, result


def _failures(result, *keys):
    return [op for p in result[keys[0]] for op in p["stages"] + p["checks"]
            if not op["ok"]]


def test_untraced_emits_every_end_to_end_metric(untraced):
    _, _, result = untraced
    line = run.result_line(result, pipeline.E2E_UNITS.get)
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for value in (v["value"] for v in line["metrics"].values()):
        assert math.isfinite(value) and value > 0


def test_untraced_output_checks_pass(untraced):
    _, _, result = untraced
    assert result["failed"] == 0, _failures(result, "reps")
    assert run.result_line(result, pipeline.E2E_UNITS.get)["correct"]


def test_wrong_exact_value_fails_a_check(untraced, monkeypatch):
    w, workdir, result = untraced
    exact = workloads.exact_values(w.state, w.estimate, w.shots)
    key = next(iter(exact))
    value, extra_se = exact[key]
    monkeypatch.setattr(workloads, "exact_values",
                        lambda *a: {**exact, key: (value + 10.0, extra_se)})
    checks = workloads.check_outputs(w, w.stages(SEED), str(workdir))
    attempted, failed = pipeline.count_operations(
        [{"stages": result["reps"][-1]["stages"], "checks": checks}])
    assert failed / attempted > 0
    assert [c["name"] for c in checks if not c["ok"]] == [
        f"estimate:{key[0]}:{key[1]}"]


def test_traced_emits_every_per_layer_metric(traced):
    _, result = traced
    assert result["failed"] == 0, _failures(result, "passes")
    line = run.result_line(result, tracing.layer_unit)
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_traced_layers_appear_where_predicted(traced):
    w, result = traced
    m = result["metrics"]
    for name in ("povm.sample_s", "stream.write_s", "stream.parse_sic_s",
                 "estimators.purity_ingest_s", "cli.simulate.wall_s",
                 "cli.estimate.wall_s", "cli.import_s"):
        assert m[name] > 0, name
    assert m["stream.intervals"] == math.ceil(w.shots / w.estimate.interval)
    paper = bool(w.reconstruct)
    for name in ("povm.superop_build_s", "povm.superop_bytes",
                 "stream.parse_pauli_s", "stream.game_build_s",
                 "estimators.lut_build_s", "shadows.accumulate_s",
                 "reconstruct.mle_iterations", "reconstruct.lininv_s"):
        assert (m[name] > 0) == paper, name
    assert (m["estimators.purity_ingest_s.k6"] > 0) == (
        len(w.estimate.purity) == 6)


def test_tracing_restores_every_wrapped_callable(traced):
    tracer = tracing.Tracer("check")
    before = [(owner, attr, vars(owner)[attr])
              for owner, attr, _ in tracing._wrappers(tracer)]
    tracing.install(tracer)()
    assert all(vars(owner)[attr] is orig for owner, attr, orig in before)
    assert sictomo.cli.iter_sic_chunks is sictomo.stream.iter_sic_chunks


def test_interval_slices_keep_rows_in_order():
    chunks = [[[i] for i in range(lo, hi)] for lo, hi in
              ((0, 7), (7, 8), (8, 20))]
    blocks = list(tracing._interval_slices(map(np.array, chunks), 5))
    assert [len(b) for b in blocks] == [5, 5, 5, 5]
    assert np.concatenate(blocks).ravel().tolist() == list(range(20))


def test_refuses_to_run_without_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path))
    assert run.main(["--workload", "ghz8-stream", "--seed", "1",
                     "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_compare_refuses_different_environments(tmp_path, capsys):
    def record(path, numpy_version):
        env = dict.fromkeys(COMPARED, "x")
        env["numpy"] = numpy_version
        metrics = {"pipeline_s": {"value": 1.0, "unit": "s"}}
        path.write_text(json.dumps({"environment": env,
                                    "result": {"metrics": metrics}}))
        return str(path)

    a = record(tmp_path / "a.json", "1")
    b = record(tmp_path / "b.json", "1")
    c = record(tmp_path / "c.json", "2")
    assert compare.main([a, "--new", b]) == 0
    assert compare.main([a, "--new", c]) == 3
    assert "numpy" in capsys.readouterr().err

