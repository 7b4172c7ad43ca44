"""End-to-end CLI behavior through main(argv), no subprocesses."""

import io
import json
import math
import pathlib
import re
import shlex

import numpy as np
import pytest

from sictomo.cli import GAME_CSV_HEADER, build_parser, main, parse_state
from sictomo.estimators import CSV_HEADER, EstimateReport
from sictomo.povm import FrameSuperoperator, digits_from_indices, sic_frame
from sictomo.qstate import (DensityOperator, PureState, random_pure,
                            save_state, state_to_json_dict)
from sictomo import reconstruct as RECONSTRUCT
from sictomo.reconstruct import FrequencyVector, reconstruct
from sictomo.stream import (ShotFileHeader, iter_sic_chunks, read_header,
                            write_shots)


def run(*argv):
    return main(list(argv))


def simulate(tmp_path, *, state="ghz:2", shots=2000, seed=0, name="shots.sic",
             extra=()):
    out = tmp_path / name
    code = run("simulate", "--state", state, "--shots", str(shots),
               "--seed", str(seed), "--out", str(out), *extra)
    assert code == 0
    return out


def load_matrix(path):
    d = json.loads(path.read_text())
    dim = 2 ** d["n_qubits"]
    arr = np.array(d["re"]) + 1j * np.array(d["im"])
    return arr.reshape(dim, dim), d


# --- parser basics ---------------------------------------------------------------


def readme_commands():
    """Every `sictomo ...` command in the README's shell blocks, with its
    backslash continuations joined."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```sh\n(.*?)```", readme.read_text(), re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").split("\n")
    return [shlex.split(line)[1:] for line in lines
            if line.startswith("sictomo ")]


def test_readme_commands_parse():
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {
        "simulate", "estimate", "reconstruct", "budget", "game", "verify"}
    for argv in commands:
        build_parser().parse_args(argv)  # a stale flag exits 3


def test_no_arguments_is_usage_error(capsys):
    assert run() == 3
    assert "usage" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    assert run("budget", "--k", "1", "--epsilon", "0.1", "--delta", "0.01",
               "--frobnicate") == 3


def test_version(capsys):
    assert run("--version") == 0
    assert capsys.readouterr().out.startswith("sictomo ")


# --- state specs ------------------------------------------------------------------


def test_parse_state_specs(tmp_path):
    assert parse_state("ame5").n_qubits == 5
    assert parse_state("ghz:3").n_qubits == 3
    assert parse_state("rotated-ghz:2:0.3").n_qubits == 2
    assert parse_state("cluster:++-").n_qubits == 3
    assert parse_state("product:0+1").n_qubits == 3
    mixed = parse_state("mixed:2")
    assert isinstance(mixed, DensityOperator)
    np.testing.assert_allclose(mixed.matrix, np.eye(4) / 4)
    a = parse_state("random-pure:2", seed=4)
    b = parse_state("random-pure:2", seed=4)
    np.testing.assert_array_equal(a.amplitudes, b.amplitudes)
    path = tmp_path / "st.json"
    save_state(path, random_pure(1, np.random.default_rng(0)))
    assert isinstance(parse_state(str(path)), PureState)
    with pytest.raises(ValueError):
        parse_state("wstate:3")
    with pytest.raises(ValueError):
        parse_state("ghz:x")


# --- simulate ----------------------------------------------------------------------


def test_simulate_bit_reproducible(tmp_path, capsys):
    a = simulate(tmp_path, seed=9, name="a.sic")
    b = simulate(tmp_path, seed=9, name="b.sic")
    assert a.read_bytes() == b.read_bytes()
    assert "wrote 2000 sic shots" in capsys.readouterr().out
    header = read_header(a)
    assert header.n_qubits == 2 and header.seed == 9


@pytest.mark.parametrize("argv", [
    ("simulate", "--state", "ghz:2", "--shots", "10"),
    ("reconstruct", "--file", "shots.sic", "--method", "lininv")])
def test_file_commands_refuse_stdout(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(*argv, "--out", "-") == 3
    assert "argument --out" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_rotated_ghz_refuses_a_trailing_field(tmp_path, capsys):
    out = tmp_path / "shots.sic"
    assert run("simulate", "--state", "rotated-ghz:3:0.5:junk", "--shots",
               "10", "--out", str(out)) == 3
    assert ("unknown state spec 'rotated-ghz:3:0.5:junk'"
            in capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


def test_simulate_writes_batch_one(tmp_path):
    out = simulate(tmp_path, seed=3)
    assert out.read_text().split("\n")[1].endswith(',"batch":1}')


@pytest.mark.parametrize("argv,message", [
    (("bench",), "invalid choice: 'bench'"),
    (("simulate", "--state", "ghz:2", "--shots", "10", "--mode", "pershot"),
     "unrecognized arguments: --mode pershot"),
    (("simulate", "--state", "ghz:2", "--shots", "10", "--batch", "4"),
     "unrecognized arguments: --batch 4"),
    (("estimate", "--file", "shots.sic", "--purity", "full", "--batch", "4"),
     "unrecognized arguments: --batch 4"),
], ids=["bench", "mode", "batch", "estimate-batch"])
def test_removed_cli_surface_is_usage_error(argv, message, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(*argv, "--out", str(out)) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_simulate_manifest(tmp_path):
    out = simulate(tmp_path, seed=3)
    manifest = json.loads((tmp_path / "shots.sic.manifest.json").read_text())
    assert manifest["subcommand"] == "simulate"
    assert manifest["seed"] == 3
    assert manifest["outputs"] == [str(out)]
    assert manifest["parameters"]["state"] == "ghz:2"
    assert manifest["parameters"]["shots"] == 2000
    assert "version" in manifest


def test_manifests_record_the_shot_file_seed(tmp_path):
    shots = simulate(tmp_path, seed=7)
    for argv in (("estimate", "--purity", "0", "--no-stopping"),
                 ("reconstruct", "--method", "lininv")):
        out = tmp_path / argv[0]
        assert run(*argv, "--file", str(shots), "--out", str(out)) in (0, 2)
        manifest = json.loads(
            (tmp_path / f"{argv[0]}.manifest.json").read_text())
        assert manifest["subcommand"] == argv[0]
        assert manifest["seed"] == 7
        assert manifest["inputs"] == [str(shots)]


def test_simulate_from_state_file(tmp_path):
    spath = tmp_path / "psi.json"
    save_state(spath, random_pure(2, np.random.default_rng(8)))
    out = tmp_path / "s.sic"
    assert run("simulate", "--state", str(spath), "--shots", "50",
               "--out", str(out)) == 0
    manifest = json.loads((tmp_path / "s.sic.manifest.json").read_text())
    assert manifest["inputs"] == [str(spath)]


def test_simulate_pauli(tmp_path):
    out = tmp_path / "p.pauli"
    assert run("simulate", "--state", "ghz:2", "--povm", "pauli",
               "--shots", "90", "--out", str(out)) == 0
    assert read_header(out).povm == "pauli"
    body = out.read_text().splitlines()[2:]
    assert len(body) == 90


@pytest.mark.parametrize("shots", ["0", "-3"])
def test_simulate_pauli_refuses_no_shots(shots, tmp_path, capsys):
    out = tmp_path / "p.pauli"
    assert run("simulate", "--state", "ghz:2", "--povm", "pauli",
               "--shots", shots, "--out", str(out)) == 3
    assert "n_shots must be >= 1" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "p.pauli.manifest.json").exists()


@pytest.mark.parametrize("angle", ["inf", "nan"])
def test_rotated_ghz_angle_must_be_finite(angle, tmp_path, capsys):
    out = tmp_path / "x"
    assert run("simulate", "--state", f"rotated-ghz:3:{angle}", "--shots",
               "5", "--out", str(out)) == 3
    assert (f"error: rotation angle must be finite, not {angle}"
            in capsys.readouterr().err)
    assert not out.exists()


def test_simulate_bad_state(tmp_path, capsys):
    out = tmp_path / "x"
    assert run("simulate", "--state", "nope:1", "--shots", "5",
               "--out", str(out)) == 3
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("body, message", [
    pytest.param("{}", "state missing keys: ['im', 'kind', 'n_qubits', 're']",
                 id="empty"),
    pytest.param("[1, 2]", "state must be a JSON object", id="list"),
    pytest.param('{"n_qubits": 2, "kind": "pure", "re": [1, 0, 0, 0]}',
                 "state missing keys: ['im']", id="no-im"),
    pytest.param('{"n_qubits": 2.5, "kind": "pure", "re": [1, 0, 0, 0], '
                 '"im": [0, 0, 0, 0]}',
                 "state n_qubits must be a positive integer, not 2.5",
                 id="float-n"),
    pytest.param('{"n_qubits": true, "kind": "pure", "re": [1, 0], '
                 '"im": [0, 0]}',
                 "state n_qubits must be a positive integer, not True",
                 id="bool-n"),
    pytest.param('{"n_qubits": 2, "kind": "pure", "re": {"a": 1}, '
                 '"im": [0, 0, 0, 0]}',
                 "state re and im must be lists of numbers", id="re-object"),
    pytest.param('{"n_qubits": 1, "kind": "pure", "re": [NaN, 0], '
                 '"im": [0, 0]}',
                 "state not normalized: |amp|^2 = nan", id="nan-pure"),
    pytest.param('{"n_qubits": 1, "kind": "mixed", "re": [NaN, 0, 0, 0], '
                 '"im": [0, 0, 0, 0]}',
                 "not Hermitian: max deviation nan", id="nan-mixed"),
    pytest.param('{"n_qubits": 1, "kind": "mixed", "re": [0.5, 0, 0, 0.2], '
                 '"im": [0, 0, 0, 0]}',
                 "trace is 0.7+0j, expected 1", id="wrong-trace"),
])
@pytest.mark.parametrize("cmd", ["simulate", "estimate"])
def test_malformed_state_file_is_invalid_input(body, message, cmd, tmp_path,
                                               capsys):
    state = tmp_path / "f.json"
    state.write_text(body)
    out = tmp_path / "out"
    if cmd == "simulate":
        argv = ["simulate", "--state", str(state), "--shots", "10"]
    else:
        argv = ["estimate", "--file", str(simulate(tmp_path, shots=200)),
                "--fidelity", str(state)]
    capsys.readouterr()
    assert run(*argv, "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert f"error: {message}" in err
    assert "np." not in err  # numbers, not numpy reprs
    assert not out.exists()


# --- estimate ----------------------------------------------------------------------


def test_estimate_converges_and_reports(tmp_path):
    shots = simulate(tmp_path, state="ghz:2", shots=6000, seed=1)
    out = tmp_path / "report.csv"
    code = run("estimate", "--file", str(shots), "--fidelity", "ghz:2",
               "--purity", "full;0", "--renyi", "0", "--tol", "0.1",
               "--out", str(out))
    assert code == 0  # every stderr within 10 % well before 6000 shots
    lines = out.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert all(line.count(",") == 6 for line in lines)
    quantities = {line.split(",")[2] for line in lines[1:]}
    assert quantities == {"fidelity:ghz:2", "purity", "renyi2"}
    subsets = {line.split(",")[3] for line in lines[1:]}
    assert subsets == {"all", "0-1", "0"}
    assert (tmp_path / "report.csv.manifest.json").exists()
    # converged: the last interval, and only it, has every stderr within 10 %
    # of its value
    rows = [line.split(",") for line in lines[1:]]
    met = {}
    for r in rows:
        met[r[0]] = met.get(r[0], True) and (
            float(r[5]) <= 0.1 * abs(float(r[4])))
    assert list(met.values()) == [False] * (len(met) - 1) + [True]
    assert int(rows[-1][0]) < 6000
    last_fid = [r for r in rows if r[2] == "fidelity:ghz:2"][-1]
    assert abs(float(last_fid[4]) - 1.0) < 0.05


def test_estimate_exhausts_without_stopping(tmp_path):
    # no stderr was asked for, so reading the whole file is success
    shots = simulate(tmp_path, shots=500, seed=2)
    out = tmp_path / "r.csv"
    code = run("estimate", "--file", str(shots), "--purity", "full",
               "--no-stopping", "--interval", "200", "--out", str(out))
    assert code == 0
    rows = out.read_text().strip().split("\n")[1:]
    assert [int(r.split(",")[0]) for r in rows] == [200, 400, 500]


def test_estimate_manifest_records_state_bytes_and_stream_end(tmp_path):
    shots = simulate(tmp_path, shots=6000, seed=1)
    out = tmp_path / "r.csv"
    for flags, code, end in [
            (("--tol", "0.1"), 0, "converged"),
            (("--tol", "0.001"), 2, "exhausted"),
            (("--no-stopping",), 0, "read_to_end")]:
        assert run("estimate", "--file", str(shots), "--fidelity", "ghz:2",
                   "--purity", "full;0", "--interval", "500", *flags,
                   "--out", str(out)) == code
        manifest = json.loads((tmp_path / "r.csv.manifest.json").read_text())
        assert manifest["stream_end"] == end
        # a 4^2 table and a 500-row fidelity ingest, 32 bytes a row;
        # purities of sizes 2 and 1; the 2^16-row block of the full purity,
        # 18 bytes a row
        assert manifest["engine_state_bytes"] == (
            8 * 16 + 32 * 500 + 16 * (16 + 4) + 8 * 16 + 2**16 * 18)


def test_estimate_jsonl(tmp_path):
    shots = simulate(tmp_path, shots=250, seed=3)
    out = tmp_path / "r.jsonl"
    code = run("estimate", "--file", str(shots), "--purity", "full",
               "--renyi", "all:1", "--interval", "1", "--no-stopping",
               "--format", "jsonl", "--out", str(out))
    assert code == 0
    rows = [json.loads(line) for line in out.read_text().strip().split("\n")]
    assert all(row["method"] == "shadows" for row in rows)
    # one shot has no pair: value and stderr are null; two have a value,
    # but the jackknife needs three
    purity = [r for r in rows if r["quantity"] == "purity"]
    assert purity[0]["value"] is None and purity[0]["stderr"] is None
    assert purity[1]["value"] is not None and purity[1]["stderr"] is None
    assert None not in (purity[2]["value"], purity[2]["stderr"])
    # the same run as CSV: each JSONL row has the header's keys in order, and
    # its values print as the CSV row does, null as nan (wall_ms is a timing)
    csv = tmp_path / "r.csv"
    assert run("estimate", "--file", str(shots), "--purity", "full",
               "--renyi", "all:1", "--interval", "1", "--no-stopping",
               "--out", str(csv)) == 0
    header, *csv_rows = csv.read_text().strip().split("\n")
    assert header == CSV_HEADER and len(csv_rows) == len(rows)
    for row, csv_row in zip(rows, csv_rows):
        assert list(row) == header.split(",")
        printed = EstimateReport(**{key: math.nan if v is None else v
                                    for key, v in row.items()}).to_csv_row()
        assert printed.split(",")[:-1] == csv_row.split(",")[:-1]


def test_estimate_rejects_pauli_file(tmp_path, capsys):
    out = tmp_path / "p.pauli"
    run("simulate", "--state", "ghz:1", "--povm", "pauli", "--shots", "9",
        "--out", str(out))
    assert run("estimate", "--file", str(out), "--purity", "full") == 3
    assert "sic" in capsys.readouterr().err


def test_estimate_bad_targets(tmp_path, capsys):
    shots = simulate(tmp_path, shots=100, seed=4)
    assert run("estimate", "--file", str(shots), "--fidelity", "ghz:3") == 3
    assert run("estimate", "--file", str(shots), "--fidelity", "mixed:2") == 3
    assert run("estimate", "--file", str(shots)) == 3  # nothing tracked
    assert run("estimate", "--file", str(tmp_path / "missing.sic"),
               "--purity", "full") == 3


def test_estimate_refuses_duplicate_purity_qubits(tmp_path, capsys):
    shots = simulate(tmp_path, state="ghz:3", shots=100, seed=4)
    out = tmp_path / "report.csv"
    assert run("estimate", "--file", str(shots), "--purity", "0,0;1,2,1",
               "--no-stopping", "--out", str(out)) == 3
    assert "duplicate qubits" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (("--purity", "0,1;1,0"), "purity subset 0-1 is listed more than once"),
    (("--renyi", "0;0;1,2"), "Renyi-2 cut 0 is listed more than once"),
    (("--renyi", "1,2;0"), "Renyi-2 cut 0 is listed more than once")])
def test_estimate_refuses_repeated_quantities(flags, message, tmp_path,
                                              capsys):
    shots = simulate(tmp_path, state="ghz:3", shots=100, seed=4)
    out = tmp_path / "report.csv"
    assert run("estimate", "--file", str(shots), *flags, "--no-stopping",
               "--out", str(out)) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("n_qubits", 2.9), ("n_qubits", 2.0), ("n_qubits", "2"), ("seed", "7"),
    ("seed", None), ("batch", True), ("batch", 1.5)])
@pytest.mark.parametrize("argv", [
    ("reconstruct", "--method", "lininv"), ("estimate", "--purity", "full")])
def test_header_integers_refused(key, value, argv, tmp_path, capsys):
    # int() would read n_qubits 2.9 as 2 and accept "7" and true
    header = {"n_qubits": 2, "povm": "sic", "frame": "standard", "seed": 0,
              "batch": 1, key: value}
    path = tmp_path / "shots.sic"
    path.write_text("#TOMO v1\n" + json.dumps(header) + "\n01\n23\n")
    out = tmp_path / "out"
    assert run(*argv, "--file", str(path), "--out", str(out)) == 3
    assert (f"line 2: header {key} must be an integer"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("reconstruct", "--method", "lininv"),
    ("estimate", "--fidelity", "random-pure:2")])
def test_header_negative_seed_refused(argv, tmp_path, capsys):
    header = {"n_qubits": 2, "povm": "sic", "frame": "standard", "seed": -3,
              "batch": 1}
    path = tmp_path / "shots.sic"
    path.write_text("#TOMO v1\n" + json.dumps(header) + "\n01\n23\n")
    out = tmp_path / "out"
    assert run(*argv, "--file", str(path), "--out", str(out)) == 3
    assert "line 2: seed must be >= 0, not -3" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "out.manifest.json").exists()


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_estimate_refuses_tol_not_finite(tol, tmp_path, capsys):
    shots = simulate(tmp_path, shots=100, seed=4)
    out = tmp_path / "report.csv"
    assert run("estimate", "--file", str(shots), "--purity", "full",
               "--tol", tol, "--out", str(out)) == 3
    assert "tol must be positive and finite" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "report.csv.manifest.json").exists()


# --- reconstruct --------------------------------------------------------------------


def test_reconstruct_methods_agree(tmp_path, capsys):
    shots = simulate(tmp_path, state="ghz:2", shots=3000, seed=5)
    mats = {}
    for method in ("lininv", "shadow-mean", "pls", "mle"):
        out = tmp_path / f"{method}.json"
        assert run("reconstruct", "--file", str(shots), "--method", method,
                   "--out", str(out)) == 0
        mats[method], meta = load_matrix(out)
        assert meta["meta"]["method"] == method
        assert meta["meta"]["shots"] == 3000
    # dense pseudo-inverse and per-site inversion are the same linear map
    assert np.max(np.abs(mats["lininv"] - mats["shadow-mean"])) < 1e-8
    for method in ("pls", "mle"):
        assert abs(np.trace(mats[method]).real - 1) < 1e-9
        assert np.linalg.eigvalsh(mats[method])[0] > -1e-9
    ghz = np.zeros(4)
    ghz[[0, 3]] = 1 / math.sqrt(2)
    for method, mat in mats.items():
        assert abs(np.vdot(ghz, mat @ ghz).real - 1) < 0.1, method


def test_reconstruct_uniform_counts_give_maximally_mixed(tmp_path):
    digits = digits_from_indices(np.arange(16), 2)
    path = tmp_path / "uniform.sic"
    write_shots(path, ShotFileHeader(n_qubits=2), digits)
    out = tmp_path / "rho.json"
    assert run("reconstruct", "--file", str(path), "--method", "lininv",
               "--out", str(out)) == 0
    mat, _ = load_matrix(out)
    np.testing.assert_allclose(mat, np.eye(4) / 4, atol=1e-9)


def test_reconstruct_mle_weights(tmp_path):
    out = tmp_path / "p.pauli"
    run("simulate", "--state", "ghz:1", "--povm", "pauli", "--shots", "600",
        "--out", str(out))
    rec = tmp_path / "rho.json"
    assert run("reconstruct", "--file", str(out), "--method", "mle",
               "--weights", "multinomial", "--out", str(rec)) == 0
    mat, _ = load_matrix(rec)
    assert abs(np.trace(mat).real - 1) < 1e-9


@pytest.mark.parametrize("method", ["lininv", "pls", "mle", "shadow-mean"])
def test_reconstruct_refuses_empty_shot_file(method, tmp_path, capsys):
    # a header and no records: every method refuses it and writes nothing
    path = tmp_path / "empty.sic"
    write_shots(path, ShotFileHeader(n_qubits=2),
                np.empty((0, 2), dtype=np.uint8))
    out = tmp_path / "rho.json"
    assert run("reconstruct", "--file", str(path), "--method", method,
               "--out", str(out)) == 3
    want = ("empty accumulator" if method == "shadow-mean"
            else "sic counts must hold at least one shot")
    assert want in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "rho.json.manifest.json").exists()


def test_estimate_refuses_empty_shot_file(tmp_path, capsys):
    # a header and no records: refused before any report or manifest, also
    # when the header claims 300 000 qubits, since decoding needs no table
    # that grows with N
    for n in (2, 300000):
        path = tmp_path / "empty.sic"
        write_shots(path, ShotFileHeader(n_qubits=n),
                    np.empty((0, n), dtype=np.uint8))
        out = tmp_path / "e.csv"
        assert run("estimate", "--file", str(path), "--purity", "0,1",
                   "--out", str(out)) == 3
        assert "holds no shot records" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "e.csv.manifest.json").exists()


@pytest.mark.parametrize("method", ["lininv", "pls", "shadow-mean"])
def test_reconstruct_weights_only_with_mle(method, tmp_path, capsys):
    shots = simulate(tmp_path, shots=200)
    out = tmp_path / "rho.json"
    assert run("reconstruct", "--file", str(shots), "--method", method,
               "--weights", "multinomial", "--out", str(out)) == 3
    assert "--method mle" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "rho.json.manifest.json").exists()


def test_reconstruct_mle_cap_exit_code(tmp_path, capsys):
    digits = np.zeros((10, 6), dtype=np.uint8)
    path = tmp_path / "big.sic"
    write_shots(path, ShotFileHeader(n_qubits=6), digits)
    out = tmp_path / "rho.json"
    assert run("reconstruct", "--file", str(path), "--method", "mle",
               "--out", str(out)) == 4
    err = capsys.readouterr().err
    assert "5" in err and "mle" in err


def test_estimate_purity_cap_exit_code(tmp_path, capsys):
    # a 12-qubit purity needs three 4^12 * 8-byte arrays (histogram, V c,
    # readout temporary) and one 2^16-row ingest block of 28 bytes a row
    path = tmp_path / "wide.sic"
    write_shots(path, ShotFileHeader(n_qubits=12),
                np.zeros((10, 12), dtype=np.uint8))
    out = tmp_path / "report.csv"
    assert run("estimate", "--file", str(path), "--purity", "full",
               "--out", str(out)) == 4
    assert "404,488,192 bytes" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "report.csv.manifest.json").exists()


def test_estimate_fidelity_lut_cap_exit_code(tmp_path, capsys):
    # a 12-qubit fidelity target's table holds 4^12 float entries, and a
    # 100-row interval's ingest 32 bytes a row; the engine refuses them
    # before its dense 4^12 complex target is made
    path = tmp_path / "twelve.sic"
    write_shots(path, ShotFileHeader(n_qubits=12),
                np.zeros((10, 12), dtype=np.uint8))
    out = tmp_path / "report.csv"
    assert run("estimate", "--file", str(path), "--fidelity", "ghz:12",
               "--out", str(out)) == 4
    assert ("online engine on 12 qubits needs 134,220,928 bytes"
            in capsys.readouterr().err)
    assert not out.exists()


def _zeros_file(path, n, povm="sic"):
    digits = np.zeros((10, n), dtype=np.uint8)
    write_shots(path, ShotFileHeader(n_qubits=n, povm=povm),
                digits if povm == "sic" else (digits, digits))
    return str(path)


# every refusal exits 4 with its byte estimate, before any output is written
@pytest.mark.parametrize("case", [
    lambda d: ("estimate", "--file", _zeros_file(d / "x.sic", 12),
               "--purity", "full", "--renyi", "all:1"),
    lambda d: ("estimate", "--file", _zeros_file(d / "x.sic", 12),
               "--fidelity", "ghz:12"),
    lambda d: ("reconstruct", "--file", _zeros_file(d / "x.sic", 12),
               "--method", "lininv"),
    lambda d: ("reconstruct", "--file", _zeros_file(d / "x.pauli", 9, "pauli"),
               "--method", "pls"),
    lambda d: ("reconstruct", "--file", _zeros_file(d / "x.sic", 6),
               "--method", "mle"),
    lambda d: ("simulate", "--state", "ghz:40", "--shots", "10"),
    lambda d: ("simulate", "--state", "mixed:20", "--shots", "10"),
    # the state fits; its exact distribution does not
    lambda d: ("simulate", "--state", "mixed:11", "--shots", "1000"),
    lambda d: ("simulate", "--state", "ghz:16", "--shots", "4096"),
    # past 4300 digits Python refuses to print the byte count in full
    lambda d: ("simulate", "--state", "ghz:20000", "--shots", "10"),
    lambda d: ("simulate", "--state", "mixed:8000", "--shots", "10"),
], ids=["purity", "lut", "superoperator", "pauli-superoperator", "mle",
        "pure-state", "mixed-state", "mixed-distribution", "pershot-sampler",
        "huge-pure-state", "huge-mixed-state"])
def test_every_cli_refusal_states_bytes(case, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(*case(tmp_path), "--out", str(out)) == 4
    err = capsys.readouterr().err
    assert " bytes; capped at " in err
    assert not out.exists()
    assert not (tmp_path / "out.manifest.json").exists()


def test_estimate_fidelity_at_paper_scale(tmp_path):
    shots = simulate(tmp_path, state="ghz:8", shots=3000, seed=3)
    out = tmp_path / "report.csv"
    assert run("estimate", "--file", str(shots), "--fidelity", "ghz:8",
               "--renyi", "all:2", "--out", str(out)) in (0, 2)
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    value, stderr = [(float(r[4]), float(r[5])) for r in rows
                     if r[2] == "fidelity:ghz:8"][-1]
    assert 0 < stderr and abs(value - 1) < 6 * stderr
    assert {r[2] for r in rows} == {"fidelity:ghz:8", "renyi2"}


@pytest.mark.parametrize("method", ["lininv", "pls"])
def test_reconstruct_at_paper_scale(method, tmp_path):
    shots = simulate(tmp_path, state="ghz:8", shots=3000, seed=4)
    out = tmp_path / "rho.json"
    assert run("reconstruct", "--file", str(shots), "--method", method,
               "--out", str(out)) == 0
    mat, d = load_matrix(out)
    assert mat.shape == (256, 256) and d["meta"]["shots"] == 3000
    assert abs(np.trace(mat) - 1) < 1e-9
    assert np.allclose(mat, mat.conj().T)


@pytest.mark.parametrize("method", ["lininv", "shadow-mean"])
def test_reconstruct_json_equals_one_dumps(method, tmp_path, monkeypatch):
    """At N = 8 the file, written four blocks each of re and im at a time,
    is json.dumps of the state's whole dict. Both come from the same state
    and meta: two fits in one process can differ in the residual's last
    digit."""
    dumped, write_state_json = [], RECONSTRUCT.write_state_json

    def dump_then_write(fh, state, meta=None):
        dumped.append(json.dumps(state_to_json_dict(state, meta)) + "\n")
        write_state_json(fh, state, meta)
    monkeypatch.setattr(RECONSTRUCT, "write_state_json", dump_then_write)
    shots = simulate(tmp_path, state="ghz:8", shots=3000, seed=4)
    out = tmp_path / "rho.json"
    assert run("reconstruct", "--file", str(shots), "--method", method,
               "--out", str(out)) == 0
    same = out.read_text() == dumped[0]  # no diff of two 2.6 MB lines
    assert same


@pytest.mark.parametrize("method", ["lininv", "pls", "mle"])
def test_reconstruct_counts_sic_files_chunk_by_chunk(method, tmp_path):
    """`reconstruct` counts a SIC file one chunk at a time, here three
    chunks; its file is the fit of the whole file's counts."""
    shots = simulate(tmp_path, state="ghz:3", shots=9000, seed=5)
    out = tmp_path / "rho.json"
    assert run("reconstruct", "--file", str(shots), "--method", method,
               "--out", str(out)) == 0
    digits = np.concatenate(list(iter_sic_chunks(shots)))
    freqs = FrequencyVector.from_sic_shots(digits)
    res = reconstruct(freqs, FrameSuperoperator("sic", 3,
                                                frame=sic_frame("standard")),
                      method)
    fh = io.StringIO()
    res.write_json(fh, freqs.total_shots)
    got, want = json.loads(out.read_text()), json.loads(fh.getvalue())
    # two fits in one process can differ in the residual's last digit
    assert got["meta"].pop("residual") == pytest.approx(
        want["meta"].pop("residual"), rel=1e-12, abs=1e-15)
    assert got == want


def test_reconstruct_counting_memory_does_not_grow_with_shots(tmp_path,
                                                              hwm_growth):
    """At N = 6, lininv on 400 000 shots raises the peak no more than on
    20 000: the counts are one 4^N array, filled chunk by chunk. Reading
    the whole file, digits and codes, raised it by about 6 MB more."""
    def argv(shots):
        path = simulate(tmp_path, state="ghz:6", shots=shots, seed=6,
                        name=f"{shots}.sic")
        return ["reconstruct", "--file", str(path), "--method", "lininv",
                "--out", str(tmp_path / "rho.json")]

    small, large = argv(20_000), argv(400_000)
    setup = ("import contextlib, io\n"
             "from sictomo.cli import main\n"
             "def quiet(argv):\n"
             "    with contextlib.redirect_stdout(io.StringIO()):\n"
             "        assert main(argv) == 0\n"
             f"quiet({small!r})")  # a first run leaves its one-off peaks
    grew = [hwm_growth(setup, f"quiet({a!r})") for a in (small, large)]
    assert grew[1] - grew[0] < 2**20, grew


@pytest.mark.parametrize("state,shots,flags", [
    ("ghz:10", 50_000, ("--purity", "full", "--interval", "10000")),
    ("ghz:11", 50_000, ("--renyi", "all:5", "--interval", "50000")),
    ("ghz:12", 4_000, ("--renyi", "all:6")),
    ("ghz:12", 1_000, ("--renyi", "all:6", "--interval", "10")),
], ids=["ghz10-full-purity", "ghz11-renyi-all5", "ghz12-renyi-all6",
        "ghz12-renyi-all6-interval10"])
def test_estimate_memory_within_the_engine_state_bytes(tmp_path, hwm_growth,
                                                       state, shots, flags):
    """A whole `estimate` run raises the peak by no more than the engine's
    stated bytes. Ingesting a 50 000-row interval in one gather raised it by
    about 360 MB on GHZ-11, a readout that formed (r - r_mean) ** 2 held
    three temporaries of a histogram's size, and feeding a whole file chunk
    at once built the reports of every interval in it, 2 047 each."""
    warm = simulate(tmp_path, state="ghz:4", shots=500, seed=2,
                    name="warm.sic")
    path = simulate(tmp_path, state=state, shots=shots, seed=1)
    out = tmp_path / "e.csv"

    def argv(shot_file, *more):
        return ["estimate", "--file", str(shot_file), *more, "--no-stopping",
                "--out", str(out)]
    first = argv(warm, "--purity", "full", "--renyi", "all:2")
    setup = ("from sictomo.cli import main\n"  # a first run leaves one-offs
             f"assert main({first!r}) == 0")
    grew = hwm_growth(setup, f"assert main({argv(path, *flags)!r}) == 0")
    stated = json.loads(
        (tmp_path / "e.csv.manifest.json").read_text())["engine_state_bytes"]
    assert grew <= stated, (grew, stated)


def test_estimate_memory_does_not_grow_with_the_interval(tmp_path,
                                                         hwm_growth):
    """On 500 000 GHZ-8 shots, one 500 000-row interval raises the peak no
    more than 500 intervals of 1 000 rows: the engine ingests each chunk as
    it arrives and holds no rows. Joining an interval's rows before
    ingesting them held the rows, their codes, the fidelity values and the
    moment temporaries, about 17 MB more."""
    path = simulate(tmp_path, state="ghz:8", shots=500_000, seed=1)

    def argv(interval):
        return ["estimate", "--file", str(path), "--fidelity", "ghz:8",
                "--purity", "0,1", "--no-stopping", "--interval",
                str(interval), "--out", str(tmp_path / "e.csv")]
    setup = ("import contextlib, io\n"
             "from sictomo.cli import main\n"
             "def quiet(argv):\n"
             "    with contextlib.redirect_stdout(io.StringIO()):\n"
             "        assert main(argv) == 0\n"
             f"quiet({argv(1000)!r})")  # a first run leaves its one-off peaks
    grew = [hwm_growth(setup, f"quiet({argv(i)!r})") for i in (1000, 500_000)]
    assert grew[1] - grew[0] < 2 * 2**20, grew


def test_mixed_state_is_one_complex_array(hwm_growth):
    """`mixed:10` holds the 16 x 4^10 bytes its check states, even once every
    page is written. A float identity divided by 2^N and then cast to
    complex raised the peak by 25.7 MB."""
    grew = hwm_growth("from sictomo.cli import parse_state",
                      "parse_state('mixed:10').matrix.__iadd__(0)")
    assert grew <= 16 * 4**10 + 2**20, grew


class DenseViewBuilt(Exception):
    """What FrameSuperoperator._dense raises while it is patched out."""


def refuse_dense(self, site):
    raise DenseViewBuilt(self.kind)


def test_only_mle_builds_a_dense_view(tmp_path, monkeypatch):
    """Every command but `reconstruct --method mle` runs with the dense
    frame views patched out, so deleting them takes away mle's step size
    and nothing else."""
    monkeypatch.setattr(FrameSuperoperator, "_dense", refuse_dense)
    sic = simulate(tmp_path, state="ghz:3", shots=2000, seed=3)
    pauli = simulate(tmp_path, state="ghz:3", shots=2700, seed=3,
                     name="shots.pauli", extra=("--povm", "pauli"))
    out = tmp_path / "out"
    # exit 2: the file ran out before the stopping rule was met
    assert run("estimate", "--file", str(sic), "--fidelity", "ghz:3",
               "--purity", "full;0,1", "--renyi", "all:1",
               "--out", str(out)) in (0, 2)
    for path, method in ((sic, "lininv"), (sic, "pls"),
                         (sic, "shadow-mean"), (pauli, "pls")):
        assert run("reconstruct", "--file", str(path), "--method", method,
                   "--out", str(out)) == 0
    assert run("game", "--trials", "2", "--out", str(out)) == 0
    assert run("budget", "--k", "3", "--epsilon", "0.1", "--delta", "0.01",
               "--out", str(out)) == 0
    for path in (sic, pauli):
        with pytest.raises(DenseViewBuilt):
            run("reconstruct", "--file", str(path), "--method", "mle",
                "--out", str(out))


@pytest.mark.parametrize("povm, argv", [
    ("sic", ("estimate", "--purity", "0")),
    ("sic", ("reconstruct", "--method", "lininv")),
    ("pauli", ("reconstruct", "--method", "pls")),
])
def test_non_ascii_record_names_its_line(povm, argv, tmp_path, capsys):
    path = tmp_path / "shots.txt"
    run("simulate", "--state", "ghz:2", "--povm", povm, "--shots", "9",
        "--out", str(path))
    lines = path.read_bytes().split(b"\n")
    lines[4] = lines[4][:1] + b"\xc3\xa9" + lines[4][3:]  # third record
    path.write_bytes(b"\n".join(lines))
    out = tmp_path / "out"
    assert run(argv[0], "--file", str(path), *argv[1:],
               "--out", str(out)) == 3
    assert "line 5: non-ASCII byte 0xc3" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "out.manifest.json").exists()


@pytest.mark.parametrize("argv", [
    ("estimate", "--purity", "0"),
    ("reconstruct", "--method", "lininv"),
    ("reconstruct", "--method", "shadow-mean"),
])
def test_record_cut_across_lines_is_refused(argv, tmp_path, capsys):
    # 3 + 1 + 2 characters hold three 2-digit records' worth of digits, but
    # no line is a record
    path = tmp_path / "shots.sic"
    write_shots(path, ShotFileHeader(n_qubits=2), np.empty((0, 2), np.uint8))
    path.write_bytes(path.read_bytes() + b"011\n2\n33\n")
    out = tmp_path / "out"
    assert run(argv[0], "--file", str(path), *argv[1:],
               "--out", str(out)) == 3
    assert "line 3: expected 2 digits, got 3" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "out.manifest.json").exists()


@pytest.mark.parametrize("cmd", [
    ("simulate", "--state", "ghz:1", "--shots", "1", "--out", "x.sic"),
    ("estimate", "--file", "x.sic", "--purity", "full"),
    ("reconstruct", "--file", "x.sic", "--method", "pls", "--out", "x.json"),
    ("game",),
])
def test_threads_flag_removed(cmd, capsys):
    assert run(*cmd, "--threads", "2") == 3
    assert "--threads" in capsys.readouterr().err


# --- budget ---------------------------------------------------------------------------


def test_budget_stdout(capsys):
    assert run("budget", "--k", "1", "--epsilon", "0.1",
               "--delta", "0.01") == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "k,l,epsilon,delta,m_observable,m_purity"
    assert out[1] == "1,1,0.1,0.01,8478,180000"


def test_budget_file_and_validation(tmp_path, capsys):
    out = tmp_path / "b.csv"
    assert run("budget", "--k", "2", "--l", "1", "--epsilon", "0.1",
               "--delta", "0.1", "--out", str(out)) == 0
    assert out.read_text().strip().split("\n")[1].endswith(",54000")
    assert (tmp_path / "b.csv.manifest.json").exists()
    assert run("budget", "--k", "1", "--epsilon", "2.0",
               "--delta", "0.1") == 3
    assert run("budget", "--k", "647", "--epsilon", "0.1",
               "--delta", "0.1") == 3
    captured = capsys.readouterr()
    assert "observable budget for k=647, " in captured.err
    assert captured.out == ""


# --- game -----------------------------------------------------------------------------


def test_game_csv_deterministic(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run("game", "--trials", "4", "--seed", "11", "--out", str(a)) == 0
    assert run("game", "--trials", "4", "--seed", "11", "--out", str(b)) == 0
    assert a.read_text() == b.read_text()
    lines = a.read_text().strip().split("\n")
    assert lines[0] == GAME_CSV_HEADER
    assert len(lines) == 5
    assert "correct" in capsys.readouterr().err
    trials = [int(line.split(",")[0]) for line in lines[1:]]
    assert trials == [0, 1, 2, 3]


@pytest.mark.parametrize("flag", ["--trials", "--shot-cap"])
def test_game_refuses_empty_runs(flag, tmp_path, capsys):
    out = tmp_path / "game.csv"
    assert run("game", flag, "0", "--out", str(out)) == 3
    assert "must be >= 1" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "game.csv.manifest.json").exists()


# --- verify ---------------------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["simulate", "--state", "ghz:2", "--shots", "10", "--out", "{out}"],
    ["game", "--out", "{out}"],
    ["verify"],
], ids=["simulate", "game", "verify"])
def test_negative_seed_is_invalid_input(argv, tmp_path, capsys):
    out = tmp_path / "out"
    argv = [str(out) if arg == "{out}" else arg for arg in argv]
    assert run(*argv, "--seed", "-1") == 3
    err = capsys.readouterr().err
    assert "argument --seed: invalid non_negative_int value: '-1'" in err
    assert not out.exists()


def test_verify_all_checks_pass(capsys):
    assert run("verify") == 0
    out = capsys.readouterr().out
    assert "OK: all checks passed" in out
    passes = [l for l in out.strip().split("\n") if l.startswith("PASS ")]
    assert len(passes) == 11
    assert "PASS frame-identities" in out
    assert "PASS lininv-shadow-equivalence" in out
    assert "PASS p3-triple-identity" in out
    assert "PASS purity-jackknife-identity" in out
