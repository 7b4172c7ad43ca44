"""Outputs pinned by hash. Shot files: `simulate --seed 1` must keep writing
the same bytes. Shot files hold only integer outcomes, so BLAS rounding
cannot change them; a changed hash means the sampler, the seed streams or
the file format changed. Reports: an `estimate` CSV without its `wall_ms`
column and a `game` CSV. Both read their values through lookup tables; a
change in the tables' arithmetic can move a game declaration by one shot,
while the estimate CSV prints too few digits to show most such changes."""

import hashlib

import pytest

from sictomo.cli import main

GOLDEN = [
    (("--state", "ghz:3", "--shots", "500"),
     "ce4495baf1276cc8e3a138b6659fb34161b4d61296835a3203bf85a67931439c"),
    (("--state", "ame5", "--povm", "pauli", "--shots", "200"),
     "aff0e3c88e2ff137f0ec9343c103fab4d3a59cf564142d1b800c395c1c6c606d"),
    # above the exact-distribution cap: the per-shot sampler
    (("--state", "ghz:12", "--shots", "64"),
     "86927222e9f55cf2b9acd3ac6191031bf4028cc5f6edb58b1a7b60aada55c3aa"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN,
                         ids=["ghz3-sic", "ame5-pauli", "ghz12-pershot"])
def test_simulate_writes_golden_bytes(argv, digest, tmp_path):
    out = tmp_path / "shots"
    assert main(["simulate", *argv, "--seed", "1", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def sha256(path, drop_last_column=False):
    lines = path.read_text().splitlines()
    if drop_last_column:
        lines = [line.rsplit(",", 1)[0] for line in lines]
    return hashlib.sha256("".join(f"{line}\n" for line in lines)
                          .encode("ascii")).hexdigest()


def test_estimate_writes_golden_report(tmp_path):
    shots, report = tmp_path / "shots", tmp_path / "report.csv"
    assert main(["simulate", "--state", "ghz:4", "--shots", "2000",
                 "--seed", "1", "--out", str(shots)]) == 0
    assert main(["estimate", "--file", str(shots), "--fidelity", "ghz:4",
                 "--purity", "0,1", "--renyi", "all:2", "--interval", "500",
                 "--no-stopping", "--out", str(report)]) == 0
    assert sha256(report, drop_last_column=True) == (
        "5f9e2fd72dee8e88120944ac2227b6a789051249d8c0acd7165d431c9856b8bb")


def test_game_writes_golden_report(tmp_path):
    # 40 trials: building the tables as V p, from the outcome law, moves
    # the declaration of trials 35 and 39 by one shot, and none before them
    report = tmp_path / "game.csv"
    assert main(["game", "--trials", "40", "--seed", "1",
                 "--out", str(report)]) == 0
    assert sha256(report) == (
        "91cc7ac49a0215bb284e9376b41dd1cdd4818e34baea7a9d182f56df7fe339ff")
