"""Shot files pinned by hash: `simulate --seed 1` must keep writing the same
bytes. Shot files hold only integer outcomes, so BLAS rounding cannot change
them; a changed hash means the sampler, the seed streams or the file format
changed."""

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
