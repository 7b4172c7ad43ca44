"""Benchmark workloads: the CLI stages each one runs and what they must output.

A workload is a fixed pipeline of `python -m sictomo` stages whose inputs
come from the benchmark seed. The output checks compare the final estimates
with exact values from `sictomo.qstate` and the reconstructions and game
with stated floors.
"""

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from sictomo.budget import quadratic_variance_bound
from sictomo.cli import parse_state
from sictomo.estimators import all_bipartitions
from sictomo.povm import FrameSuperoperator, sic_frame
from sictomo.qstate import (DensityOperator, fidelity_pure, purity_exact,
                            renyi2_exact)
from sictomo.shadows import ShadowAccumulator
from sictomo.stream import Game, OnlineEngine, TrackerConfig

# an estimate passes when it lies within this many standard errors of the
# exact value: its reported one, combined for purities with the a-priori
# second-order term (see _second_order_se); with ~100 checks per run a
# Gaussian tail beyond 6 sigma fails about once in ten million runs
Z_LIMIT = 6.0
# lininv and shadow-mean are the same linear map; `sictomo verify` checks it
AGREE_TOL = 1e-8
# fidelity of each full reconstruction to the true state at the shot counts
# below; typical values at 20k shots are 0.996 (lininv, shadow-mean), 0.96
# (mle) and 0.91 (pls, both frames), with seed-to-seed spread near 0.01
FIDELITY_FLOORS = {"lininv": 0.9, "shadow-mean": 0.9, "pls": 0.8, "mle": 0.85,
                   "pauli-pls": 0.8}
# the game names the right cluster state in nearly every trial
GAME_FLOOR = 0.8

# `estimate --no-stopping` exits 2 ("shots exhausted") by design
ESTIMATE_OK_CODES = (0, 2)


@dataclass(frozen=True)
class Stage:
    """One CLI invocation; file arguments are relative to the work dir."""

    name: str
    kind: str                  # simulate, estimate, reconstruct or game
    argv: tuple
    output: str
    ok_codes: tuple = (0,)
    shots: int = 0             # records a simulate stage writes
    interval: int = 0          # rows per report for an estimate stage


@dataclass(frozen=True)
class EstimateSpec:
    fidelity: str = ""         # pure target state spec, or none
    purity: tuple = ()         # one qubit subset, or none
    renyi_k: int = 2           # every bipartition with smaller side <= k
    interval: int = 1000

    def argv(self, shot_file, out):
        args = ["estimate", "--file", shot_file]
        if self.fidelity:
            args += ["--fidelity", self.fidelity]
        if self.purity:
            args += ["--purity", ",".join(str(q) for q in self.purity)]
        args += ["--renyi", f"all:{self.renyi_k}",
                 "--interval", str(self.interval), "--no-stopping",
                 "--out", out]
        return tuple(args)

    def config(self, n_qubits):
        """The TrackerConfig the estimate stage builds from these flags."""
        targets = ([(self.fidelity, parse_state(self.fidelity))]
                   if self.fidelity else [])
        return TrackerConfig(
            n_qubits=n_qubits, fidelity_targets=targets,
            purity_subsets=[self.purity] if self.purity else [],
            renyi_parts=all_bipartitions(n_qubits, self.renyi_k),
            interval=self.interval)


@dataclass(frozen=True)
class Workload:
    name: str
    state: str                 # state spec for every simulate stage
    shots: int                 # SIC shots
    estimate: EstimateSpec
    reconstruct: tuple = ()    # methods run on the SIC file
    pauli_shots: int = 0       # >0 adds simulate --povm pauli + pls
    game_trials: int = 0

    def stages(self, seed):
        out = [Stage("simulate", "simulate",
                     ("simulate", "--state", self.state, "--shots",
                      str(self.shots), "--seed", str(seed), "--out",
                      "shots.sic"), "shots.sic", shots=self.shots),
               Stage("estimate", "estimate",
                     self.estimate.argv("shots.sic", "estimate.csv"),
                     "estimate.csv", ok_codes=ESTIMATE_OK_CODES,
                     interval=self.estimate.interval)]
        for method in self.reconstruct:
            argv = ["reconstruct", "--file", "shots.sic", "--method", method,
                    "--out", f"{method}.json"]
            if method == "mle":
                argv[-2:-2] = ["--weights", "multinomial"]
            out.append(Stage(f"reconstruct-{method}", "reconstruct",
                             tuple(argv), f"{method}.json"))
        if self.pauli_shots:
            out.append(Stage("simulate-pauli", "simulate",
                             ("simulate", "--povm", "pauli", "--state",
                              self.state, "--shots", str(self.pauli_shots),
                              "--seed", str(seed), "--out", "shots.pauli"),
                             "shots.pauli", shots=self.pauli_shots))
            out.append(Stage("reconstruct-pauli-pls", "reconstruct",
                             ("reconstruct", "--file", "shots.pauli",
                              "--method", "pls", "--out", "pauli-pls.json"),
                             "pauli-pls.json"))
        if self.game_trials:
            out.append(Stage("game", "game",
                             ("game", "--trials", str(self.game_trials),
                              "--seed", str(seed), "--out", "game.csv"),
                             "game.csv"))
        return out

    def sizes(self):
        return {"state": self.state, "shots": self.shots,
                "interval": self.estimate.interval,
                "pauli_shots": self.pauli_shots,
                "game_trials": self.game_trials}


STAGE_NAMES = ("simulate", "estimate", "reconstruct-lininv",
               "reconstruct-shadow-mean", "reconstruct-pls",
               "reconstruct-mle", "simulate-pauli", "reconstruct-pauli-pls",
               "game")


def _marginal(state, keep):
    """Reduced density operator of a pure state on the qubits in `keep`."""
    n = state.n_qubits
    t = np.moveaxis(state.amplitudes.reshape((2,) * n), keep,
                    range(len(keep))).reshape(2 ** len(keep), -1)
    return DensityOperator(t @ t.conj().T, check=False)


def _second_order_se(k, m):
    """Standard error of the second-order term of the purity U-statistic
    over m shots on k qubits, from sictomo.budget's a-priori bound on the
    pair-kernel variance. The jackknife misses this term where the
    first-order term vanishes, as on a maximally mixed marginal."""
    return math.sqrt(2 * quadratic_variance_bound(k) / (m * (m - 1)))


def exact_values(state_spec, est, shots):
    """(quantity, subset) -> (exact value, extra standard error) for every
    row the estimate reports."""
    state = parse_state(state_spec)
    n = state.n_qubits
    exact = {}
    if est.fidelity:
        exact[(f"fidelity:{est.fidelity}", "all")] = (fidelity_pure(
            state.density(), parse_state(est.fidelity)), 0.0)
    if est.purity:
        exact[("purity", "-".join(str(q) for q in est.purity))] = (
            purity_exact(_marginal(state, est.purity)),
            _second_order_se(len(est.purity), shots))
    for part in all_bipartitions(n, est.renyi_k):
        side = part.smaller_side
        purity = purity_exact(_marginal(state, side))
        # delta method, as the estimate's own Renyi-2 stderr
        exact[("renyi2", part.label())] = (
            renyi2_exact(_marginal(state, side)),
            _second_order_se(len(side), shots) / (purity * math.log(2)))
    return exact


def make_workload(name, smoke=False):
    """The named workload at benchmark size, or at a quick smoke size."""
    if name == "ghz8-stream":
        return Workload(name, "ghz:8", 2000 if smoke else 50000,
                        EstimateSpec(purity=(0, 1, 2, 3, 4, 5),
                                     interval=500 if smoke else 1000))
    if name == "paper-small":
        # shot counts stay at full size: the fidelity floors assume them and
        # the dense superoperator builds cost the same at any shot count
        return Workload(name, "ame5", 20000,
                        EstimateSpec(fidelity="ame5", interval=100),
                        reconstruct=("lininv", "shadow-mean", "pls", "mle"),
                        pauli_shots=20000, game_trials=20 if smoke else 100)
    if name == "ghz12-wide":
        return Workload(name, "ghz:12", 300 if smoke else 8192,
                        EstimateSpec(interval=100 if smoke else 1000))
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("ghz8-stream", "paper-small", "ghz12-wide")


def build_setup(w):
    """Build what the workload's stages build before their first shot:
    states, the online engine with its LUTs and trackers, the dense frame
    superoperators and the game."""
    frame = sic_frame("standard")
    state = parse_state(w.state)
    built = [state, OnlineEngine(w.estimate.config(state.n_qubits), frame)]
    kinds = (["sic"] if set(w.reconstruct) - {"shadow-mean"} else []) + \
        (["pauli"] if w.pauli_shots else [])
    for kind in kinds:
        superop = FrameSuperoperator(kind, state.n_qubits,
                                     frame=frame if kind == "sic" else None)
        superop.probability_map()
        superop.pinv_matrix()
        built.append(superop)
    if "shadow-mean" in w.reconstruct:
        built.append(ShadowAccumulator(state.n_qubits,
                                       range(state.n_qubits), frame))
    if w.game_trials:
        built.append(Game(frame))
    return built


# --- output checks ---------------------------------------------------------


def _check(name, ok, detail):
    return {"name": name, "ok": bool(ok), "detail": detail}


def read_final_estimates(path):
    """Last reported (shots, value, stderr) per (quantity, subset)."""
    final = {}
    with open(path, newline="", encoding="ascii") as f:
        for row in csv.DictReader(f):
            final[(row["quantity"], row["subset"])] = (
                int(row["shots"]), float(row["value"]), float(row["stderr"]))
    return final


def read_matrix(path):
    with open(path, encoding="ascii") as f:
        d = json.load(f)
    dim = 2 ** d["n_qubits"]
    mat = (np.array(d["re"]) + 1j * np.array(d["im"])).reshape(dim, dim)
    return mat, d["meta"]


def read_game(path):
    with open(path, newline="", encoding="ascii") as f:
        rows = list(csv.DictReader(f))
    return [(int(r["correct"]), int(r["shots"])) for r in rows]


def shots_consumed(stage, workdir):
    """Shots an analysis stage reports having used; 0 if its output is
    missing or unreadable, which its checks report as failures."""
    path = os.path.join(workdir, stage.output)
    try:
        if stage.kind == "estimate":
            final = read_final_estimates(path)
            return max((s for s, _, _ in final.values()), default=0)
        if stage.kind == "reconstruct":
            return int(read_matrix(path)[1].get("shots", 0))
        if stage.kind == "game":
            return sum(shots for _, shots in read_game(path))
    except (OSError, ValueError, KeyError):
        pass
    return 0


def _estimate_checks(w, stage, path, exact):
    final = read_final_estimates(path)
    out = []
    for key, (value_exact, extra_se) in exact.items():
        label = f"{stage.name}:{key[0]}:{key[1]}"
        if key not in final:
            out.append(_check(label, False, "not reported"))
            continue
        shots, value, stderr = final[key]
        tol = Z_LIMIT * math.hypot(stderr, extra_se)
        ok = (shots == w.shots and math.isfinite(value)
              and math.isfinite(stderr) and abs(value - value_exact) <= tol)
        out.append(_check(label, ok, f"shots {shots} value {value:.6g} "
                          f"stderr {stderr:.3g} extra {extra_se:.3g} "
                          f"exact {value_exact:.6g}"))
    return out


def check_outputs(w, stages, workdir):
    """Compare each analysis stage's output with exact values or stated
    floors. A missing or unreadable output fails its checks."""
    state = parse_state(w.state)
    checks, mats = [], {}
    for stage in stages:
        if stage.kind == "simulate":
            continue
        path = os.path.join(workdir, stage.output)
        try:
            if stage.kind == "estimate":
                checks.extend(_estimate_checks(w, stage, path, exact_values(
                    w.state, w.estimate, w.shots)))
            elif stage.kind == "reconstruct":
                method = stage.name.removeprefix("reconstruct-")
                mats[method], _ = read_matrix(path)
                fid = fidelity_pure(mats[method], state)
                floor = FIDELITY_FLOORS[method]
                checks.append(_check(f"{stage.name}:fidelity", fid >= floor,
                                     f"fidelity {fid:.4f} floor {floor}"))
            elif stage.kind == "game":
                games = read_game(path)
                share = sum(c for c, _ in games) / max(len(games), 1)
                checks.append(_check(
                    "game:correct_share",
                    len(games) == w.game_trials and share >= GAME_FLOOR,
                    f"{share:.3f} of {len(games)} trials, floor {GAME_FLOOR}"))
        except (OSError, ValueError, KeyError) as exc:
            checks.append(_check(f"{stage.name}:output", False,
                                 f"{type(exc).__name__}: {exc}"))
    if {"lininv", "shadow-mean"} <= set(w.reconstruct):
        ok, detail = False, "an output is missing"
        if {"lininv", "shadow-mean"} <= set(mats):
            diff = float(np.max(np.abs(mats["lininv"] - mats["shadow-mean"])))
            ok, detail = diff <= AGREE_TOL, f"max abs diff {diff:.3g}"
        checks.append(_check("lininv=shadow-mean", ok, detail))
    return checks
