"""Command-line frontend.

Subcommands: simulate, estimate, reconstruct, budget, game, verify.
Exit codes: 0 success (estimate: every stderr reached --tol relative to its
value, or --no-stopping read the whole file), 2 the shots ran out before
the requested stderr was reached, 3 invalid input, 4 resource cap exceeded.
"""

import argparse
import itertools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .budget import BUDGET_CSV_HEADER, BudgetQuery, budget_csv_row
from .estimators import CSV_HEADER, all_bipartitions
from .povm import (CapExceededError, FrameSuperoperator, check_bytes,
                   derive_rng, indices_from_digits, sample_pauli_shots,
                   sample_sic_shots, sic_frame)
from .qstate import (DensityOperator, PureState, load_state, make_ame5,
                     make_ghz, make_linear_cluster, make_product,
                     make_rotated_ghz, random_pure, Bipartition)
from .reconstruct import FrequencyVector, ReconstructionResult, reconstruct
from .shadows import ShadowAccumulator
from .stream import (Game, OnlineEngine, ShotFileError, ShotFileHeader,
                     TrackerConfig, drive, iter_sic_chunks, read_header,
                     read_pauli_shots, write_shots)

EXIT_OK = 0
EXIT_EXHAUSTED = 2
EXIT_INVALID = 3
EXIT_CAP = 4


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; remap to the documented code 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def non_negative_int(text):
    """The argparse type of --seed: an integer >= 0, as every derived
    random stream requires."""
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


def file_path(text):
    """The argparse type of an --out that only a file can take: `-` (stdout)
    is refused."""
    if text == "-":
        raise argparse.ArgumentTypeError("this command writes a file and a "
                                         "manifest, not to stdout ('-')")
    return text


def parse_state(spec, seed=0):
    """Resolve a state spec: a library name such as `ame5`, `ghz:3`,
    `rotated-ghz:4`, `cluster:++-+`, `product:0+1-`, `mixed:2`,
    `random-pure:3`, or a path to a state JSON file. The qubit count is
    read from the spec first, so a state too large for the byte cap
    (16 x 2^N bytes pure, 16 x 4^N for `mixed:N`) is refused unbuilt."""
    if spec.endswith(".json") or os.path.exists(spec):
        return load_state(spec)
    name, _, rest = spec.partition(":")
    parts = rest.split(":")
    constructors = {
        "ame5": make_ame5,
        "ghz": lambda: make_ghz(n),
        "rotated-ghz": lambda: make_rotated_ghz(n, *parts[1:]),
        "cluster": lambda: make_linear_cluster(n, rest),
        "product": lambda: make_product(rest),
        "mixed": lambda: DensityOperator(  # one complex array, I / 2^n
            np.diag(np.full(2**n, 0.5**n, dtype=complex)), check=False),
        "random-pure": lambda: random_pure(n, derive_rng(seed, "state")),
    }
    if name in constructors:
        count = parts[0] if name == "rotated-ghz" else rest
        n = (5 if name == "ame5" else len(rest)
             if name in ("cluster", "product") else int(count))
        check_bytes(16 * (4 if name == "mixed" else 2) ** n,
                    f"state {spec!r} on {n} qubits")
        try:
            return constructors[name]()
        except (TypeError, IndexError):
            pass
    raise ValueError(f"unknown state spec {spec!r}")


def _write_manifest(out_path, args, inputs, seed, run=None):
    """`seed` is the one the run's randomness came from: the command's own,
    or the one a shot file's header records; None for a run without one.
    `run` adds what the run found, such as why a stream ended."""
    manifest = {
        "subcommand": args.cmd,
        "parameters": {key: value for key, value in vars(args).items()
                       if not callable(value)},
        "seed": seed,
        "inputs": list(inputs),
        "outputs": [out_path],
        "version": __version__,
        **(run or {}),
    }
    with open(str(out_path) + ".manifest.json", "w", encoding="ascii") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


class _Sink:
    """Line sink that is either a file (plus manifest) or stdout. Used as a
    context manager; a file left by an exception is removed, so a failed
    run leaves no partial report."""

    def __init__(self, path):
        self.path = path
        self._fh = sys.stdout if path == "-" else open(path, "w",
                                                       encoding="ascii")

    def line(self, text):
        self._fh.write(text + "\n")

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if self.path != "-":
            self._fh.close()
            if exc_type is not None:
                os.remove(self.path)


# --- simulate -------------------------------------------------------------


def _cmd_simulate(args):
    state = parse_state(args.state, args.seed)
    n = state.n_qubits
    header = ShotFileHeader(n_qubits=n, povm=args.povm, frame=args.frame,
                            seed=args.seed)
    if args.povm == "sic":
        frame = sic_frame(args.frame)
        rng = derive_rng(args.seed, "sic-shots")
        digits = sample_sic_shots(state, frame, args.shots, rng)
        write_shots(args.out, header, digits)
    else:
        rng = derive_rng(args.seed, "pauli-shots")
        settings, bits = sample_pauli_shots(state, args.shots, rng)
        write_shots(args.out, header, (settings, bits))
    inputs = [args.state] if args.state.endswith(".json") else []
    _write_manifest(args.out, args, inputs, args.seed)
    print(f"wrote {args.shots} {args.povm} shots ({n} qubits) to {args.out}")
    return EXIT_OK


# --- estimate -------------------------------------------------------------


def _parse_subsets(arg, n):
    if not arg:
        return []
    return [tuple(range(n)) if piece == "full"
            else tuple(int(q) for q in piece.split(","))
            for piece in arg.split(";")]


def _parse_parts(arg, n):
    if not arg:
        return []
    if arg.startswith("all:"):
        return all_bipartitions(n, int(arg[4:]))
    return [Bipartition(n, subset) for subset in _parse_subsets(arg, n)]


def _emit_report(sink, report, fmt):
    if fmt == "csv":
        sink.line(report.to_csv_row())
        return
    d = report.to_json_dict()
    for key in ("value", "stderr"):
        if not math.isfinite(d[key]):
            d[key] = None
    sink.line(json.dumps(d, separators=(",", ":")))


def _cmd_estimate(args):
    header = read_header(args.file)
    if header.povm != "sic":
        raise ShotFileError(
            "estimate works on sic shot files (shadow estimators)")
    n = header.n_qubits
    frame = sic_frame(header.frame)
    fidelity_targets = []
    if args.fidelity:
        for spec in args.fidelity.split(","):
            target = parse_state(spec, header.seed)
            if not isinstance(target, PureState):
                raise ValueError(f"fidelity target {spec!r} must be pure")
            if target.n_qubits != n:
                raise ValueError(f"fidelity target {spec!r} has wrong size")
            fidelity_targets.append((spec, target))
    cfg = TrackerConfig(
        n_qubits=n,
        fidelity_targets=fidelity_targets,
        purity_subsets=_parse_subsets(args.purity, n),
        renyi_parts=_parse_parts(args.renyi, n),
        interval=args.interval,
        stopping=None if args.no_stopping else args.tol,
    )
    engine = OnlineEngine(cfg, frame)
    chunks = iter_sic_chunks(args.file)
    first = next(chunks, None)
    if first is None:
        raise ShotFileError(f"{args.file} holds no shot records")
    with _Sink(args.out) as sink:
        if args.format == "csv":
            sink.line(CSV_HEADER)
        for report in drive(engine, itertools.chain([first], chunks)):
            _emit_report(sink, report, args.format)
    end = ("read_to_end" if cfg.stopping is None
           else "converged" if engine.converged else "exhausted")
    if args.out != "-":
        _write_manifest(args.out, args, [args.file], header.seed,
                        {"engine_state_bytes": engine.state_bytes,
                         "stream_end": end})
    return EXIT_EXHAUSTED if end == "exhausted" else EXIT_OK


# --- reconstruct ----------------------------------------------------------


def _cmd_reconstruct(args):
    if args.weights != "none" and args.method != "mle":
        raise ValueError(f"--weights {args.weights} applies only to "
                         "--method mle")
    header = read_header(args.file)
    n = header.n_qubits
    if args.method == "shadow-mean":
        if header.povm != "sic":
            raise ShotFileError("shadow-mean needs a sic shot file")
        frame = sic_frame(header.frame)
        acc = ShadowAccumulator(n, range(n), frame)
        for chunk in iter_sic_chunks(args.file):
            acc.add_records(chunk)
        result = ReconstructionResult(estimate=acc.mean(),
                                      method="shadow-mean")
        shots = acc.count
    else:
        frame = sic_frame(header.frame) if header.povm == "sic" else None
        superop = FrameSuperoperator(header.povm, n, frame=frame)
        if header.povm == "sic":  # one count array: memory flat in shots
            counts = np.zeros(4**n, dtype=np.int64)
            for chunk in iter_sic_chunks(args.file):
                np.add.at(counts, indices_from_digits(chunk), 1)
            freqs = FrequencyVector("sic", n, counts)
        else:
            _, settings, bits = read_pauli_shots(args.file)
            freqs = FrequencyVector.from_pauli_shots(settings, bits)
        weights = None if args.weights == "none" else args.weights
        result = reconstruct(freqs, superop, args.method, weights=weights)
        shots = freqs.total_shots
    with open(args.out, "w", encoding="ascii") as f:
        result.write_json(f, shots)
    _write_manifest(args.out, args, [args.file], header.seed)
    print(f"{args.method}: wrote {2**n}x{2**n} estimate to {args.out} "
          f"(residual {result.residual:.3g}, iterations {result.iterations})")
    return EXIT_OK


# --- budget ---------------------------------------------------------------


def _cmd_budget(args):
    q = BudgetQuery(k=args.k, l=args.l, epsilon=args.epsilon,
                    delta=args.delta, hs_norm_sq=args.hs_norm_sq)
    row = budget_csv_row(q)  # a count outside float range writes nothing
    with _Sink(args.out) as sink:
        sink.line(BUDGET_CSV_HEADER)
        sink.line(row)
    if args.out != "-":
        _write_manifest(args.out, args, [], None)
    return EXIT_OK


# --- game -----------------------------------------------------------------


GAME_CSV_HEADER = "trial,secret,winner,correct,shots,declared"


def _cmd_game(args):
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    game = Game(sic_frame(args.frame))
    results = [game.play(args.seed, trial=t, gap_window=args.gap_window,
                         shot_cap=args.shot_cap) for t in range(args.trials)]
    with _Sink(args.out) as sink:
        sink.line(GAME_CSV_HEADER)
        for _, _, t in results:
            sink.line(",".join(str(int(t[key]))
                               for key in GAME_CSV_HEADER.split(",")))
    n_correct = sum(t["correct"] for _, _, t in results)
    shots = sorted(t["shots"] for _, _, t in results)
    median = shots[len(shots) // 2]
    print(f"correct {n_correct}/{args.trials}, median shots {median}",
          file=sys.stderr)
    if args.out != "-":
        _write_manifest(args.out, args, [], args.seed)
    return EXIT_OK


# --- verify ---------------------------------------------------------------


def _verify_checks(seed):
    from .budget import (coincidence_probability, enumerated_coincidence,
                         exact_quadratic_variance, observable_budget,
                         purity_budget)
    from .estimators import PurityTracker, estimate_p3
    from .povm import (digits_from_indices, naimark_unitary,
                       sic_outcome_distribution)
    from .qstate import partial_transpose, purity_exact, random_density
    from .reconstruct import lininv, pls
    from .shadows import shadow_expand, PAIR_TRACE

    def frames():
        for name in ("standard", "rotated"):
            sic_frame(name)  # the constructor checks 1-, 2-design, overlaps

    def naimark():
        for name in ("standard", "rotated"):
            f = sic_frame(name)
            u = naimark_unitary(f)
            assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-12
            assert np.max(np.abs(u[:, :2] - f.kets / math.sqrt(2))) <= 1e-12

    def shadow_inversion():
        frame = sic_frame("standard")
        for n in (1, 2):
            rho = random_density(n, derive_rng(seed, "state", n))
            probs = sic_outcome_distribution(rho, frame)
            digits = digits_from_indices(np.arange(4**n), n)
            acc = np.zeros((2**n, 2**n), dtype=complex)
            for p, row in zip(probs, digits):
                acc += p * shadow_expand(row, range(n), frame)
            assert np.max(np.abs(acc - rho.matrix)) <= 1e-10

    def lininv_equals_shadow_mean():
        frame = sic_frame("standard")
        n = 2
        rng = derive_rng(seed, "state", 10)
        counts = rng.integers(0, 50, size=4**n) + 1
        digits = digits_from_indices(
            np.repeat(np.arange(4**n), counts), n)
        superop = FrameSuperoperator("sic", n, frame=frame)
        freqs = counts / counts.sum()
        est = lininv(freqs, superop).estimate
        acc = ShadowAccumulator(n, range(n), frame)
        acc.add_records(digits)
        assert np.max(np.abs(est - acc.mean())) <= 1e-8

    def purity_unbiased():
        frame = sic_frame("standard")
        rho = random_density(1, derive_rng(seed, "state", 20))
        probs = sic_outcome_distribution(rho, frame)
        expect = probs @ PAIR_TRACE @ probs
        assert abs(expect - purity_exact(rho)) <= 1e-10

    def coincidence():
        frame = sic_frame("standard")
        for n in (1, 2):
            rho = random_density(n, derive_rng(seed, "state", 30 + n))
            lhs = enumerated_coincidence(rho, frame)
            rhs = coincidence_probability(rho)
            assert abs(lhs - rhs) <= 1e-10
            assert lhs <= 3.0**-n + 1e-12

    def p3_triples():
        frame = sic_frame("standard")
        part = Bipartition(2, (0,))
        digits = np.array([[0, 1], [2, 3], [1, 1], [1, 1], [3, 0], [0, 2],
                           [2, 2]], dtype=np.uint8)
        pts = [partial_transpose(shadow_expand(row, range(2), frame), part)
               for row in digits]
        want = np.mean([np.trace(a @ b @ c).real
                        for a, b, c in itertools.combinations(pts, 3)])
        assert abs(estimate_p3(digits, part, frame) - want) <= 1e-10

    def purity_jackknife():
        frame = sic_frame("standard")
        digits = np.array([[3 * i % 4, i * i // 3 % 4] for i in range(30)],
                          dtype=np.uint8)
        mats = [shadow_expand(row, range(2), frame) for row in digits]

        def pair_statistic(ms):
            total = sum(ms)
            self_pairs = sum(np.trace(a @ a).real for a in ms)
            return ((np.trace(total @ total).real - self_pairs)
                    / (len(ms) * (len(ms) - 1)))

        loo = np.array([pair_statistic(mats[:i] + mats[i + 1:])
                        for i in range(len(mats))])
        want = math.sqrt((len(loo) - 1) / len(loo)
                         * ((loo - loo.mean()) ** 2).sum())
        tracker = PurityTracker(2, [(0, 1)])
        tracker.add_records(digits)
        assert abs(tracker.value()[0] - pair_statistic(mats)) <= 1e-10
        assert abs(tracker.stderr()[0] - want) <= 1e-10

    def budgets():
        assert observable_budget(BudgetQuery(1, 1, 0.1, 0.01)) == 8478
        assert purity_budget(BudgetQuery(2, 1, 0.1, 0.1)) == 54000

    def pls_hand_case():
        out = pls(np.diag([1.2, -0.2])).matrix
        assert np.max(np.abs(out - np.diag([1.0, 0.0]))) <= 1e-12

    def quadratic_hand_case():
        frame = sic_frame("standard")
        rho = DensityOperator(np.eye(2) / 2, check=False)
        assert abs(exact_quadratic_variance(rho, frame) - 6.75) <= 1e-12

    return [
        ("frame-identities", frames),
        ("naimark-unitary", naimark),
        ("shadow-inversion", shadow_inversion),
        ("lininv-shadow-equivalence", lininv_equals_shadow_mean),
        ("purity-unbiasedness", purity_unbiased),
        ("coincidence-lemma", coincidence),
        ("p3-triple-identity", p3_triples),
        ("purity-jackknife-identity", purity_jackknife),
        ("measurement-budgets", budgets),
        ("pls-projection", pls_hand_case),
        ("quadratic-variance-hand-case", quadratic_hand_case),
    ]


def _cmd_verify(args):
    failures = 0
    for name, check in _verify_checks(args.seed):
        try:
            check()
        except Exception as exc:  # deliberate: report and keep going
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"PASS {name}")
    if failures:
        print(f"FAILED: {failures} failing check(s)")
        return 1
    print("OK: all checks passed")
    return 0


# --- parser wiring ---------------------------------------------------------


def build_parser():
    p = _Parser(prog="sictomo",
                description="Single-setting SIC tomography: simulate shot "
                            "records, stream property estimates, reconstruct "
                            "states, and check measurement budgets.")
    p.add_argument("--version", action="version",
                   version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="cmd", required=True, parser_class=_Parser)

    sim = sub.add_parser("simulate", help="sample a shot file from a state")
    sim.add_argument("--state", required=True)
    sim.add_argument("--povm", choices=("sic", "pauli"), default="sic")
    sim.add_argument("--frame", choices=("standard", "rotated"),
                     default="standard")
    sim.add_argument("--shots", type=int, required=True)
    sim.add_argument("--seed", type=non_negative_int, default=0)
    sim.add_argument("--out", type=file_path, required=True)
    sim.set_defaults(func=_cmd_simulate)

    est = sub.add_parser("estimate",
                         help="stream shadow estimates from a shot file")
    est.add_argument("--file", required=True)
    est.add_argument("--fidelity", default="",
                     help="comma list of pure target state specs")
    est.add_argument("--purity", default="",
                     help="'full' or ';'-separated qubit subsets like 0,1;2,3")
    est.add_argument("--renyi", default="",
                     help="'all:K' for every bipartition with smaller side "
                          "<= K, or ';'-separated side-A subsets")
    est.add_argument("--interval", type=int, default=100)
    est.add_argument("--tol", type=float, default=0.01)
    est.add_argument("--no-stopping", action="store_true")
    est.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    est.add_argument("--out", default="-")
    est.set_defaults(func=_cmd_estimate)

    rec = sub.add_parser("reconstruct", help="full-state reconstruction")
    rec.add_argument("--file", required=True)
    rec.add_argument("--method", required=True,
                     choices=("lininv", "pls", "mle", "shadow-mean"))
    rec.add_argument("--weights", choices=("none", "multinomial"),
                     default="none")
    rec.add_argument("--out", type=file_path, required=True)
    rec.set_defaults(func=_cmd_reconstruct)

    bud = sub.add_parser("budget", help="measurement budget calculator")
    bud.add_argument("--k", type=int, required=True)
    bud.add_argument("--l", type=int, default=1)
    bud.add_argument("--epsilon", type=float, required=True)
    bud.add_argument("--delta", type=float, required=True)
    bud.add_argument("--hs-norm-sq", type=float, default=None)
    bud.add_argument("--out", default="-")
    bud.set_defaults(func=_cmd_budget)

    gam = sub.add_parser("game",
                         help="cluster-state identification from single shots")
    gam.add_argument("--trials", type=int, default=1)
    gam.add_argument("--seed", type=non_negative_int, default=0)
    gam.add_argument("--gap-window", type=int, default=5)
    gam.add_argument("--shot-cap", type=int, default=10000)
    gam.add_argument("--frame", choices=("standard", "rotated"),
                     default="standard")
    gam.add_argument("--out", default="-")
    gam.set_defaults(func=_cmd_game)

    ver = sub.add_parser("verify", help="run the built-in oracle checks")
    ver.add_argument("--seed", type=non_negative_int, default=0)
    ver.set_defaults(func=_cmd_verify)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ShotFileError, FileNotFoundError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
