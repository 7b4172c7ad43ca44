"""Shot-record files and online (streaming) estimation.

File format, bit-exact:
    line 1: `#TOMO v1`
    line 2: one-line JSON header: ShotFileHeader's fields n_qubits, povm,
            frame and seed, then `batch`, a format constant written as 1
            and read as any integer >= 1
    body:   SIC `d1d2...dN` with digits 0-3; Pauli `XYZ... b1b2...` with a
            single space between setting letters and outcome bits.

Each record format is described once, as the alphabet of each run of N
columns (`_RECORDS`). The writer fills each run from its alphabet's bytes;
the one chunked reader decodes each run through one 256-entry table per
alphabet and checks that the separators and the newline sit in their
columns, so nothing it builds grows with N. Files are read as ASCII text
with universal newlines, so a CRLF or a lone CR ends a line as LF does. A
chunk of well-formed records is decoded in one pass; any other chunk goes
through one per-line checker, which raises a ShotFileError for its first bad
line: an empty line, a byte outside ASCII, a line of the wrong shape, or a
symbol outside its column's alphabet.

The online engine ingests digit rows as they arrive, at most BLOCK at a
time, into incremental trackers, so it holds no rows of its own, and it reads
every tracked quantity out at each report-interval boundary: the analysis
cost of an interval depends neither on how many shots came before it nor,
in memory, on the interval's length. Every row it reports carries a
standard error, and with a tolerance `tol` it stops after the first interval
whose rows all have stderr <= tol * |value|; a NaN stderr, which a quantity
reports until it has enough shots, never meets that. A fidelity target on
N qubits is read through a 4^N-entry lookup table, indexed by each shot's
all-qubit pattern code, computed once per ingested block for every target.
The purity subsets and Renyi-2 smaller sides of one size K share one
PurityTracker. The engine sums what its tables, trackers and ingest blocks
will hold and checks that sum against povm's byte cap once, before any of
it is made. A
target is also made dense (16 x 4^N bytes) to build its table, checked on
its own, so fidelity tracking runs up to N = 11.
"""

import itertools
import json
import math
import time
from collections import Counter
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .estimators import (BLOCK, EstimateReport, ObservableSpec, PurityTracker,
                         RunningMoments, observable_lut, purity_state_bytes,
                         renyi2_from_purity, renyi2_stderr)
from .povm import (check_bytes, derive_rng, indices_from_digits, sic_frame,
                   sic_outcome_distribution)
from .qstate import make_linear_cluster, qubit_subset, subset_label

MAGIC = "#TOMO v1"
DEFAULT_INTERVAL = 100


class ShotFileError(ValueError):
    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass
class ShotFileHeader:
    n_qubits: int
    povm: str = "sic"
    frame: str = "standard"
    seed: int = 0

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")
        if self.povm not in ("sic", "pauli"):
            raise ValueError("povm must be 'sic' or 'pauli'")
        if self.frame not in ("standard", "rotated"):
            raise ValueError("frame must be 'standard' or 'rotated'")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, not {self.seed}")

    def to_json(self):
        return json.dumps({**asdict(self), "batch": 1}, separators=(",", ":"))

    @classmethod
    def from_json(cls, line):
        try:
            d = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ShotFileError(f"header is not valid JSON: {exc}", line=2)
        if not isinstance(d, dict):
            raise ShotFileError("header must be a JSON object", line=2)
        names = [f.name for f in fields(cls)]
        missing = {*names, "batch"} - set(d)
        if missing:
            raise ShotFileError(f"header missing keys: {sorted(missing)}", line=2)
        for key in ("n_qubits", "seed", "batch"):
            if type(d[key]) is not int:  # not a subclass: JSON true is a bool
                raise ShotFileError(f"header {key} must be an integer, not "
                                    f"{d[key]!r}", line=2)
        try:
            header = cls(**{name: d[name] for name in names})
        except (ValueError, TypeError) as exc:
            raise ShotFileError(str(exc), line=2)
        if d["batch"] < 1:
            raise ShotFileError("batch hint must be >= 1", line=2)
        return header


# Record formats. A record line is runs of N columns, one alphabet per run,
# joined by single spaces and ended by a newline. Beside the runs stand the
# per-line checker's messages: one for a line of the wrong shape, and one per
# run for a symbol outside its alphabet.
_RECORDS = {
    "sic": ("expected {n} digits, got {got}",
            [("0123", "digit {!r} out of range 0..3")]),
    "pauli": ("expected '<N setting letters> <N outcome bits>'",
              [("XYZ", "setting letter {!r} not in XYZ"),
               ("01", "outcome bit {!r} not 0/1")]),
}


def _ascii(text):
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8)


def _run_ends(runs):
    """The byte after each run of a record line: a space, the last a
    newline."""
    return _ascii(" " * (len(runs) - 1) + "\n")


def _decode_table(alphabet):
    """The 256-entry table from a byte to its symbol code in `alphabet`, or
    255 for a byte outside it."""
    table = np.full(256, 255, dtype=np.uint8)
    table[_ascii(alphabet)] = np.arange(len(alphabet))
    return table


def write_shots(path, header, records):
    """Write a shot file. SIC records: (M, N) digit array. Pauli records:
    a (settings, bits) pair of (M, N) uint8 arrays (setting codes 0/1/2)."""
    n = header.n_qubits
    runs = _RECORDS[header.povm][1]
    fields = [np.asarray(a, dtype=np.uint8) for a in
              ([records] if header.povm == "sic" else records)]
    if len(fields) != len(runs) or any(
            a.ndim != 2 or a.shape != fields[0].shape or a.shape[1] != n
            for a in fields):
        raise ValueError(f"{header.povm} records must be {len(runs)} "
                         "(M, N) code arrays of one shape")
    for a, (alphabet, _) in zip(fields, runs):
        if a.size and a.max() >= len(alphabet):
            raise ValueError(f"{header.povm} codes must index {alphabet!r}")
    symbols = [_ascii(alphabet) for alphabet, _ in runs]
    with open(path, "wb") as f:
        f.write((MAGIC + "\n").encode("ascii"))
        f.write((header.to_json() + "\n").encode("ascii"))
        for lo in range(0, fields[0].shape[0], 65536):
            chunk = [a[lo:lo + 65536] for a in fields]
            rec = np.empty((chunk[0].shape[0], len(runs), n + 1),
                           dtype=np.uint8)
            rec[:, :, n] = _run_ends(runs)
            for j, (a, alphabet) in enumerate(zip(chunk, symbols)):
                rec[:, j, :n] = alphabet[a]
            f.write(rec.tobytes())


def _open_shots(path):
    """Text-mode reader in which each byte outside ASCII decodes to a lone
    surrogate, so the checker can name its line instead of failing inside
    the codec. Universal newlines: CRLF and a lone CR end a line too."""
    return open(path, "r", encoding="ascii", errors="surrogateescape")


def _check_ascii(line, line_no):
    if not line.isascii():
        bad = next(ch for ch in line if not ch.isascii())
        raise ShotFileError(f"non-ASCII byte 0x{ord(bad) - 0xdc00:02x}",
                            line=line_no)


def _read_header_lines(f):
    magic = f.readline().rstrip("\n")
    _check_ascii(magic, 1)
    if magic != MAGIC:
        raise ShotFileError(f"expected {MAGIC!r}, got {magic!r}", line=1)
    header_line = f.readline()
    if not header_line:
        raise ShotFileError("missing header", line=2)
    _check_ascii(header_line, 2)
    return ShotFileHeader.from_json(header_line.rstrip("\n"))


def read_header(path):
    with _open_shots(path) as f:
        return _read_header_lines(f)


def _check_line(line, povm, n, line_no):
    """Raise the ShotFileError of one record line (no newline), if any."""
    if not line:
        raise ShotFileError("empty record line", line=line_no)
    _check_ascii(line, line_no)
    shape_error, runs = _RECORDS[povm]
    parts = line.split(" ") if len(runs) > 1 else [line]
    if len(parts) != len(runs) or any(len(p) != n for p in parts):
        raise ShotFileError(shape_error.format(n=n, got=len(line)),
                            line=line_no)
    for part, (alphabet, symbol_error) in zip(parts, runs):
        for ch in part:
            if ch not in alphabet:
                raise ShotFileError(symbol_error.format(ch), line=line_no)


def _iter_records(path, povm, chunk_rows):
    """Yield, per chunk of at most chunk_rows records, the (m, N) code array
    of each run of the format. A chunk is decoded in one pass when every
    line is a well-formed record; otherwise the checker raises for its first
    bad line."""
    with _open_shots(path) as f:
        header = _read_header_lines(f)
        if header.povm != povm:
            raise ShotFileError(f"expected a {povm} shot file", line=2)
        n = header.n_qubits
        runs = _RECORDS[povm][1]
        decode = [_decode_table(alphabet) for alphabet, _ in runs]
        ends = _run_ends(runs)
        width = ends.size * (n + 1)
        line_no = 3
        while True:
            lines = list(itertools.islice(f, chunk_rows))
            if not lines:
                return
            text = "".join(lines)
            if not text.endswith("\n"):
                text += "\n"
            # every run must decode and every separator and newline sit in
            # its column, so a record can neither run into the next line
            # nor be made up from two
            codes = None
            if text.isascii() and len(text) == len(lines) * width:
                rec = _ascii(text).reshape(len(lines), ends.size, n + 1)
                if (rec[:, :, n] == ends).all():
                    codes = [table[rec[:, j, :n]]
                             for j, table in enumerate(decode)]
            if codes is None or any(c.max() == 255 for c in codes):
                for i, line in enumerate(lines):
                    _check_line(line.rstrip("\n"), povm, n, line_no + i)
            line_no += len(lines)
            yield codes


def iter_sic_chunks(path, chunk_rows=4096):
    """Yield (m, N) digit arrays from a SIC shot file, bounded memory."""
    for runs in _iter_records(path, "sic", chunk_rows):
        yield runs[0]


def read_pauli_shots(path):
    """Whole-file Pauli reader: (header, setting codes, bits)."""
    header = read_header(path)
    empty = np.empty((0, header.n_qubits), dtype=np.uint8)
    chunks = list(_iter_records(path, "pauli", 4096))
    settings, bits = ([empty] + [runs[j] for runs in chunks] for j in (0, 1))
    return header, np.concatenate(settings), np.concatenate(bits)


# --- online engine ------------------------------------------------------------


@dataclass
class TrackerConfig:
    n_qubits: int
    fidelity_targets: list = field(default_factory=list)  # (label, PureState)
    purity_subsets: list = field(default_factory=list)    # qubit subsets
    renyi_parts: list = field(default_factory=list)       # Bipartition
    interval: int = DEFAULT_INTERVAL
    stopping: float = None  # relative stderr tolerance; None reads to the end

    def __post_init__(self):
        if self.interval < 1:
            raise ValueError("interval must be >= 1")
        if self.stopping is not None and not 0 < self.stopping < math.inf:
            raise ValueError(
                f"tol must be positive and finite, not {self.stopping}")
        if not (self.fidelity_targets or self.purity_subsets
                or self.renyi_parts):
            raise ValueError("at least one tracked quantity is required")
        self.purity_subsets = [qubit_subset(s, self.n_qubits)
                               for s in self.purity_subsets]
        for part in self.renyi_parts:
            if part.n_qubits != self.n_qubits:
                raise ValueError("bipartition size does not match n_qubits")
        # a quantity tracked twice would be reported twice per interval
        for what, subsets in (
                ("purity subset", self.purity_subsets),
                ("Renyi-2 cut", [p.smaller_side for p in self.renyi_parts])):
            repeated = [s for s, c in Counter(subsets).items() if c > 1]
            if repeated:
                raise ValueError(f"{what} {subset_label(repeated[0])} is "
                                 "listed more than once")


def _fidelity_lut(label, target, n, frame):
    """The target's lookup table over all n-qubit patterns. Its projector, a
    dense 2^n x 2^n matrix, is checked against the byte cap before it is
    made."""
    check_bytes(16 * 4**n, f"fidelity target {label!r} on {n} qubits")
    return observable_lut(ObservableSpec(range(n), target.density().matrix),
                          frame)


class OnlineEngine:
    """Incremental trackers for one shot stream; one report per interval."""

    def __init__(self, cfg, frame):
        self.cfg = cfg
        n = cfg.n_qubits
        sides = [part.smaller_side for part in cfg.renyi_parts]
        by_size = {}  # subset size -> its subsets, each listed once
        for subset in dict.fromkeys([*cfg.purity_subsets, *sides]):
            by_size.setdefault(len(subset), []).append(subset)
        # fidelity targets: each table, and per ingested row its code, its
        # value and RunningMoments' two temporaries, 32 bytes
        fidelity_bytes = (8 * 4**n * len(cfg.fidelity_targets)
                          + 32 * min(BLOCK, cfg.interval)
                          if cfg.fidelity_targets else 0)
        self.state_bytes = fidelity_bytes + purity_state_bytes(
            {k: len(g) for k, g in by_size.items()})
        check_bytes(self.state_bytes, f"online engine on {n} qubits")
        # per fidelity target: its quantity, lookup table and running moments
        self._linear = [(f"fidelity:{label}",
                         _fidelity_lut(label, target, n, frame),
                         RunningMoments())
                        for label, target in cfg.fidelity_targets]
        self._trackers = [PurityTracker(n, group)
                          for group in by_size.values()]
        where = {subset: (t, row) for t, group in enumerate(by_size.values())
                 for row, subset in enumerate(group)}
        self._purity = [(subset_label(subset), where[subset])
                        for subset in cfg.purity_subsets]
        self._renyi = [(part.label(), where[part.smaller_side])
                       for part in cfg.renyi_parts]
        self._pending = 0  # rows ingested since the last report
        self._pending_s = 0.0  # the time their ingest took
        self.shots_seen = 0  # rows reported
        self.converged = False

    def feed(self, digits):
        """Ingest an (m, N) chunk of digit rows, at most BLOCK rows at a
        time and split at interval boundaries; returns newly completed
        reports."""
        if self.converged:
            return []
        digits = np.asarray(digits, dtype=np.uint8)
        if digits.ndim != 2 or digits.shape[1] != self.cfg.n_qubits:
            raise ValueError(f"records must be (m, {self.cfg.n_qubits}) "
                             "digit rows")
        out, lo = [], 0
        while lo < digits.shape[0] and not self.converged:
            step = min(BLOCK, self.cfg.interval - self._pending)
            self._ingest(digits[lo:lo + step])
            lo += step
            if self._pending == self.cfg.interval:
                out.extend(self._report())
        return out

    def finalize(self):
        """Report a trailing partial interval (stream ended)."""
        if self.converged or not self._pending:
            return []
        return self._report()

    def _ingest(self, block):
        t0 = time.perf_counter()
        codes = indices_from_digits(block) if self._linear else None
        for _, lut, moments in self._linear:
            moments.add_values(lut[codes])
        for tracker in self._trackers:
            tracker.add_records(block)
        self._pending += block.shape[0]
        self._pending_s += time.perf_counter() - t0

    def _report(self):
        """One report per quantity for the rows ingested so far; its wall_ms
        is the ingest time of the interval's rows and the readout time."""
        t0 = time.perf_counter()
        self.shots_seen += self._pending
        rows = [(quantity, "all", moments.mean, moments.stderr())
                for quantity, _, moments in self._linear]
        purity = [(t.value().tolist(), t.stderr().tolist())
                  for t in self._trackers]
        for label, (t, row) in self._purity:
            rows.append(("purity", label, purity[t][0][row],
                         purity[t][1][row]))
        for label, (t, row) in self._renyi:
            p, p_se = purity[t][0][row], purity[t][1][row]
            rows.append(("renyi2", label, renyi2_from_purity(p),
                         renyi2_stderr(p, p_se)))
        wall_ms = (self._pending_s + time.perf_counter() - t0) * 1000.0
        self._pending, self._pending_s = 0, 0.0

        tol = self.cfg.stopping
        if tol is not None:  # a NaN stderr or value fails the comparison
            self.converged = all(stderr <= tol * abs(value)
                                 for _, _, value, stderr in rows)
        return [EstimateReport(shots=self.shots_seen, method="shadows",
                               quantity=quantity, subset=subset, value=value,
                               stderr=stderr, wall_ms=wall_ms)
                for quantity, subset, value, stderr in rows]


def drive(engine, chunks):
    """Feed digit chunks to an OnlineEngine, at most one interval's rows a
    call, so that a call builds the reports of at most one interval, until
    every stderr meets its tolerance or they run out; yield every report,
    the flushed partial interval's last."""
    step = engine.cfg.interval
    for piece in (chunk[lo:lo + step] for chunk in chunks
                  for lo in range(0, len(chunk), step)):
        yield from engine.feed(piece)
        if engine.converged:
            break
    yield from engine.finalize()


# --- state-identification game -------------------------------------------------


class Game:
    """Identify which of 16 sign-labelled 4-qubit cluster states is being
    measured, from single SIC shots only."""

    N_QUBITS = 4

    def __init__(self, frame=None):
        frame = frame if frame is not None else sic_frame("standard")
        candidates = [make_linear_cluster(self.N_QUBITS, signs) for signs
                      in itertools.product("+-", repeat=self.N_QUBITS)]
        probs = [sic_outcome_distribution(c, frame) for c in candidates]
        self.probs = np.array([p / p.sum() for p in probs])
        self.luts = np.array([_fidelity_lut(i, c, self.N_QUBITS, frame)
                              for i, c in enumerate(candidates)])

    def play(self, seed, trial=0, gap_window=5, shot_cap=10000):
        """One round: returns (winner, shots_used, transcript).

        Declares the current fidelity leader once its gap to the best other
        candidate has stayed positive beyond one standard error of the gap
        estimate, with the same leader, for gap_window consecutive shots.
        Plain positivity declares almost immediately and misidentifies often;
        requiring the gap to clear its own uncertainty is what makes the
        declaration reliable at a handful of shots.
        """
        if gap_window < 1:
            raise ValueError("gap_window must be >= 1")
        if shot_cap < 1:
            raise ValueError("shot_cap must be >= 1")
        secret = int(derive_rng(seed, "game-secret", trial).integers(16))
        rng = derive_rng(seed, "game-shots", trial)
        n_codes = self.probs.shape[1]
        s1 = np.zeros(16)          # per-candidate running value sums
        s2 = np.zeros((16, 16))    # running pairwise product sums
        seen, run, prev = 0, 0, -1
        while seen < shot_cap and run < gap_window:
            block = min(256, shot_cap - seen)
            codes = rng.choice(n_codes, size=block, p=self.probs[secret])
            for code in codes:
                v = self.luts[:, code]
                s1 += v
                s2 += np.outer(v, v)
                seen += 1
                means = s1 / seen
                order = np.argsort(means)
                top, sec = int(order[-1]), int(order[-2])
                gap = means[top] - means[sec]
                if seen >= 2:
                    ssq = s2[top, top] + s2[sec, sec] - 2 * s2[top, sec]
                    var = max(ssq - seen * gap * gap, 0.0) / (seen - 1)
                    threshold = math.sqrt(var / seen)
                else:
                    threshold = 0.0  # ties still block: gap must be > 0
                if gap > threshold:
                    run = run + 1 if top == prev else 1
                    prev = top
                else:
                    run, prev = 0, -1
                if run >= gap_window:
                    break
        declared = run >= gap_window
        if not declared:  # cap reached without a persistent gap: best guess
            top, gap = int(np.argmax(s1)), 0.0
        return top, seen, {
            "secret": secret, "winner": top, "correct": top == secret,
            "shots": seen, "declared": declared, "gap_window": gap_window,
            "final_gap": float(gap), "seed": int(seed), "trial": int(trial)}
