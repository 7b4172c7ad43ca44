"""Shot files, the online engine and the identification game."""

import dataclasses
import itertools
import json
import math
import re

import numpy as np
import pytest

from sictomo.estimators import (
    ObservableSpec,
    all_bipartitions,
    estimate_purity,
    linear_values,
    renyi2_from_purity,
)
from sictomo import stream
from sictomo.povm import (CapExceededError, derive_rng, sample_pauli_shots,
                          sample_sic_shots, sic_frame)
from sictomo.qstate import Bipartition, make_ghz, make_product, random_pure
from sictomo.stream import (
    Game,
    OnlineEngine,
    ShotFileError,
    ShotFileHeader,
    TrackerConfig,
    drive,
    iter_sic_chunks,
    read_header,
    read_pauli_shots,
    write_shots,
)
from test_equivalence import reference_records

FRAME = sic_frame("standard")


def sic_file(tmp_path, digits, name="shots.sic", **hdr):
    digits = np.asarray(digits, dtype=np.uint8)
    header = ShotFileHeader(n_qubits=digits.shape[1], **hdr)
    path = tmp_path / name
    write_shots(path, header, digits)
    return path


# --- header -------------------------------------------------------------------


def test_header_json_round_trip():
    h = ShotFileHeader(n_qubits=3, povm="sic", frame="rotated", seed=9)
    line = h.to_json()
    assert line == ('{"n_qubits":3,"povm":"sic","frame":"rotated",'
                    '"seed":9,"batch":1}')
    assert ShotFileHeader.from_json(line) == h


def test_header_keys_are_the_fields_then_batch():
    h = ShotFileHeader(n_qubits=2, povm="pauli", seed=4)
    d = json.loads(h.to_json())
    assert list(d) == [f.name for f in dataclasses.fields(h)] + ["batch"]
    assert d["batch"] == 1
    for key in d:
        rest = {k: v for k, v in d.items() if k != key}
        with pytest.raises(ShotFileError,
                           match=re.escape(f"missing keys: [{key!r}]")):
            ShotFileHeader.from_json(json.dumps(rest))
    # any integer batch hint >= 1 is read; the header does not keep it
    assert ShotFileHeader.from_json(json.dumps(d | {"batch": 7})) == h


def test_header_validation():
    with pytest.raises(ValueError):
        ShotFileHeader(n_qubits=0)
    with pytest.raises(ValueError):
        ShotFileHeader(n_qubits=1, povm="homodyne")
    with pytest.raises(ValueError):
        ShotFileHeader(n_qubits=1, frame="other")
    with pytest.raises(ShotFileError, match="line 2: batch hint must be >= 1"):
        ShotFileHeader.from_json('{"n_qubits":1,"povm":"sic",'
                                 '"frame":"standard","seed":0,"batch":0}')
    with pytest.raises(ShotFileError, match="line 2"):
        ShotFileHeader.from_json("{not json")
    with pytest.raises(ShotFileError, match="missing"):
        ShotFileHeader.from_json('{"n_qubits":1}')
    with pytest.raises(ShotFileError):
        ShotFileHeader.from_json('[1,2]')


# --- round trips ---------------------------------------------------------------


def test_sic_file_bytes(tmp_path):
    path = sic_file(tmp_path, [[0, 1], [2, 3]], seed=5)
    content = path.read_bytes().decode("ascii")
    assert content == ("#TOMO v1\n"
                       '{"n_qubits":2,"povm":"sic","frame":"standard",'
                       '"seed":5,"batch":1}\n'
                       "01\n23\n")


def test_sic_round_trip(rng, tmp_path):
    digits = rng.integers(0, 4, size=(500, 3)).astype(np.uint8)
    path = sic_file(tmp_path, digits)
    header = read_header(path)
    assert header.n_qubits == 3 and header.povm == "sic"
    back = np.concatenate(list(iter_sic_chunks(path)))
    np.testing.assert_array_equal(back, digits)
    rows = np.concatenate(list(iter_sic_chunks(path, chunk_rows=1)))
    np.testing.assert_array_equal(rows, digits)


def test_pauli_round_trip(rng, tmp_path):
    psi = random_pure(2, rng)
    settings, bits = sample_pauli_shots(psi, 45, derive_rng(0, "pauli-shots"))
    header = ShotFileHeader(n_qubits=2, povm="pauli")
    path = tmp_path / "shots.pauli"
    write_shots(path, header, (settings, bits))
    line3 = path.read_text().splitlines()[2]
    assert line3[2] == " " and len(line3) == 5  # 'XX 01' style records
    back_header, back_settings, back_bits = read_pauli_shots(path)
    assert back_header.povm == "pauli"
    np.testing.assert_array_equal(back_settings, settings)
    np.testing.assert_array_equal(back_bits, bits)


PAULI_HEAD = b'#TOMO v1\n{"n_qubits":2,"povm":"pauli","frame":"standard",' \
    b'"seed":0,"batch":1}\n'
PAULI_BODIES = {
    "well-formed": b"XY 01\nZZ 10\nYX 11\n",
    "no-final-newline": b"XY 01\nZZ 10\nYX 11",
    "crlf": b"XY 01\r\nZZ 10\r\nYX 11\r\n",
    "truncated-line": b"XY 01\nZZ 1\nYX 11\n",
    "truncated-last-line": b"XY 01\nZZ 10\nYX 1",
    "bad-letter": b"XY 01\nZW 10\nYX 11\n",
    "lowercase-letter": b"XY 01\nZZ 10\nyX 11\n",
    "bad-bit": b"XY 01\nZZ 12\nYX 11\n",
    "missing-separator": b"XY 01\nZZ10\nYX 11\n",
    "wrong-separator": b"XY 01\nZZ\t10\nYX 11\n",
    "empty-line": b"XY 01\n\nYX 11\n",
    "trailing-empty-line": b"XY 01\nZZ 10\nYX 11\n\n",
    "empty": b"",
}


def reference_pauli(path):
    """read_pauli_shots by the line-by-line reference reader alone:
    [settings, bits] or the error."""
    return reference_records(path, "pauli", 2)


@pytest.mark.parametrize("head", [
    PAULI_HEAD,
    PAULI_HEAD.replace(b"\n", b"\r\n"),
    PAULI_HEAD.replace(b"\n", b"\r", 1),  # a lone CR ends a text-mode line
], ids=["lf-header", "crlf-header", "cr-header"])
@pytest.mark.parametrize("case", sorted(PAULI_BODIES))
def test_pauli_reader_matches_line_reader(tmp_path, case, head):
    path = tmp_path / "shots.pauli"
    path.write_bytes(head + PAULI_BODIES[case])
    want = reference_pauli(path)
    if isinstance(want, str):
        with pytest.raises(ShotFileError) as exc:
            read_pauli_shots(path)
        assert str(exc.value) == want
    else:
        _, settings, bits = read_pauli_shots(path)
        for got, ref in zip((settings, bits), want):
            assert got.dtype == np.uint8 and got.shape == ref.shape
            np.testing.assert_array_equal(got, ref)


def test_pauli_reader_parses_well_formed_files_in_one_pass(monkeypatch, rng,
                                                          tmp_path):
    settings, bits = sample_pauli_shots(random_pure(3, rng), 200,
                                        derive_rng(2, "pauli-shots"))
    path = tmp_path / "shots.pauli"
    write_shots(path, ShotFileHeader(n_qubits=3, povm="pauli"), (settings, bits))

    def no_line_checker(*args):
        raise AssertionError("fell back to the line checker")

    monkeypatch.setattr("sictomo.stream._check_line", no_line_checker)
    _, back_settings, back_bits = read_pauli_shots(path)
    np.testing.assert_array_equal(back_settings, settings)
    np.testing.assert_array_equal(back_bits, bits)


def test_write_shots_validation(tmp_path):
    header = ShotFileHeader(n_qubits=2)
    with pytest.raises(ValueError):
        write_shots(tmp_path / "x", header, np.zeros((3, 1), dtype=np.uint8))
    with pytest.raises(ValueError):
        write_shots(tmp_path / "x", header, np.full((3, 2), 4, dtype=np.uint8))
    pauli = ShotFileHeader(n_qubits=1, povm="pauli")
    with pytest.raises(ValueError):
        write_shots(tmp_path / "x", pauli,
                    (np.full((2, 1), 3, np.uint8), np.zeros((2, 1), np.uint8)))


def test_empty_body_is_valid(tmp_path):
    path = sic_file(tmp_path, np.empty((0, 2), dtype=np.uint8))
    assert read_header(path).n_qubits == 2
    assert list(iter_sic_chunks(path)) == []


# --- parse errors ----------------------------------------------------------------


def test_bad_magic(tmp_path):
    path = tmp_path / "bad"
    path.write_text("#TOMO v2\n{}\n")
    with pytest.raises(ShotFileError, match="line 1"):
        read_header(path)


def test_digit_out_of_range_reports_line(tmp_path):
    path = sic_file(tmp_path, [[0, 1], [2, 3]])
    text = path.read_text().replace("23", "04")
    path.write_text(text)
    with pytest.raises(ShotFileError, match="line 4"):
        list(iter_sic_chunks(path, chunk_rows=1))
    with pytest.raises(ShotFileError, match="line 4"):
        list(iter_sic_chunks(path))


def test_wrong_length_reports_line(tmp_path):
    path = sic_file(tmp_path, [[0, 1], [2, 3]])
    path.write_text(path.read_text().replace("01\n", "011\n"))
    with pytest.raises(ShotFileError, match="line 3"):
        list(iter_sic_chunks(path, chunk_rows=1))
    with pytest.raises(ShotFileError, match="line 3"):
        list(iter_sic_chunks(path))


@pytest.mark.parametrize("line_no", [1, 2, 4])
@pytest.mark.parametrize("read", [
    lambda p: np.concatenate(list(iter_sic_chunks(p))),
    lambda p: list(iter_sic_chunks(p, chunk_rows=1)),
], ids=["whole_file", "iter_sic_chunks"])
def test_non_ascii_byte_reports_line(read, line_no, tmp_path):
    path = sic_file(tmp_path, [[0, 1], [2, 3], [1, 1]])
    lines = path.read_bytes().split(b"\n")
    lines[line_no - 1] += b"\xe9"
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(ShotFileError,
                       match=f"line {line_no}: non-ASCII byte 0xe9"):
        read(path)


def test_empty_record_line(tmp_path):
    path = sic_file(tmp_path, [[0, 1]])
    path.write_text(path.read_text() + "\n01\n")
    with pytest.raises(ShotFileError, match="empty"):
        list(iter_sic_chunks(path))


# the first bad line is reported, with one message per fault, at any chunk
# size; a record cut across two lines is not re-framed into whole records
@pytest.mark.parametrize("body,message", [
    ("04\n011\n", "line 3: digit '4' out of range 0..3"),
    ("01\n\n23\n", "line 4: empty record line"),
    ("011\n2\n33\n", "line 3: expected 2 digits, got 3"),
    ("01\n2\n233\n", "line 4: expected 2 digits, got 1"),
], ids=["digit-before-length", "empty", "long-then-short", "short-then-long"])
@pytest.mark.parametrize("chunk_rows", [1, 2, 4096])
def test_first_bad_line_message(tmp_path, body, message, chunk_rows):
    path = sic_file(tmp_path, np.empty((0, 2), dtype=np.uint8))
    path.write_text(path.read_text() + body)
    with pytest.raises(ShotFileError) as exc:
        list(iter_sic_chunks(path, chunk_rows))
    assert str(exc.value) == message


def test_iter_sic_chunks_boundaries(rng, tmp_path):
    digits = rng.integers(0, 4, size=(10, 2)).astype(np.uint8)
    path = sic_file(tmp_path, digits)
    chunks = list(iter_sic_chunks(path, chunk_rows=3))
    assert [c.shape[0] for c in chunks] == [3, 3, 3, 1]
    np.testing.assert_array_equal(np.concatenate(chunks), digits)


# --- stopping rule -----------------------------------------------------------------


def test_stopping_rule_validation():
    # the tolerance is relative and must be a positive, finite number; nan
    # would never stop and inf would stop on any finite stderr
    for tol in (0.0, -0.1, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            TrackerConfig(n_qubits=1, purity_subsets=[(0,)], stopping=tol)
    assert TrackerConfig(n_qubits=1, purity_subsets=[(0,)],
                         stopping=0.5).stopping == 0.5


def meets_rule(rows, tol):
    return all(r.stderr <= tol * abs(r.value) for r in rows)


def by_interval(reports):
    out = {}
    for r in reports:
        out.setdefault(r.shots, []).append(r)
    return list(out.values())


def test_stopping_rule_behavior():
    # the engine stops after the first interval whose rows all report
    # stderr <= tol * |value|, and not before it
    digits = sample_sic_shots(make_ghz(2), FRAME, 4000,
                              derive_rng(5, "sic-shots"))
    tol = 0.1
    engine = OnlineEngine(make_cfg(2, interval=50, stopping=tol), FRAME)
    intervals = by_interval(drive(engine, [digits]))
    assert engine.converged and engine.shots_seen < 4000
    assert meets_rule(intervals[-1], tol)
    assert not any(meets_rule(rows, tol) for rows in intervals[:-1])
    # the same stream without a rule reads to the end; its rows are the
    # stopped run's, and it is the first interval to meet the rule
    free = OnlineEngine(make_cfg(2, interval=50), FRAME)
    every = by_interval(drive(free, [digits]))
    assert free.shots_seen == 4000 and not free.converged
    first = next(i for i, rows in enumerate(every) if meets_rule(rows, tol))

    def numbers(rows):
        return [(r.quantity, r.subset, r.value, r.stderr) for r in rows]
    assert ([numbers(rows) for rows in every[:first + 1]]
            == [numbers(rows) for rows in intervals])


def test_stopping_rule_monotone_in_tol():
    digits = sample_sic_shots(make_ghz(2), FRAME, 3000,
                              derive_rng(6, "sic-shots"))
    stops = []
    for tol in (0.5, 0.2, 0.1, 0.05):
        engine = OnlineEngine(make_cfg(2, interval=20, stopping=tol), FRAME)
        list(drive(engine, [digits]))
        stops.append(engine.shots_seen)
    assert stops == sorted(stops) and stops[0] < stops[-1]


def test_fidelity_alone_does_not_stop_at_one_shot():
    # one shot has no stderr (nan), which never meets the rule, however
    # loose the tolerance
    cfg = TrackerConfig(n_qubits=1, interval=1, stopping=0.5,
                        fidelity_targets=[("zero", make_product("0"))])
    engine = OnlineEngine(cfg, FRAME)
    rows = engine.feed(np.zeros((5, 1), dtype=np.uint8))
    assert math.isnan(rows[0].stderr) and rows[1].stderr == 0.0
    assert engine.converged and engine.shots_seen == 2


# --- tracker config ------------------------------------------------------------------


def test_tracker_config_validation():
    with pytest.raises(ValueError, match="quantity"):
        TrackerConfig(n_qubits=2)
    with pytest.raises(ValueError):
        TrackerConfig(n_qubits=2, purity_subsets=[(0,)], interval=0)
    with pytest.raises(ValueError):
        TrackerConfig(n_qubits=2, renyi_parts=[Bipartition(3, (0,))])
    with pytest.raises(ValueError, match="duplicate qubits"):
        TrackerConfig(n_qubits=3, purity_subsets=[(1, 2, 1)])
    with pytest.raises(ValueError, match="out of range"):
        TrackerConfig(n_qubits=3, purity_subsets=[(1, 3)])
    with pytest.raises(TypeError):
        TrackerConfig(n_qubits=3, purity_subsets=[(0.7, 1)])
    cfg = TrackerConfig(n_qubits=3, purity_subsets=[[2, 0], range(3)])
    assert cfg.purity_subsets == [(0, 2), (0, 1, 2)]


def test_tracker_config_refuses_repeated_quantities():
    # each would be reported twice, or a cut under two labels
    with pytest.raises(ValueError, match="purity subset 0-1 is listed more"):
        TrackerConfig(n_qubits=3, purity_subsets=[(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="Renyi-2 cut 0 is listed more"):
        TrackerConfig(n_qubits=3, renyi_parts=[
            Bipartition(3, (0,)), Bipartition(3, (1, 2))])
    with pytest.raises(ValueError, match="Renyi-2 cut 0-1 is listed more"):
        TrackerConfig(n_qubits=4, renyi_parts=[
            Bipartition(4, (0, 1)), Bipartition(4, (2, 3))])
    # a purity subset may also be the smaller side of a tracked cut
    TrackerConfig(n_qubits=3, purity_subsets=[(0,)],
                  renyi_parts=[Bipartition(3, (1, 2))])
    TrackerConfig(n_qubits=8, renyi_parts=all_bipartitions(8, 4))


# --- online engine --------------------------------------------------------------------


def make_cfg(n, **kw):
    base = dict(
        fidelity_targets=[("ghz", make_ghz(n))],
        purity_subsets=[tuple(range(n)), (0,)],
        renyi_parts=[Bipartition(n, (0,))],
    )
    base.update(kw)
    return TrackerConfig(n_qubits=n, **base)


def test_online_equals_offline(rng):
    digits = sample_sic_shots(make_ghz(2), FRAME, 357,
                              derive_rng(12, "sic-shots"))
    cfg = make_cfg(2, interval=100)
    engine = OnlineEngine(cfg, FRAME)
    reports = []
    cut = 0
    for size in (1, 99, 150, 80, 27):  # ragged chunks crossing intervals
        reports.extend(engine.feed(digits[cut:cut + size]))
        cut += size
    reports.extend(engine.finalize())
    assert engine.shots_seen == 357
    assert [r.shots for r in reports if r.quantity == "purity"
            and r.subset == "0-1"] == [100, 200, 300, 357]

    final = {(r.quantity, r.subset): r for r in reports if r.shots == 357}
    obs = ObservableSpec(range(2), make_ghz(2).density().matrix)
    want_fid = linear_values(digits, obs, FRAME).mean()
    assert abs(final[("fidelity:ghz", "all")].value - want_fid) < 1e-9
    assert abs(final[("purity", "0-1")].value
               - estimate_purity(digits, (0, 1), FRAME)) < 1e-9
    assert abs(final[("purity", "0")].value
               - estimate_purity(digits, (0,), FRAME)) < 1e-9
    assert abs(final[("renyi2", "0")].value
               - renyi2_from_purity(estimate_purity(digits, (0,), FRAME))) < 1e-9


def test_online_chunking_invariance(rng):
    digits = rng.integers(0, 4, size=(250, 2)).astype(np.uint8)
    cfg = make_cfg(2, interval=50)
    one = OnlineEngine(cfg, FRAME)
    rows_one = one.feed(digits)
    rows_one += one.finalize()
    many = OnlineEngine(cfg, FRAME)
    rows_many = []
    for row in np.array_split(digits, 17):
        rows_many.extend(many.feed(row))
    rows_many += many.finalize()
    assert len(rows_one) == len(rows_many)
    for a, b in zip(rows_one, rows_many):
        assert a.quantity == b.quantity and a.subset == b.subset
        assert a.shots == b.shots
        assert abs(a.value - b.value) < 1e-12 or (
            math.isnan(a.value) and math.isnan(b.value))


@pytest.mark.parametrize("tol", [None, 0.1], ids=["no-stopping", "tol"])
def test_reports_do_not_depend_on_chunking(tol):
    """Pieces of one row, seven rows, one row short of or past an interval,
    or the whole stream give the same reports and the same stop: purity and
    Renyi-2 rows, read from integer histograms, bit for bit, and fidelity
    rows, whose running moments merge once per ingested piece, to 1e-12."""
    digits = sample_sic_shots(make_ghz(3), FRAME, 3030,
                              derive_rng(13, "sic-shots"))
    interval = 100
    cfg = make_cfg(3, interval=interval, stopping=tol,
                   renyi_parts=all_bipartitions(3, 1))

    def run(size):
        engine = OnlineEngine(cfg, FRAME)
        reports = list(drive(engine, (digits[lo:lo + size] for lo
                                      in range(0, len(digits), size))))
        return engine.shots_seen, reports

    def numbers(reports, fidelity):
        return np.array([(r.value, r.stderr) for r in reports
                         if r.quantity.startswith("fidelity") == fidelity])
    seen, whole = run(len(digits))
    assert seen < len(digits) if tol else seen == len(digits)
    for size in (1, 7, interval - 1, interval + 1):
        got_seen, got = run(size)
        assert got_seen == seen
        assert ([(r.shots, r.quantity, r.subset) for r in got]
                == [(r.shots, r.quantity, r.subset) for r in whole])
        assert (numbers(got, False).tobytes()
                == numbers(whole, False).tobytes())
        np.testing.assert_allclose(numbers(got, True), numbers(whole, True),
                                   rtol=1e-12, atol=0)


def test_online_purity_nan_until_two_shots(rng):
    digits = rng.integers(0, 4, size=(3, 1)).astype(np.uint8)
    cfg = TrackerConfig(n_qubits=1, purity_subsets=[(0,)], interval=1)
    engine = OnlineEngine(cfg, FRAME)
    by_shots = {r.shots: r for r in engine.feed(digits)}
    assert math.isnan(by_shots[1].value)  # one shot: pairs undefined
    assert math.isfinite(by_shots[2].value)
    assert math.isnan(by_shots[2].stderr)  # the jackknife needs three
    assert math.isfinite(by_shots[3].stderr)


def test_online_converges_on_constant_stream():
    # every shot is outcome 0, the ket |0>: its shadow's overlap with the
    # target |0> is <0|(3|0><0| - I)|0> = 2
    digits = np.zeros((1000, 1), dtype=np.uint8)
    cfg = TrackerConfig(
        n_qubits=1, fidelity_targets=[("zero", make_product("0"))],
        interval=10, stopping=0.01)
    engine = OnlineEngine(cfg, FRAME)
    rows = engine.feed(digits)
    assert engine.converged
    assert engine.shots_seen == 10  # its stderr is 0 at the first interval
    assert engine.feed(digits) == []
    assert engine.finalize() == []
    assert {r.value for r in rows} == {rows[0].value}
    assert abs(rows[0].value - 2.0) < 1e-12


def test_online_engine_caps_and_validation(rng):
    # refused by the engine's summed check: one 8 * 4^12-byte table and a
    # 100-row interval's fidelity ingest, 32 bytes a row
    with pytest.raises(ValueError, match="online engine on 12 qubits needs "
                       "134,220,928 bytes; capped"):
        OnlineEngine(TrackerConfig(
            n_qubits=12, fidelity_targets=[("x", random_pure(12, rng))]),
            FRAME)
    engine = OnlineEngine(make_cfg(2), FRAME)
    with pytest.raises(ValueError):
        engine.feed(np.zeros((5, 3), dtype=np.uint8))
    with pytest.raises(ValueError, match=r"records must be \(m, 2\)"):
        engine.feed(np.zeros(2, dtype=np.uint8))  # rows, not one record


def test_engine_refuses_summed_state_over_the_byte_cap(monkeypatch):
    """One check sums the engine's state before any of it is made: per
    subset size K with S subsets, 16 S 4^K bytes of histogram and cached
    V c, plus the largest 8 S 4^K readout temporary and one ingest block;
    with fidelity targets, their tables and 32 bytes a row of their ingest
    block. A size's subsets are never split across trackers to get under the cap."""
    admitted = OnlineEngine(TrackerConfig(
        n_qubits=12, renyi_parts=all_bipartitions(12, 6)), FRAME)
    assert admitted.state_bytes == 62_096_164
    assert [t.subset.shape for t in admitted._trackers] == [
        (1, 12), (2, 66), (3, 220), (4, 495), (5, 792), (6, 462)]

    def made(*args):
        raise AssertionError("made before the engine's check")
    monkeypatch.setattr(stream, "PurityTracker", made)
    monkeypatch.setattr(stream, "_fidelity_lut", made)
    for n, cfg, stated in [
            # every 7-qubit purity: 103,809,024 bytes of histograms alone
            (12, dict(purity_subsets=list(itertools.combinations(range(12),
                                                                 7))),
             "312,920,784"),
            # three 4^11 arrays: histogram, V c and the readout temporary
            (11, dict(purity_subsets=[range(11)]), "102,432,768"),
            (16, dict(renyi_parts=all_bipartitions(16, 8)), "13,726,289,104"),
            (11, dict(purity_subsets=[(0, 1)], fidelity_targets=[
                ("ghz:11", make_ghz(11))] * 3), "101,846,528")]:
        with pytest.raises(CapExceededError) as refused:
            OnlineEngine(TrackerConfig(n_qubits=n, **cfg), FRAME)
        assert str(refused.value).startswith(
            f"online engine on {n} qubits needs {stated} bytes; capped")


# --- identification game ----------------------------------------------------------------


def test_game_tables():
    game = Game(FRAME)
    assert game.probs.shape == (16, 256)
    np.testing.assert_allclose(game.probs.sum(axis=1), 1.0, atol=1e-9)
    assert game.luts.shape == (16, 256)
    # every candidate's lut contracts with its own outcome law to fidelity 1
    np.testing.assert_allclose(
        np.einsum("ci,ci->c", game.probs, game.luts), 1.0, atol=1e-9)


def test_game_deterministic():
    a = Game(FRAME).play(3, trial=5)
    b = Game(FRAME).play(3, trial=5)
    assert a == b
    winner, shots, transcript = a
    assert transcript["winner"] == winner
    assert transcript["shots"] == shots
    assert set(transcript) == {"secret", "winner", "correct", "shots",
                               "declared", "gap_window", "final_gap", "seed",
                               "trial"}


def test_game_declares_correctly():
    winner, shots, transcript = Game(FRAME).play(0, trial=0, gap_window=5,
                                                 shot_cap=500)
    assert transcript["declared"]
    assert transcript["correct"]
    assert shots <= 500


def test_game_cap_path():
    game = Game(FRAME)
    winner, shots, transcript = game.play(0, trial=1, gap_window=10**9,
                                          shot_cap=30)
    assert not transcript["declared"]
    assert shots == 30
    with pytest.raises(ValueError):
        game.play(0, gap_window=0)

