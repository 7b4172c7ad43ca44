"""States, bipartitions, reductions and the exact entropy/entanglement oracles."""

import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sictomo.qstate import (
    Bipartition,
    DensityOperator,
    PureState,
    basis_index,
    fidelity_pure,
    load_state,
    make_ame5,
    make_ghz,
    make_linear_cluster,
    make_product,
    make_rotated_ghz,
    negativity,
    p3_moment_exact,
    partial_trace,
    partial_transpose,
    purity_exact,
    qubit_subset,
    random_density,
    random_pure,
    renyi2_exact,
    save_state,
    state_from_json_dict,
    state_to_json_dict,
    subset_label,
    trace_distance,
)

BELL = PureState(np.array([1, 0, 0, 1]) / math.sqrt(2))


def naive_partial_transpose(mat, n, subset):
    """Element-by-element transpose of the chosen qubits, as slow as it reads."""
    dim = 2**n
    out = np.zeros_like(mat)
    for i, j in itertools.product(range(dim), repeat=2):
        ib = format(i, f"0{n}b")
        jb = format(j, f"0{n}b")
        ii, jj = list(ib), list(jb)
        for q in subset:
            ii[q], jj[q] = jb[q], ib[q]
        out[int("".join(ii), 2), int("".join(jj), 2)] = mat[i, j]
    return out


def naive_partial_trace(mat, n, keep):
    dim_k = 2 ** len(keep)
    drop = [q for q in range(n) if q not in keep]
    out = np.zeros((dim_k, dim_k), dtype=complex)
    for i, j in itertools.product(range(dim_k), repeat=2):
        ib = format(i, f"0{len(keep)}b")
        jb = format(j, f"0{len(keep)}b")
        for env in itertools.product("01", repeat=len(drop)):
            row, col = [""] * n, [""] * n
            for q, ch in zip(keep, ib):
                row[q] = ch
            for q, ch in zip(keep, jb):
                col[q] = ch
            for q, ch in zip(drop, env):
                row[q] = col[q] = ch
            out[i, j] += mat[int("".join(row), 2), int("".join(col), 2)]
    return out


# --- constructors -----------------------------------------------------------


def test_pure_state_normalization_check():
    with pytest.raises(ValueError, match="not normalized"):
        PureState([1.0, 1.0])
    PureState([1.0, 1.0], check=False)  # opt-out works


def test_density_operator_checks():
    with pytest.raises(ValueError, match="Hermitian"):
        DensityOperator(np.array([[0.5, 1.0], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="trace"):
        DensityOperator(np.eye(2))
    with pytest.raises(ValueError, match="PSD"):
        DensityOperator(np.diag([1.5, -0.5]))
    with pytest.raises(ValueError, match="power of two"):
        DensityOperator(np.eye(3) / 3)


def test_make_product_and_basis_index():
    assert basis_index("101") == 5
    plus = np.array([1, 1]) / math.sqrt(2)
    st01 = make_product("0+")
    np.testing.assert_allclose(st01.amplitudes,
                               np.kron([1, 0], plus), atol=1e-15)
    with pytest.raises(ValueError):
        make_product("0q")
    with pytest.raises(ValueError):
        make_product("")


def test_ghz_amplitudes():
    g = make_ghz(3)
    expected = np.zeros(8)
    expected[0] = expected[7] = 1 / math.sqrt(2)
    np.testing.assert_allclose(g.amplitudes, expected)


def test_rotated_ghz_is_locally_rotated():
    """A local rotation cannot change any reduced purity."""
    g = make_rotated_ghz(3)
    assert abs(np.vdot(g.amplitudes, g.amplitudes) - 1) < 1e-12
    red = partial_trace(g.density(), [0])
    assert abs(purity_exact(red) - 0.5) < 1e-12
    # and the state is no longer a computational-basis combination of two kets
    assert np.count_nonzero(np.abs(g.amplitudes) > 1e-9) == 8


def test_rotated_ghz_memory_is_bounded():
    """At N = 14 a dense rotation would be a 4.3 GB matrix; rotating one
    tensor axis at a time holds a few copies of the 256 KB amplitudes. The
    child reads its own high-water mark: its ru_maxrss would start from
    this process's, which it inherits across exec."""
    code = ("import re\n"
            "from sictomo.qstate import make_rotated_ghz\n"
            "make_rotated_ghz(14)\n"
            "status = open('/proc/self/status').read()\n"
            "print(re.search(r'VmHWM:\\s+(\\d+) kB', status).group(1))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert int(out) / 1024 < 150


def test_cluster_states_mutually_orthogonal():
    n = 4
    states = [make_linear_cluster(n, "".join(s))
              for s in itertools.product("+-", repeat=n)]
    gram = np.array([[np.vdot(a.amplitudes, b.amplitudes) for b in states]
                     for a in states])
    np.testing.assert_allclose(gram, np.eye(16), atol=1e-12)


def test_cluster_signs_validation():
    with pytest.raises(ValueError):
        make_linear_cluster(3, "++")
    with pytest.raises(ValueError):
        make_linear_cluster(2, "+0")


def test_random_density_properties(rng):
    rho = random_density(2, rng)
    assert abs(rho.matrix.trace() - 1) < 1e-12
    assert np.linalg.eigvalsh(rho.matrix)[0] > -1e-12


# --- AME5 reference state ---------------------------------------------------


def test_ame5_all_two_qubit_reductions_maximally_mixed():
    rho = make_ame5().density()
    for pair in itertools.combinations(range(5), 2):
        red = partial_trace(rho, pair)
        np.testing.assert_allclose(red.matrix, np.eye(4) / 4, atol=1e-12)
    for q in range(5):
        red = partial_trace(rho, [q])
        np.testing.assert_allclose(red.matrix, np.eye(2) / 2, atol=1e-12)


def test_ame5_renyi_profile():
    rho = make_ame5().density()
    for q in range(5):
        assert abs(renyi2_exact(partial_trace(rho, [q])) - 1.0) < 1e-12
    for pair in itertools.combinations(range(5), 2):
        assert abs(renyi2_exact(partial_trace(rho, pair)) - 2.0) < 1e-12


# --- reductions and transposes ----------------------------------------------


@pytest.mark.parametrize("keep", [(0,), (1,), (2,), (0, 2), (1, 2), (0, 1)])
def test_partial_trace_matches_naive(rng, keep):
    rho = random_density(3, rng)
    got = partial_trace(rho, keep).matrix
    want = naive_partial_trace(rho.matrix, 3, list(keep))
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_partial_trace_of_product_state():
    rho = make_product("01").density()
    np.testing.assert_allclose(partial_trace(rho, [0]).matrix,
                               np.diag([1.0, 0.0]), atol=1e-15)
    np.testing.assert_allclose(partial_trace(rho, [1]).matrix,
                               np.diag([0.0, 1.0]), atol=1e-15)


def test_partial_trace_validation(rng):
    rho = random_density(2, rng)
    with pytest.raises(ValueError):
        partial_trace(rho, [])
    with pytest.raises(ValueError):
        partial_trace(rho, [5])
    # a repeated qubit is refused, not merged into a one-qubit marginal
    with pytest.raises(ValueError, match="duplicate qubits"):
        partial_trace(rho, (0, 0))
    with pytest.raises(TypeError):
        partial_trace(rho, (1.9,))  # not truncated to qubit 1


def test_qubit_subset_rule():
    assert qubit_subset((2, 0), 3) == (0, 2)
    assert qubit_subset(range(3), 3) == (0, 1, 2)
    got = qubit_subset(np.array([1, 0], dtype=np.uint8), 2)
    assert got == (0, 1) and all(type(q) is int for q in got)
    for bad in [(0.7, 1), (1.0,), ("0",)]:
        with pytest.raises(TypeError):
            qubit_subset(bad, 3)
    with pytest.raises(ValueError, match="non-empty"):
        qubit_subset((), 3)
    with pytest.raises(ValueError, match="duplicate qubits"):
        qubit_subset((2, 0, 2), 3)
    for bad in [(3,), (-1, 0)]:
        with pytest.raises(ValueError, match="out of range"):
            qubit_subset(bad, 3)
    assert subset_label((0, 2)) == "0-2"
    assert subset_label((3, 1)) == "3-1"  # labels keep the order given


def test_boolean_qubits_are_refused():
    # operator.index(True) is 1, so (False, True) would read as (0, 1)
    for bad in [(False, True), (np.True_, 0), [True]]:
        with pytest.raises(TypeError, match="not bools"):
            qubit_subset(bad, 3)


@pytest.mark.parametrize("subset", [(0,), (1,), (0, 1), (1, 2)])
def test_partial_transpose_matches_naive(rng, subset):
    rho = random_density(3, rng)
    part = Bipartition(3, subset)
    got = partial_transpose(rho, part)
    want = naive_partial_transpose(rho.matrix, 3, subset)
    np.testing.assert_allclose(got, want, atol=1e-14)


def test_partial_transpose_is_involutive(rng):
    rho = random_density(2, rng)
    part = Bipartition(2, [0])
    twice = partial_transpose(partial_transpose(rho, part), part)
    np.testing.assert_allclose(twice, rho.matrix, atol=1e-14)


def test_bell_partial_transpose_spectrum():
    eig = np.linalg.eigvalsh(partial_transpose(BELL.density(),
                                               Bipartition(2, [0])))
    np.testing.assert_allclose(sorted(eig), [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_bell_negativity_and_p3():
    part = Bipartition(2, [0])
    assert abs(negativity(BELL.density(), part) - 0.5) < 1e-12
    lhs, rhs = p3_moment_exact(BELL.density(), part)
    assert abs(lhs - 0.25) < 1e-12
    assert abs(rhs - 1.0) < 1e-12
    assert lhs < rhs  # entanglement certified


def test_separable_state_passes_p3(rng):
    rho_a = random_density(1, rng)
    rho_b = random_density(1, rng)
    rho = DensityOperator(np.kron(rho_a.matrix, rho_b.matrix), check=False)
    part = Bipartition(2, [0])
    assert negativity(rho, part) < 1e-12
    lhs, rhs = p3_moment_exact(rho, part)
    assert lhs >= rhs - 1e-12


# --- scalar functionals -----------------------------------------------------


def test_purity_and_renyi_hand_cases():
    half = DensityOperator(np.eye(2) / 2)
    assert abs(purity_exact(half) - 0.5) < 1e-15
    assert abs(renyi2_exact(half) - 1.0) < 1e-12
    assert abs(renyi2_exact(np.eye(4) / 4) - 2.0) < 1e-12
    assert abs(purity_exact(make_ghz(2).density()) - 1.0) < 1e-12


def test_trace_distance_hand_cases():
    zero = make_product("0").density().matrix
    one = make_product("1").density().matrix
    assert abs(trace_distance(zero, one) - 1.0) < 1e-12
    assert trace_distance(zero, zero) < 1e-15
    with pytest.raises(ValueError):
        trace_distance(zero, np.eye(4) / 4)


def test_fidelity_pure(rng):
    psi = random_pure(2, rng)
    assert abs(fidelity_pure(psi.density(), psi) - 1.0) < 1e-12
    assert abs(fidelity_pure(np.eye(4) / 4, psi) - 0.25) < 1e-12
    with pytest.raises(ValueError):
        fidelity_pure(np.eye(2) / 2, psi)


# --- bipartitions ------------------------------------------------------------


def test_bipartition_basics():
    part = Bipartition(4, [2, 0])
    assert part.subset_a == (0, 2)
    assert part.complement == (1, 3)
    assert part.label() == "0-2"
    assert part == Bipartition(4, (0, 2))
    assert hash(part) == hash(Bipartition(4, (0, 2)))
    assert part != Bipartition(5, (0, 2))


def test_bipartition_smaller_side_tie_break():
    assert Bipartition(4, [2, 3]).smaller_side == (0, 1)
    assert Bipartition(4, [0, 1]).smaller_side == (0, 1)
    assert Bipartition(3, [1, 2]).smaller_side == (0,)


def test_bipartition_validation():
    with pytest.raises(ValueError):
        Bipartition(3, [])
    with pytest.raises(ValueError):
        Bipartition(3, [0, 1, 2])
    with pytest.raises(ValueError):
        Bipartition(3, [3])
    with pytest.raises(ValueError):
        Bipartition(3, [0, 0])
    with pytest.raises(TypeError):
        Bipartition(3, (0.5,))  # not truncated to qubit 0


@given(st.integers(2, 8), st.data())
def test_bipartition_partition_property(n, data):
    subset = data.draw(st.sets(st.integers(0, n - 1), min_size=1,
                               max_size=n - 1))
    part = Bipartition(n, subset)
    assert sorted(part.subset_a + part.complement) == list(range(n))
    assert len(part.smaller_side) <= n // 2


# --- JSON round trips --------------------------------------------------------


def test_pure_state_json_round_trip(tmp_path, rng):
    psi = random_pure(3, rng)
    path = tmp_path / "psi.json"
    save_state(path, psi, meta={"origin": "test"})
    back = load_state(path)
    assert isinstance(back, PureState)
    np.testing.assert_array_equal(back.amplitudes, psi.amplitudes)


def test_density_json_round_trip(tmp_path, rng):
    rho = random_density(2, rng)
    path = tmp_path / "rho.json"
    save_state(path, rho)
    back = load_state(path)
    assert isinstance(back, DensityOperator)
    np.testing.assert_array_equal(back.matrix, rho.matrix)


def test_state_json_dict_shape(rng):
    rho = random_density(2, rng)
    d = state_to_json_dict(rho)
    assert d["kind"] == "mixed"
    assert len(d["re"]) == 16  # flat, row-major
    row0 = np.array(d["re"][:4]) + 1j * np.array(d["im"][:4])
    np.testing.assert_array_equal(row0, rho.matrix[0])


def test_state_json_dict_validation():
    with pytest.raises(ValueError, match="kind"):
        state_from_json_dict({"n_qubits": 1, "kind": "odd", "re": [1, 0],
                              "im": [0, 0]})
    with pytest.raises(ValueError):
        state_from_json_dict({"n_qubits": 2, "kind": "pure", "re": [1, 0],
                              "im": [0, 0]})
    with pytest.raises(TypeError):
        state_to_json_dict(np.eye(2) / 2)
