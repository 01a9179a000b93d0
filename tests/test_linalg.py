import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamebound.config import HERM_TOL
from gamebound.errors import InputError
from gamebound.linalg import (
    apply_kraus,
    check_operators,
    check_psd,
    herm_defect,
    hermitize,
    min_eig,
    partial_trace_matrix,
    psd_by_cholesky,
    spectral_norm,
    tensor,
)
from gamebound.rand import haar_unitary, random_density_matrix, rng_from_seed
from gamebound.registers import shape
from gamebound.states import DensityOperator


def complex_matrix(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def trace_out_by_index_loops(mat, dims, keep):
    """Slow reference: explicit index loops over every subsystem index,
    tracing out the factors not in `keep`."""
    drop = [i for i in range(len(dims)) if i not in keep]
    out_dim = int(np.prod([dims[i] for i in keep]))
    out = np.zeros((out_dim, out_dim), dtype=complex)
    ranges = [range(d) for d in dims]

    def flat(idx):
        v = 0
        for i, d in zip(idx, dims):
            v = v * d + i
        return v

    def flat_keep(idx):
        v = 0
        for i in keep:
            v = v * dims[i] + idx[i]
        return v

    for row in itertools.product(*ranges):
        for col in itertools.product(*ranges):
            if any(row[i] != col[i] for i in drop):
                continue
            out[flat_keep(row), flat_keep(col)] += mat[flat(row), flat(col)]
    return out


def power_iteration_norm(mat, iters=600):
    """Reference largest singular value via power iteration on M^dag M."""
    h = mat.conj().T @ mat
    v = np.ones(h.shape[0], dtype=complex) / np.sqrt(h.shape[0])
    for _ in range(iters):
        w = h @ v
        norm = np.linalg.norm(w)
        if norm < 1e-300:
            return 0.0
        v = w / norm
    return float(np.sqrt(np.real(np.vdot(v, h @ v))))


def test_tensor_matches_kron():
    rng = rng_from_seed(1)
    a = complex_matrix(rng, 2)
    b = complex_matrix(rng, 3)
    np.testing.assert_allclose(tensor(a, b), np.kron(a, b), atol=1e-12)


def test_tensor_associative_three_factors():
    rng = rng_from_seed(2)
    a, b, c = (complex_matrix(rng, 2) for _ in range(3))
    np.testing.assert_allclose(tensor(a, b, c), np.kron(np.kron(a, b), c), atol=1e-12)


def test_partial_trace_against_index_loops():
    """Every keep subset of three factors: from () (the full trace, a 1 x 1
    matrix) through one and two kept factors to all three (the matrix itself)."""
    rng = rng_from_seed(3)
    dims = (2, 3, 2)
    mat = complex_matrix(rng, 12)
    mat = mat + mat.conj().T
    for size in range(4):
        for keep in itertools.combinations(range(3), size):
            got = partial_trace_matrix(mat, dims, keep)
            want = trace_out_by_index_loops(mat, dims, keep)
            np.testing.assert_allclose(got, want, atol=1e-10)
    np.testing.assert_allclose(partial_trace_matrix(mat, dims, ()), [[np.trace(mat)]], atol=1e-10)
    np.testing.assert_allclose(partial_trace_matrix(mat, dims, (0, 1, 2)), mat, atol=0)


def test_partial_trace_of_product_state():
    rng = rng_from_seed(4)
    a = random_density_matrix(2, rng)
    b = random_density_matrix(3, rng)
    np.testing.assert_allclose(partial_trace_matrix(np.kron(a, b), (2, 3), (0,)), a,
                               atol=1e-12)
    np.testing.assert_allclose(partial_trace_matrix(np.kron(a, b), (2, 3), (1,)), b,
                               atol=1e-12)


def test_partial_trace_preserves_trace():
    rng = rng_from_seed(5)
    mat = random_density_matrix(6, rng)
    reduced = partial_trace_matrix(mat, (2, 3), (1,))
    assert abs(np.trace(reduced) - 1.0) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=10**6))
def test_spectral_norm_matches_power_iteration(dim, seed):
    rng = rng_from_seed(seed)
    mat = complex_matrix(rng, dim)
    got = spectral_norm(mat)
    want = power_iteration_norm(mat)
    assert got == pytest.approx(want, abs=1e-6)


def test_spectral_norm_of_stack_matches_each_matrix():
    rng = rng_from_seed(7)
    mats = np.stack([complex_matrix(rng, 4) for _ in range(5)])
    got = spectral_norm(mats)
    assert got.shape == (5,)
    for m, g in zip(mats, got):
        assert g == pytest.approx(spectral_norm(m), abs=1e-12)


def test_spectral_norm_of_projector_is_one():
    from gamebound.rand import random_projector
    rng = rng_from_seed(6)
    p = random_projector(5, 2, rng)
    assert spectral_norm(p) == pytest.approx(1.0, abs=1e-10)


def test_hermitize_idempotent_and_fixes_drift():
    rng = rng_from_seed(9)
    mat = hermitize(complex_matrix(rng, 4))
    drifted = mat + 1e-13 * complex_matrix(rng, 4)
    fixed = hermitize(drifted)
    np.testing.assert_allclose(fixed, fixed.conj().T, atol=0)
    np.testing.assert_allclose(hermitize(fixed), fixed, atol=0)


def test_apply_kraus_trace_preserving():
    rng = rng_from_seed(11)
    rho = random_density_matrix(4, rng)
    p = np.zeros((4, 4))
    p[:2, :2] = np.eye(2)
    kraus = [p, np.eye(4) - p]
    out = apply_kraus(rho, kraus)
    assert abs(np.trace(out) - 1.0) < 1e-12
    assert np.min(np.linalg.eigvalsh(hermitize(out))) >= -1e-10


# Smallest eigenvalues around each gate's threshold -tol and the Cholesky shift -tol/2.
SWEEP = np.concatenate((np.linspace(-2.0, 2.0, 41), [-1.001, -0.999, -0.5001, -0.4999]))


def matrix_with_min_eig(rng, dim, low, rest=1.0):
    """A Hermitian matrix in a Haar-random basis whose smallest eigenvalue is `low` and whose
    other eigenvalues are positive and sum to `rest`."""
    vals = rng.uniform(0.2, 1.0, dim - 1)
    vals = np.concatenate(([low], rest * vals / vals.sum()))
    u = haar_unitary(dim, rng)
    return hermitize((u * vals) @ u.conj().T)


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_cholesky_psd_gate_decides_as_the_eigenvalue_rule(dim):
    """Across smallest eigenvalues from -2 to 2 HERM_TOL, check_psd on stacks of 12, one
    element swept and placed anywhere, accepts and rejects exactly as the eigenvalue rule
    min_eig < -HERM_TOL does, naming the same first bad element; the Cholesky path alone
    accepts every stack whose smallest eigenvalue is at least 0."""
    rng = rng_from_seed((41, dim))
    for k, frac in enumerate(SWEEP):
        stack = np.array([matrix_with_min_eig(rng, dim, HERM_TOL * rng.uniform(0.0, 2.0))
                          for _ in range(12)])
        stack[k % 12] = matrix_with_min_eig(rng, dim, frac * HERM_TOL)
        low = min_eig(stack)
        bad = np.flatnonzero(low < -HERM_TOL)
        if frac >= 0.0:
            assert psd_by_cholesky(stack, HERM_TOL, np.abs(stack).max())
        if bad.size:
            i = bad[0]
            with pytest.raises(InputError, match=f"^M {i} not PSD: min eigenvalue "
                                                 f"{low[i]:.3e} < -1.0e-10$"):
                check_psd(stack, "M")
        else:
            assert check_psd(stack, "M") is not None
        one = stack[k % 12]
        if low[k % 12] < -HERM_TOL:
            with pytest.raises(InputError, match="^M not PSD"):
                check_psd(one, "M")
        else:
            check_psd(one, "M")


@pytest.mark.parametrize("m", [
    np.diag([-1.0, 1e308]),
    np.array([[1e308, 0.0], [0.0, -5.0]]),
    np.array([[1e308, 1e308], [1e308, -1.0]]),
], ids=["diag-neg-first", "diag-neg-last", "dense"])
def test_check_psd_rejects_non_psd_matrix_near_the_float_limit(m):
    """Symmetrising these matrices as (M + M^H)/2 overflowed to inf, their eigenvalues came
    back NaN, and NaN < -HERM_TOL is False, so all three passed as PSD. Each has a negative
    eigenvalue, alone or stacked after a PSD matrix."""
    with pytest.raises(InputError, match="^M not PSD: min eigenvalue -"):
        check_psd(m, "M")
    with pytest.raises(InputError, match="^M 1 not PSD: min eigenvalue -"):
        check_psd(np.stack([np.eye(2), m]), "M")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_hermiticity_defect_beyond_the_float_range_is_infinite():
    """M - M^H of [[0, 1e308], [-1e308, 0]] overflows: the defect is inf, without a numpy
    warning, and check_psd refuses the matrix at its Hermiticity step."""
    m = np.array([[0.0, 1e308], [-1e308, 0.0]])
    assert herm_defect(m) == np.inf
    assert list(herm_defect(np.stack([np.eye(2), m]))) == [0.0, np.inf]
    with pytest.raises(InputError, match="^M not Hermitian: defect inf"):
        check_psd(m, "M")


def test_cholesky_density_gate_decides_as_the_eigenvalue_rule():
    """DensityOperator rejects exactly the trace-one matrices whose computed smallest
    eigenvalue is below -1e-10, across the same sweep, with the same message."""
    rng = rng_from_seed(42)
    for frac in SWEEP:
        mat = matrix_with_min_eig(rng, 4, frac * 1e-10, rest=1.0 - frac * 1e-10)
        low = min_eig(mat)
        if low < -1e-10:
            with pytest.raises(InputError, match=f"eigenvalue {low:.3e} < -1e-10"):
                DensityOperator(shape(("A", 4)), mat)
        else:
            DensityOperator(shape(("A", 4)), mat)


# The gate's table: for each kind, an operator that fails each of its steps and passes the
# steps before it, with the message that step gives. "psd" has no magnitude step and no
# condition of its own.
_GATE_STEPS = ("non-finite", "magnitude", "Hermitian", "PSD", "condition")
_BOUNDED = {
    "non-finite": ([[0.5, np.nan], [0.0, 0.5]], "has a non-finite entry"),
    "Hermitian": ([[0.5, 0.1], [0.0, 0.5]], "not Hermitian: defect 1.000e-01 > 1.0e-10"),
    "PSD": ([[0.5, 0.8], [0.8, 0.5]], "not PSD: min eigenvalue -3.000e-01 < -1.0e-10"),
}
_TWO_I = [[2.0, 0.0], [0.0, 2.0]]
GATE_TABLE = {
    "density": {
        "non-finite": _BOUNDED["non-finite"],
        "magnitude": ([[1.5, 0.0], [0.0, -0.5]], "entry of magnitude 1.500e+00 exceeds 1"),
        "Hermitian": (_BOUNDED["Hermitian"][0], "Hermiticity defect 1.000e-01"),
        "PSD": (_BOUNDED["PSD"][0], "has eigenvalue -3.000e-01 < -1e-10"),
        "condition": ([[0.5, 0.0], [0.0, 0.4]], "trace 0.9 is not 1 within 1e-10"),
    },
    "effect": {
        **_BOUNDED,
        "magnitude": (_TWO_I, "exceeds the identity or is not PSD: entry of magnitude "
                              "2.000e+00 > 1"),
        "condition": ([[1.0, 0.5], [0.5, 1.0]], "exceeds the identity"),
    },
    "projector": {
        **_BOUNDED,
        "magnitude": (_TWO_I, "is not a projector: entry of magnitude 2.000e+00 > 1"),
        "condition": ([[0.5, 0.0], [0.0, 0.0]], "is not idempotent within 1e-09"),
    },
    "povm": {
        **_BOUNDED,
        "magnitude": (_TWO_I, "exceeds the identity: entry of magnitude 2.000e+00 > 1"),
        "condition": ([[0.5, 0.0], [0.0, 0.6]], "elements do not sum to the identity within "
                                                "1e-9: defect 1.000e-01"),
    },
    "psd": {step: _BOUNDED[step] for step in ("non-finite", "Hermitian", "PSD")},
}
# Operators that fail a step and a later one; each is reported at the earlier step, with
# the message GATE_TABLE gives for it.
GATE_TWICE = {
    "non-finite": [[0.5, np.nan], [0.0, -5.0]],  # then magnitude, or PSD for "psd"
    "magnitude": [[2.0, 0.1], [0.0, 2.0]],  # then Hermitian
    "Hermitian": [[0.5, 0.9], [0.8, 0.5]],  # then PSD
    "PSD": [[0.5, 0.8], [0.8, 0.5]],  # then the condition
}
GATE_TWICE_DENSITY = {"magnitude": [[1.5, 0.1], [0.0, -0.5]], "PSD": [[0.4, 0.7], [0.7, 0.4]]}


def gate_stack(kind, bad):
    """Four good operators of `kind` with element 2 set to `bad`, and the name the gate
    gives it. For "povm", four POVMs {I/2, I/2} with element 1 of POVM 2 set to `bad`."""
    good = np.diag([1.0, 0.0]) if kind == "projector" else np.eye(2) / 2
    stack = np.array([good] * 8 if kind == "povm" else [good] * 4, dtype=complex)
    stack[5 if kind == "povm" else 2] = bad
    if kind == "povm":
        return stack.reshape(4, 2, 2, 2), "X 2 element 1"
    return stack, "X 2"


@pytest.mark.parametrize("kind, step", [(kind, step) for kind in GATE_TABLE
                                        for step in _GATE_STEPS if step in GATE_TABLE[kind]])
def test_operator_gate_names_each_step_of_each_kind(kind, step):
    """check_operators refuses a stack whose element 2 fails exactly `step`, naming that
    element with the message its validator gave before the gate."""
    bad, message = GATE_TABLE[kind][step]
    stack, name = gate_stack(kind, bad)
    if kind == "povm" and step == "condition":
        name = "X 2"  # the sum belongs to the POVM, not to one element
    with pytest.raises(InputError, match="^" + re.escape(f"{name} {message}") + "$"):
        check_operators(stack, kind, "X")
    good, _ = gate_stack(kind, stack.reshape(-1, 2, 2)[0])
    assert check_operators(good, kind, "X") is not None


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kind, step", [(kind, step) for kind in GATE_TABLE
                                        for step in _GATE_STEPS[:-1] if step in GATE_TABLE[kind]
                                        and not (kind == "psd" and step == "PSD")])
def test_operator_gate_reports_the_earlier_of_two_failed_steps(kind, step):
    """An operator that fails two steps is reported at the earlier one."""
    bad = (GATE_TWICE_DENSITY if kind == "density" else {}).get(step, GATE_TWICE[step])
    stack, name = gate_stack(kind, bad)
    with pytest.raises(InputError, match="^" + re.escape(f"{name} {GATE_TABLE[kind][step][1]}")):
        check_operators(stack, kind, "X")
