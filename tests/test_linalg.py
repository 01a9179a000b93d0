import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamebound.config import HERM_TOL
from gamebound.errors import InputError
from gamebound.linalg import (
    apply_kraus,
    check_psd,
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
            assert psd_by_cholesky(stack, HERM_TOL)
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
