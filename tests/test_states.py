import math
import re

import numpy as np
import pytest

from gamebound.errors import InputError
from gamebound.rand import random_density_matrix, rng_from_seed
from gamebound.registers import shape
from gamebound.states import (
    DensityOperator,
    density_from_matrix,
    density_list,
    load_state,
    partial_trace,
    save_state,
    zero_entropy,
)


def pure(shape_, vec):
    vec = np.asarray(vec, dtype=complex)
    vec = vec / np.linalg.norm(vec)
    return density_from_matrix(shape_, np.outer(vec, vec.conj()))


def test_density_validation_rejects_nonunit_trace():
    with pytest.raises(InputError):
        density_from_matrix(shape(("A", 2)), np.eye(2, dtype=complex))


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_density_validation_rejects_non_finite(value):
    mat = np.diag([0.5, 0.5]).astype(complex)
    mat[1, 0] = value
    with pytest.raises(InputError, match="non-finite"):
        DensityOperator(shape(("A", 2)), mat)


def test_density_validation_rejects_negative():
    with pytest.raises(InputError):
        density_from_matrix(shape(("A", 2)),
                            np.diag([1.5, -0.5]).astype(complex))


def test_density_validation_rejects_negative_eigenvalue_of_unit_bounded_entries():
    with pytest.raises(InputError, match="eigenvalue -3.000e-01"):
        DensityOperator(shape(("A", 2)), np.array([[0.5, 0.8], [0.8, 0.5]], dtype=complex))


@pytest.mark.parametrize("value", [1e308, -1e308, 1.0 + 1e-9])
def test_density_validation_rejects_entry_above_one(value):
    """|rho_ij| <= 1 for every density matrix: a larger entry is refused before
    it overflows the eigenvalue gate; an entry of exactly 1 passes."""
    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 0] = 1.0
    DensityOperator(shape(("A", 2), ("B", 2)), mat)
    mat[1, 1] = value
    with pytest.raises(InputError, match="exceeds 1"):
        DensityOperator(shape(("A", 2), ("B", 2)), mat)


def test_density_list_matches_density_from_matrix():
    """density_list validates a stack in one pass and gives each matrix's
    DensityOperator bit for bit as density_from_matrix does, read-only."""
    rng = rng_from_seed(8)
    sh = shape(("A", 2), ("B", 3))
    mats = [random_density_matrix(6, rng) for _ in range(5)]
    got = density_list(sh, np.array(mats))
    assert len(got) == 5
    for rho, mat in zip(got, mats):
        want = density_from_matrix(sh, mat)
        assert rho.shape == want.shape
        assert np.array_equal(rho.matrix, want.matrix)
        assert not rho.matrix.flags.writeable


@pytest.mark.parametrize("bad, message", [
    ([[0.5, float("nan")], [0.0, 0.5]], "has a non-finite entry"),
    ([[1.5, 0.0], [0.0, -0.5]], "entry of magnitude 1.500e+00 exceeds 1"),
    ([[0.5, 0.8], [0.8, 0.5]], "has eigenvalue -3.000e-01"),
    ([[0.5, 0.0], [0.0, 0.4]], "trace 0.9 is not 1"),
], ids=["non-finite", "magnitude", "eigenvalue", "trace"])
def test_density_list_names_the_first_bad_matrix(bad, message):
    """A stack whose third matrix is bad is refused, naming that matrix."""
    rng = rng_from_seed(9)
    stack = np.array([random_density_matrix(2, rng) for _ in range(4)])
    stack[2] = bad
    with pytest.raises(InputError, match="^" + re.escape(f"density matrix 2 {message}")):
        density_list(shape(("A", 2)), stack)


def test_partial_trace_of_bell_state_is_maximally_mixed():
    s = shape(("A", 2), ("B", 2))
    bell = pure(s, [1.0, 0.0, 0.0, 1.0])
    reduced = partial_trace(bell, keep=("A",))
    np.testing.assert_allclose(reduced.matrix, np.eye(2) / 2, atol=1e-12)
    assert reduced.shape.labels == ("A",)


def test_partial_trace_of_product_state():
    rng = rng_from_seed(23)
    a = random_density_matrix(2, rng)
    b = random_density_matrix(3, rng)
    joint = density_from_matrix(shape(("A", 2), ("B", 3)), np.kron(a, b))
    np.testing.assert_allclose(partial_trace(joint, keep=("B",)).matrix, b,
                               atol=1e-12)


def test_zero_entropy_counts_support():
    s = shape(("A", 2), ("B", 2))
    bell = pure(s, [1.0, 0.0, 0.0, 1.0])
    assert zero_entropy(bell, "A") == 1.0
    prod = pure(s, [1.0, 0.0, 0.0, 0.0])
    assert zero_entropy(prod, "A") == 0.0


def test_zero_entropy_is_log_rank_not_log_dim():
    # rank-3 reduction on a 4-dim register
    s = shape(("A", 4), ("B", 4))
    vecs = [np.eye(4)[i] for i in range(3)]
    mat = sum(np.outer(np.kron(v, v), np.kron(v, v)) for v in vecs) / 3.0
    rho = density_from_matrix(s, mat.astype(complex))
    assert zero_entropy(rho, "A") == pytest.approx(math.log2(3.0), abs=1e-12)


def test_state_json_round_trip(tmp_path):
    rng = rng_from_seed(24)
    s = shape(("A", 2), ("B", 2))
    rho = density_from_matrix(s, random_density_matrix(4, rng))
    path = str(tmp_path / "state.json")
    save_state(rho, path)
    back = load_state(path)
    assert back.shape == rho.shape
    np.testing.assert_allclose(back.matrix, rho.matrix, atol=1e-12)
