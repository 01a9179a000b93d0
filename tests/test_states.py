import math

import numpy as np
import pytest

from gamebound.errors import InputError
from gamebound.rand import random_density_matrix, rng_from_seed
from gamebound.registers import shape
from gamebound.states import (
    DensityOperator,
    density_from_matrix,
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
