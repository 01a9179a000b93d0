import math

import numpy as np
import pytest

from gamebound.accessible import (
    MeasurementDescriptor,
    Povm,
    dmax_relative,
    domination_defect,
    imax_acc_bounds,
    imax_for_measurement,
    local_channel_monotonicity_check,
    standard_measurements,
)
from gamebound.rand import random_density_matrix, random_povm_elements, rng_from_seed
from gamebound.registers import shape
from gamebound.states import density_from_matrix, zero_entropy


def copy_state(dim):
    mat = np.zeros((dim * dim, dim * dim), dtype=complex)
    for i in range(dim):
        mat[i * dim + i, i * dim + i] = 1.0 / dim
    return density_from_matrix(shape(("A", dim), ("B", dim)), mat)


def product_state(rng, dim_a, dim_b):
    return density_from_matrix(
        shape(("A", dim_a), ("B", dim_b)),
        np.kron(random_density_matrix(dim_a, rng), random_density_matrix(dim_b, rng)),
    )


def dmax_by_bisection(rho, sigma, lo=-40.0, hi=40.0, iters=80):
    """Reference: smallest t with rho <= 2^t sigma, by eigenvalue bisection."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        gap = np.linalg.eigvalsh((2.0**mid) * sigma - rho)
        if np.min(gap) >= -1e-12:
            hi = mid
        else:
            lo = mid
    return hi


def test_product_state_carries_no_information():
    rng = rng_from_seed(41)
    rho = product_state(rng, 2, 3)
    est = imax_acc_bounds(rho, budget=20, seed=1)
    assert est.lower == pytest.approx(0.0, abs=1e-8)


def test_classical_copy_gives_one_bit():
    rho = copy_state(2)
    est = imax_acc_bounds(rho, budget=20, seed=1)
    assert est.lower == pytest.approx(1.0, abs=1e-7)
    assert est.upper >= 1.0 - 1e-9
    assert est.upper <= 1.0 + 1e-9


def test_copy_state_witness_is_computational():
    rho = copy_state(2)
    comp = standard_measurements(2)[0]
    value, _ = imax_for_measurement(comp.povm, rho)
    assert value == pytest.approx(1.0, abs=1e-10)


def test_dmax_matches_bisection():
    rng = rng_from_seed(42)
    for _ in range(10):
        dim = int(rng.integers(2, 5))
        rho = random_density_matrix(dim, rng)
        sigma = 0.85 * random_density_matrix(dim, rng) + 0.15 * np.eye(dim) / dim
        got = dmax_relative(rho, sigma)  # multiplicative constant, not exponent
        want = dmax_by_bisection(rho, sigma)
        assert got == pytest.approx(2.0**want, rel=1e-6)


def test_imax_value_is_max_over_outcome_dmax():
    rng = rng_from_seed(43)
    rho = density_from_matrix(shape(("A", 2), ("B", 3)),
                              random_density_matrix(6, rng))
    povm = Povm(tuple(random_povm_elements(2, 3, rng)))
    value, sigma = imax_for_measurement(povm, rho)
    assert domination_defect(povm, rho, value, sigma) <= 1e-9
    assert domination_defect(povm, rho, value - 1e-4, sigma) > 0.0


def test_imax_never_exceeds_zero_entropy():
    rng = rng_from_seed(44)
    for _ in range(6):
        rho = density_from_matrix(shape(("A", 2), ("B", 2)),
                                  random_density_matrix(4, rng))
        h0 = zero_entropy(rho, "A")
        est = imax_acc_bounds(rho, budget=16, seed=2)
        assert est.lower <= h0 + 1e-8


def test_coarse_graining_never_raises_value():
    """Merging two POVM outcomes cannot raise the per-measurement value."""
    rng = rng_from_seed(45)
    rho = density_from_matrix(shape(("A", 3), ("B", 2)),
                              random_density_matrix(6, rng))
    elems = random_povm_elements(3, 4, rng)
    fine = Povm(tuple(elems))
    coarse = Povm((elems[0] + elems[1], elems[2], elems[3]))
    v_fine, _ = imax_for_measurement(fine, rho)
    v_coarse, _ = imax_for_measurement(coarse, rho)
    assert v_coarse <= v_fine + 1e-9


def test_local_channels_respect_original_bound():
    rng = rng_from_seed(46)
    rho = copy_state(2)
    p = np.diag([1.0, 0.0]).astype(complex)
    ok, transformed, original = local_channel_monotonicity_check(
        rho, [np.eye(2, dtype=complex)], [p, np.eye(2) - p], budget=16, seed=3
    )
    assert ok
    assert transformed <= original + 1e-8


def test_estimate_bounds_ordered():
    rng = rng_from_seed(48)
    rho = density_from_matrix(shape(("A", 2), ("B", 2)),
                              random_density_matrix(4, rng))
    est = imax_acc_bounds(rho, budget=12, seed=4)
    assert est.lower <= est.upper + 1e-9
    assert est.searched >= 1
