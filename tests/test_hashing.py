import numpy as np
import pytest

from gamebound.discrimination import CqState
from gamebound.errors import InputError
from gamebound.hashing import (
    XorHashFamily,
    privacy_amp_check,
    privacy_amp_distance,
)
from gamebound.rand import random_density_matrix, rng_from_seed
from gamebound.registers import shape
from gamebound.states import density_from_matrix


def make_cq(weights, conditionals, dim_e):
    conds = tuple(
        density_from_matrix(shape(("E", dim_e)), m) for m in conditionals
    )
    return CqState(tuple(range(len(weights))), tuple(weights), conds)


def distance_oracle(cq, n):
    """Blockwise reference: average over members of the trace distance
    between the hashed block pair and a perfectly masked bit."""
    dim_e = cq.dim_b
    rho_e = sum(w * c.matrix for w, c in zip(cq.weights, cq.conditionals))
    total = 0.0
    for r in range(2**n):
        for y in (0, 1):
            block = np.zeros((dim_e, dim_e), dtype=complex)
            for x, w, c in zip(cq.symbols, cq.weights, cq.conditionals):
                if bin(r & int(x)).count("1") % 2 == y:
                    block += w * c.matrix
            diff = block - rho_e / 2.0
            total += 0.5 * np.sum(np.abs(np.linalg.eigvalsh(
                (diff + diff.conj().T) / 2.0)))
    return float(total) / 2**n


def test_family_size_and_range():
    fam = XorHashFamily(3)
    assert len(fam) == 8
    assert fam.members() == list(range(8))
    with pytest.raises(InputError):
        XorHashFamily(0)
    with pytest.raises(InputError):
        fam.evaluate(8, 0)


def test_evaluate_is_inner_product_parity():
    fam = XorHashFamily(3)
    for r in range(8):
        for x in range(8):
            want = bin(r & x).count("1") % 2
            assert fam.evaluate(r, x) == want


def test_zero_member_is_constant():
    fam = XorHashFamily(4)
    assert all(fam.evaluate(0, x) == 0 for x in range(16))


def test_collision_probability_exactly_half():
    """The two-universal property the privacy-amplification bound uses."""
    fam = XorHashFamily(4)
    for x, y in ((0, 1), (3, 5), (7, 8), (15, 14)):
        same = sum(fam.evaluate(r, x) == fam.evaluate(r, y) for r in fam.members())
        assert same / len(fam) == 0.5


def test_uniform_input_trivial_side_information():
    """Only the constant member leaks: distance is exactly (1/2)/2^n."""
    for n in (2, 3):
        eye = np.eye(1, dtype=complex)
        cq = make_cq([1.0 / 2**n] * 2**n, [eye] * 2**n, 1)
        assert privacy_amp_distance(cq, n) == pytest.approx(0.5 / 2**n, abs=1e-12)


def test_fully_known_input_gives_maximal_distance():
    n = 2
    conds = [np.diag([float(i == j) for j in range(4)]).astype(complex)
             for i in range(4)]
    cq = make_cq([0.25] * 4, conds, 4)
    assert privacy_amp_distance(cq, n) == pytest.approx(0.5, abs=1e-12)


def test_distance_matches_independent_oracle():
    rng = rng_from_seed(81)
    for n in (2, 3):
        weights = rng.random(2**n)
        weights /= weights.sum()
        conds = [random_density_matrix(3, rng) for _ in range(2**n)]
        cq = make_cq([float(w) for w in weights], conds, 3)
        got = privacy_amp_distance(cq, n)
        want = distance_oracle(cq, n)
        assert got == pytest.approx(want, abs=1e-12)


def test_stacked_distance_matches_loop_on_benchmark_shapes():
    """The stacked parity-table form against the per-member loop on the 45
    cq states of the benchmark's shapes (2-4 bits, dim E 2-4), and with
    missing symbols, which carry weight zero."""
    cq_shapes = [(bits, dim_e) for bits in (2, 3, 4) for dim_e in (2, 3, 4)]
    for k in range(45):
        bits, dim_e = cq_shapes[k % len(cq_shapes)]
        rng = rng_from_seed((777, 9, k))
        weights = rng.random(2**bits)
        weights /= weights.sum()
        conds = [random_density_matrix(dim_e, rng) for _ in range(2**bits)]
        cq = make_cq([float(w) for w in weights], conds, dim_e)
        assert privacy_amp_distance(cq, bits) == pytest.approx(
            distance_oracle(cq, bits), abs=1e-12)
    rng = rng_from_seed(83)
    conds = tuple(density_from_matrix(shape(("E", 2)), random_density_matrix(2, rng))
                  for _ in range(3))
    sparse = CqState((1, 6, 3), (0.2, 0.5, 0.3), conds)
    assert privacy_amp_distance(sparse, 3) == pytest.approx(
        distance_oracle(sparse, 3), abs=1e-12)


def test_privacy_amp_bound_holds_on_random_states():
    rng = rng_from_seed(82)
    for _ in range(10):
        n = int(rng.integers(2, 4))
        weights = rng.random(2**n)
        weights /= weights.sum()
        conds = [random_density_matrix(2, rng) for _ in range(2**n)]
        cq = make_cq([float(w) for w in weights], conds, 2)
        ok, distance, bound, hmin = privacy_amp_check(cq, n)
        assert ok
        assert distance <= bound + 1e-9
        assert bound == pytest.approx(0.5 * 2.0 ** (-(hmin - 1.0) / 2.0), abs=1e-15)


def test_symbol_range_validated():
    eye = np.eye(1, dtype=complex)
    conds = tuple(density_from_matrix(shape(("E", 1)), eye) for _ in range(2))
    cq = CqState((0, 5), (0.5, 0.5), conds)
    with pytest.raises(InputError, match="symbol 5 outside 0..3"):
        privacy_amp_distance(cq, 2)
    with pytest.raises(InputError, match="symbol -1 outside"):
        privacy_amp_distance(CqState((0, -1), (0.5, 0.5), conds), 2)
    with pytest.raises(InputError, match="outside"):
        privacy_amp_distance(CqState((0, 2**70), (0.5, 0.5), conds), 2)
    with pytest.raises(InputError, match="exceeds the cap"):
        privacy_amp_distance(cq, 21)
