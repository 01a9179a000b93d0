import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamebound import discrimination
from gamebound.acceptance import criterion_03_random_games
from gamebound.config import EQ_TOL, SOLVER_MAX_ITER
from gamebound.discrimination import (
    CqState,
    DiscriminationInstance,
    Povm,
    _barrier_path,
    binary_optimal,
    dual_feasibility_defect,
    guessing_probability,
    hmin_cq,
    optimal_discrimination,
)
from gamebound.errors import InputError
from gamebound.games import adaptive_success, random_game
from gamebound.rand import (
    random_density_matrix,
    random_pure_vector,
    rng_from_seed,
)
from gamebound.registers import shape
from gamebound.states import density_from_matrix


def helstrom_value(k0, k1):
    """Two-operator closed form: (tr(K0+K1) + ||K0-K1||_1) / 2."""
    diff = k0 - k1
    nuclear = float(np.sum(np.abs(np.linalg.eigvalsh((diff + diff.conj().T) / 2))))
    return 0.5 * float(np.real(np.trace(k0 + k1))) + 0.5 * nuclear


def square_root_measurement_value(weights, vectors):
    """Reference success probability of the square-root measurement."""
    dim = len(vectors[0])
    rho = sum(w * np.outer(v, v.conj()) for w, v in zip(weights, vectors))
    vals, vecs = np.linalg.eigh(rho)
    inv_sqrt = np.zeros((dim, dim), dtype=complex)
    for lam, u in zip(vals, vecs.T):
        if lam > 1e-12:
            inv_sqrt += np.outer(u, u.conj()) / math.sqrt(lam)
    # success = sum_j w_j <psi_j| M_j |psi_j> with M_j = S^-1/2 w_j P_j S^-1/2
    total = 0.0
    for w, v in zip(weights, vectors):
        m = inv_sqrt @ (w * np.outer(v, v.conj())) @ inv_sqrt
        total += w * float(np.real(np.vdot(v, m @ v)))
    return total


def random_instance(rng, dim, n_ops):
    weights = rng.random(n_ops)
    weights /= weights.sum()
    return DiscriminationInstance(
        tuple(w * random_density_matrix(dim, rng) for w in weights)
    )


def test_binary_matches_closed_form():
    rng = rng_from_seed(31)
    for _ in range(25):
        dim = int(rng.integers(2, 7))
        p = float(rng.random())
        k0 = p * random_density_matrix(dim, rng)
        k1 = (1 - p) * random_density_matrix(dim, rng)
        value, povm = binary_optimal(k0, k1)
        assert value == pytest.approx(helstrom_value(k0, k1), abs=1e-10)
        achieved = float(np.real(np.trace(k0 @ povm.elements[0])
                                 + np.trace(k1 @ povm.elements[1])))
        assert achieved == pytest.approx(value, abs=1e-10)


def test_solver_agrees_with_binary_closed_form():
    rng = rng_from_seed(32)
    for _ in range(10):
        inst = random_instance(rng, 3, 2)
        cert = optimal_discrimination(inst, tol=1e-9)
        want = helstrom_value(*inst.operators)
        assert cert.primal_value == pytest.approx(want, abs=1e-8)
        assert cert.gap <= 1e-9 + 1e-12


def test_barrier_path_matches_two_operator_closed_form():
    """The general path, which two-operator instances skip, reaches Helstrom."""
    rng = rng_from_seed(33)
    for dim in (2, 3, 4):
        inst = random_instance(rng, dim, 2)
        cert = _barrier_path(inst, 1e-9)
        want = helstrom_value(*inst.operators)
        assert cert.converged and cert.iterations > 0
        assert cert.primal_value - 1e-12 <= want <= cert.dual_value + 1e-12
        assert cert.gap <= 1e-9


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=8),
    st.booleans(),
    st.integers(min_value=0, max_value=10**6),
)
def test_solver_certificate_properties(n_ops, dim, pure, seed):
    """On random instances of the shapes the benchmark solves (up to 8
    operators of dimension up to 8), full-rank or rank one: a feasible,
    bracketing certificate within tol, well under the step cap."""
    rng = rng_from_seed(seed)
    weights = rng.random(n_ops) + 0.05
    weights /= weights.sum()
    inst = DiscriminationInstance(tuple(
        w * random_density_matrix(dim, rng, rank=1 if pure else None) for w in weights))
    cert = optimal_discrimination(inst, tol=1e-9)
    assert cert.primal_value <= cert.dual_value + 1e-12  # the two sides round apart
    assert dual_feasibility_defect(inst, cert.dual_witness) <= 1e-12
    assert np.max(np.abs(sum(cert.povm.elements) - np.eye(dim))) <= EQ_TOL
    assert cert.converged and cert.gap <= 1e-9
    assert cert.iterations < SOLVER_MAX_ITER
    if n_ops == 2:
        want = helstrom_value(*inst.operators)
        assert cert.primal_value - 1e-12 <= want <= cert.dual_value + 1e-12


def test_one_dimensional_value_is_largest_weight():
    inst = DiscriminationInstance(tuple(np.array([[w]], dtype=complex) for w in (0.2, 0.5, 0.3)))
    cert = optimal_discrimination(inst, tol=0.0)
    assert cert.primal_value == cert.dual_value == 0.5
    assert cert.converged and cert.iterations == 0
    assert [float(e[0, 0].real) for e in cert.povm.elements] == [0.0, 1.0, 0.0]


def test_game_at_old_iteration_cap_converges():
    """This adaptive solve stopped at 10,000 fixed-point iterations with a
    gap of 1.1e-8; the damped path without a predictor took 77 Newton steps,
    the predictor-corrector path takes under 60."""
    game = random_game(4, 2, 3, seed=(777, 110), dim_aprime=1)
    cert = adaptive_success(game, tol=1e-9)
    assert cert.converged and cert.gap <= 1e-9
    assert cert.iterations < 60


def test_criterion_03_newton_solve_budget(monkeypatch):
    """Criterion 03's 200 seed-0 games take at most 4,303 Newton-system
    solves, predictor solves included (3,623 corrector steps plus one
    predictor per centering); the damped path without a predictor took 5,862."""
    solves = []

    def counted(*args, _orig=discrimination._newton_solve):
        solves.append(1)
        return _orig(*args)

    monkeypatch.setattr(discrimination, "_newton_solve", counted)
    assert criterion_03_random_games(seed=0).passed
    assert len(solves) <= 4303


def test_trine_states_value():
    """Three symmetric qubit states, uniform weights: value 2/3, met by the
    square-root measurement."""
    vectors = []
    for k in range(3):
        ang = 2.0 * math.pi * k / 3.0
        vectors.append(np.array([math.cos(ang / 2.0), math.sin(ang / 2.0)],
                                dtype=complex))
    weights = [1.0 / 3.0] * 3
    inst = DiscriminationInstance(
        tuple(w * np.outer(v, v.conj()) for w, v in zip(weights, vectors))
    )
    cert = optimal_discrimination(inst, tol=1e-9)
    srm = square_root_measurement_value(weights, vectors)
    assert srm == pytest.approx(2.0 / 3.0, abs=1e-10)
    assert cert.primal_value == pytest.approx(2.0 / 3.0, abs=1e-7)
    assert cert.primal_value - 1e-12 <= 2.0 / 3.0 <= cert.dual_value + 1e-12
    assert cert.gap <= 1e-9


def test_weak_duality_and_certificate():
    rng = rng_from_seed(34)
    for _ in range(8):
        inst = random_instance(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        cert = optimal_discrimination(inst, tol=1e-7)
        assert cert.dual_value >= cert.primal_value - 1e-10
        assert cert.gap <= 1e-7 + 1e-12
        assert dual_feasibility_defect(inst, cert.dual_witness) <= 1e-9
        achieved = sum(
            float(np.real(np.trace(k @ e)))
            for k, e in zip(inst.operators, cert.povm.elements)
        )
        assert achieved == pytest.approx(cert.primal_value, abs=1e-9)


def test_value_scales_with_operators():
    rng = rng_from_seed(35)
    inst = random_instance(rng, 3, 3)
    scaled = DiscriminationInstance(tuple(0.37 * k for k in inst.operators))
    a = optimal_discrimination(inst, tol=1e-9)
    b = optimal_discrimination(scaled, tol=1e-9)
    assert b.primal_value == pytest.approx(0.37 * a.primal_value, abs=1e-8)


def test_orthogonal_states_perfectly_distinguishable():
    k0 = 0.5 * np.diag([1.0, 0.0]).astype(complex)
    k1 = 0.5 * np.diag([0.0, 1.0]).astype(complex)
    value, _ = binary_optimal(k0, k1)
    assert value == pytest.approx(1.0, abs=1e-12)


def test_identical_states_give_max_weight():
    rho = np.eye(2, dtype=complex) / 2.0
    value, _ = binary_optimal(0.7 * rho, 0.3 * rho)
    assert value == pytest.approx(0.7, abs=1e-12)


def make_cq(rng, n_symbols, dim):
    weights = rng.random(n_symbols)
    weights /= weights.sum()
    conds = tuple(
        density_from_matrix(shape(("B", dim)), random_density_matrix(dim, rng))
        for _ in range(n_symbols)
    )
    return CqState(tuple(range(n_symbols)), tuple(float(w) for w in weights), conds)


def test_hmin_cq_is_minus_log_guessing():
    rng = rng_from_seed(36)
    cq = make_cq(rng, 3, 2)
    value, cert = hmin_cq(cq)
    assert value == pytest.approx(-math.log2(cert.primal_value), abs=1e-12)
    g = guessing_probability(cq)
    assert cert.primal_value == pytest.approx(g.primal_value, abs=1e-12)


def test_cq_state_validation():
    s = shape(("B", 2))
    cond = density_from_matrix(s, np.eye(2, dtype=complex) / 2)
    with pytest.raises(InputError):
        CqState((0, 0), (0.5, 0.5), (cond, cond))
    with pytest.raises(InputError):
        CqState((0, 1), (0.7, 0.7), (cond, cond))


def test_instance_rejects_nonpsd():
    with pytest.raises(InputError):
        DiscriminationInstance((np.diag([1.0, -0.2]).astype(complex),))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_instance_rejects_non_finite(value):
    bad = np.diag([0.5, value]).astype(complex)
    with pytest.raises(InputError, match="non-finite"):
        DiscriminationInstance((np.eye(2, dtype=complex) / 2, bad))


_BAD_ELEMENTS = {
    "non-finite": np.diag([1.0 / 3.0, np.nan]).astype(complex),
    "not Hermitian": np.array([[1.0 / 3.0, 0.1], [0.0, 1.0 / 3.0]], dtype=complex),
    "not PSD": np.diag([1.0 / 3.0 + 0.5, 1.0 / 3.0 - 0.5]).astype(complex),
}


@pytest.mark.parametrize("kind", sorted(_BAD_ELEMENTS))
@pytest.mark.parametrize("index", [0, 3])
@pytest.mark.parametrize("container, label", [
    (Povm, "POVM element"), (DiscriminationInstance, "score operator")])
def test_stacked_validation_names_the_bad_element(kind, index, container, label):
    """One stacked check still names the failing element, first or last."""
    elements = [np.eye(2, dtype=complex) / 4.0] * 4
    elements[index] = _BAD_ELEMENTS[kind]
    with pytest.raises(InputError, match=f"{label} {index} (has a )?{kind}"):
        container(tuple(elements))


@pytest.mark.parametrize("container", [Povm, DiscriminationInstance])
def test_stacked_validation_rejects_mixed_shapes_and_freezes(container):
    with pytest.raises(InputError, match="one shared shape"):
        container((np.eye(2, dtype=complex) / 2, np.eye(3, dtype=complex) / 2))
    with pytest.raises(InputError, match="one shared shape"):
        container((np.eye(2, dtype=complex)[0], np.eye(2, dtype=complex)[1]))
    source = np.stack([np.eye(2, dtype=complex) / 2] * 2)
    built = container(tuple(source))
    assert source.flags.writeable  # the caller's matrices are copied, not frozen
    stored = built.elements if container is Povm else built.operators
    for arr in (built.stack, *stored):
        assert not arr.flags.writeable
        assert arr.base is built.stack or arr is built.stack
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0
