import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamebound import discrimination, games
from gamebound.acceptance import criterion_03_random_games
from gamebound.config import EQ_TOL, SOLVER_MAX_ITER
from gamebound.discrimination import (
    CqState,
    DiscriminationInstance,
    Povm,
    _barrier_path,
    binary_optimal,
    dual_feasibility_defect,
    optimal_discrimination,
    povm_list,
)
from gamebound.errors import InputError
from gamebound.games import adaptive_success, random_game, semi_adaptive_success
from gamebound.rand import (
    ginibre_draws,
    random_density_matrix,
    random_pure_vector,
    rng_from_seed,
    wishart_povms,
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


def drawn_instance(n_ops, dim, pure, seed):
    rng = rng_from_seed(seed)
    weights = rng.random(n_ops) + 0.05
    weights /= weights.sum()

    def state():
        if not pure:
            return random_density_matrix(dim, rng)
        v = random_pure_vector(dim, rng)
        return np.outer(v, v.conj())

    return DiscriminationInstance(tuple(w * state() for w in weights))


SHAPES = (
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=8),
    st.booleans(),
    st.integers(min_value=0, max_value=10**6),
)


@settings(max_examples=60, deadline=None)
@given(*SHAPES)
def test_solver_certificate_properties(n_ops, dim, pure, seed):
    """On random instances of the shapes the benchmark solves (up to 8
    operators of dimension up to 8), full-rank or rank one: a feasible,
    bracketing certificate within tol, well under the step cap."""
    inst = drawn_instance(n_ops, dim, pure, seed)
    cert = optimal_discrimination(inst, tol=1e-9)
    assert cert.primal_value <= cert.dual_value + 1e-12  # the two sides round apart
    assert dual_feasibility_defect(inst, cert.dual_witness) <= 1e-12
    assert np.max(np.abs(sum(cert.povm.elements) - np.eye(dim))) <= EQ_TOL
    assert cert.converged and cert.gap <= 1e-9
    assert cert.iterations < SOLVER_MAX_ITER
    if n_ops == 2:
        want = helstrom_value(*inst.operators)
        assert cert.primal_value - 1e-12 <= want <= cert.dual_value + 1e-12


@settings(max_examples=60, deadline=None)
@given(*SHAPES)
def test_line_searched_steps_stay_inside_and_descend(n_ops, dim, pure, seed):
    """On the same shapes, every line-searched corrector step Y + t D lands
    strictly inside the domain, each I + t L_j^{-1} D L_j^{-H} (so each
    Y + t D - K_j) having a Cholesky factor, and does not raise the barrier
    along D, phi(t) = t tr(D)/mu - sum_j log det(I + t L_j^{-1} D L_j^{-H}),
    here evaluated by slogdet rather than the search's eigenvalues."""
    searches = []

    def recorded(inv_l, inv_lh, step, mu, decrement, _orig=discrimination._line_search):
        t, drop = _orig(inv_l, inv_lh, step, mu, decrement)
        searches.append((inv_l @ step @ inv_lh, step.trace().real / mu, decrement, t))
        return t, drop

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(discrimination, "_line_search", recorded)
        optimal_discrimination(drawn_instance(n_ops, dim, pure, seed), tol=1e-9)
    for w, slope, decrement, t in searches:
        assert decrement > 0.25 and t >= 0.0
        moved = np.eye(w.shape[1]) + t * (w + w.conj().transpose(0, 2, 1)) / 2.0
        assert np.isfinite(np.linalg.cholesky(moved)).all()
        rise = t * slope - np.linalg.slogdet(moved)[1].sum()
        assert rise <= 1e-9 * max(1.0, t * abs(slope))


def test_one_dimensional_value_is_largest_weight():
    inst = DiscriminationInstance(tuple(np.array([[w]], dtype=complex) for w in (0.2, 0.5, 0.3)))
    cert = optimal_discrimination(inst, tol=0.0)
    assert cert.primal_value == cert.dual_value == 0.5
    assert cert.converged and cert.iterations == 0
    assert [float(e[0, 0].real) for e in cert.povm.elements] == [0.0, 1.0, 0.0]


def test_game_at_old_iteration_cap_converges():
    """This adaptive solve stopped at 10,000 fixed-point iterations with a
    gap of 1.1e-8; the damped path without a predictor took 77 Newton steps,
    the predictor-corrector path 58 when it centred every point tightly, 43
    once only the points it certifies were, and 21 now that corrector steps
    are line-searched instead of damped."""
    game = random_game(4, 2, 3, seed=(777, 110), dim_aprime=1)
    cert = adaptive_success(game, tol=1e-9)
    assert cert.converged and cert.gap <= 1e-9
    assert cert.iterations <= 21


def test_criterion_03_newton_solve_budget(monkeypatch):
    """Criterion 03's 200 seed-0 games take 2,250 Newton-system solves,
    predictor solves included (corrector steps plus one predictor per
    centering), bounded here at 5% above that; the damped path without a
    predictor took 5,862, tight centring at every point 4,303, and damped
    corrector steps 3,708."""
    solves = []

    def counted(*args, _orig=discrimination._newton_solve):
        solves.append(1)
        return _orig(*args)

    monkeypatch.setattr(discrimination, "_newton_solve", counted)
    assert criterion_03_random_games(seed=0).passed
    assert len(solves) <= 2362


def test_criterion_03_certificates_per_barrier_solve(monkeypatch):
    """Only points that can end a solve are certified: each barrier solve of
    criterion 03's seed-0 games builds at most 3 certificates, the uniform
    POVM's included (up to 8 when every centring was certified)."""
    built, per_solve = [], []

    def counted_certificate(*args, _orig=discrimination._certificate):
        built.append(1)
        return _orig(*args)

    def counted_path(instance, tol, _orig=discrimination._barrier_path):
        built.clear()
        cert = _orig(instance, tol)
        per_solve.append(len(built))
        return cert

    monkeypatch.setattr(discrimination, "_certificate", counted_certificate)
    monkeypatch.setattr(discrimination, "_barrier_path", counted_path)
    assert criterion_03_random_games(seed=0).passed
    assert per_solve and max(per_solve) <= 3


def test_tolerance_below_rounding_floor_stops_early():
    """At tol 1e-12, below the rounding floor, the path stops once a full
    Newton step fails to shrink the decrement instead of spinning: the
    previous solver took up to the 10,000-step cap on four of these 16
    instances, 8.1 s in all, for the same ten converged solves and a worst
    gap of 3.72e-11."""
    worst, converged = 0.0, []
    for s in range(16):
        rng = rng_from_seed(s)
        n_ops, dim = int(rng.integers(3, 9)), int(rng.integers(2, 9))
        cert = optimal_discrimination(random_instance(rng, dim, n_ops), tol=1e-12)
        assert cert.iterations <= 200
        assert cert.primal_value <= cert.dual_value
        worst = max(worst, cert.gap)
        if cert.converged:
            converged.append(s)
    assert worst <= 3.72e-11
    assert converged == [0, 1, 2, 3, 9, 10, 11, 12, 14, 15]


def test_zero_tolerance_ends_at_the_rounding_floor():
    """At tol 0 every path must end at the rounding floor: within 40 steps on
    these 40 instances, each certificate still bracketing the optimum. With
    damped steps and only the full-step floor stop, 5 of them ran to the
    10,000-step cap."""
    for s, pure in itertools.product(range(20), (False, True)):
        rng = rng_from_seed((s, 99))
        n_ops, dim = int(rng.integers(3, 9)), int(rng.integers(2, 9))
        weights = rng.random(n_ops) + 0.05
        weights /= weights.sum()
        ops = []
        for w in weights:
            if pure:
                v = random_pure_vector(dim, rng)
                ops.append(w * np.outer(v, v.conj()))
            else:
                ops.append(w * random_density_matrix(dim, rng))
        cert = optimal_discrimination(DiscriminationInstance(tuple(ops)), tol=0.0)
        assert cert.iterations <= 40
        assert cert.primal_value <= cert.dual_value


def _exactly_positive_definite(y: np.ndarray, k: np.ndarray) -> bool:
    """Whether Y - K is positive definite in exact arithmetic: Gaussian
    elimination in rationals on the real embedding [[A, -B], [B, A]] of
    Y - K = A + iB, every pivot > 0."""
    def embedded(m):
        big = np.block([[m.real, -m.imag], [m.imag, m.real]])
        return [[Fraction(float(x)) for x in row] for row in big]

    rows = [[a - b for a, b in zip(ry, rk)] for ry, rk in zip(embedded(y), embedded(k))]
    for i in range(len(rows)):
        if rows[i][i] <= 0:
            return False
        for r in range(i + 1, len(rows)):
            factor = rows[r][i] / rows[i][i]
            if factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[i])]
    return True


def test_dual_is_exactly_feasible_under_rounding(monkeypatch):
    """Every dual the solver returns on 60 random games is feasible in exact
    arithmetic: each Y - K_j is positive definite (for d > 1, where the
    rounding margin applies; 20 adaptive duals failed without it) or, for the
    1 x 1 dual max_j K_j, nonnegative."""
    solved = []

    def recorded(instance, tol, _orig=optimal_discrimination):
        cert = _orig(instance, tol)
        solved.append((instance, cert))
        return cert

    monkeypatch.setattr(games, "optimal_discrimination", recorded)
    shapes = ((2, 2, 3), (4, 2, 3), (2, 4, 4), (4, 4, 4))
    for s in range(60):
        game = random_game(*shapes[s % 4], seed=(5, s))
        adaptive_success(game, tol=1e-9)
        semi_adaptive_success(game, tol=1e-9)
    assert len(solved) == 120
    for instance, cert in solved:
        trace = sum(Fraction(x) for x in np.diag(cert.dual_witness).real)
        assert Fraction(cert.dual_value) >= trace
        for k in instance.stack:
            if instance.dim == 1:
                assert Fraction(cert.dual_witness[0, 0].real) >= Fraction(k[0, 0].real)
            else:
                assert _exactly_positive_definite(cert.dual_witness, k)


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


def _povm_group(m: int = 5, n: int = 3, dim: int = 2) -> np.ndarray:
    """m random n-element POVMs on C^dim as one (m, n, dim, dim) stack."""
    rng = rng_from_seed(70)
    return np.array([wishart_povms(ginibre_draws(dim, n, rng)) for _ in range(m)])


def test_povm_list_is_each_povm_validated_alone():
    """A validated group gives each POVM as Povm(...) builds it: the same
    elements, read-only, and copied from the caller's stack."""
    group = _povm_group()
    made = povm_list(group)
    assert group.flags.writeable
    for row, povm in zip(group, made):
        alone = Povm(tuple(row))
        assert np.array_equal(povm.stack, alone.stack) and len(povm) == len(alone) == 3
        assert not povm.stack.flags.writeable
        assert all(np.array_equal(a, b) for a, b in zip(povm.elements, alone.elements))
        with pytest.raises(ValueError):
            povm.stack[0, 0, 0] = 1.0


def _make_not_psd(group):
    # move weight between two elements of POVM 2: the sum holds, element 1 is indefinite
    shift = np.diag([0.5, -0.5]).astype(complex)
    group[2, 1] -= shift + np.eye(2)
    group[2, 0] += shift + np.eye(2)


_GROUP_FAULTS = {
    "not PSD": (_make_not_psd, "element 1 not PSD"),
    "non-finite": (lambda group: group[2, 1].__setitem__((0, 1), np.nan),
                   "element 1 has a non-finite entry"),
    "not Hermitian": (lambda group: group[2, 1].__setitem__((0, 1), group[2, 1, 0, 1] + 0.1),
                      "element 1 not Hermitian"),
    "sum off by 2e-9": (lambda group: group[2, 1].__iadd__(2e-9 * np.eye(2)),
                        "elements do not sum to the identity within 1e-9: defect 2"),
}


@pytest.mark.parametrize("fault", sorted(_GROUP_FAULTS))
def test_stacked_povm_validation_names_the_povm_and_element(fault):
    """A fault in POVM 2 of a group of 5 is found by the one stacked pass, and
    the error names that POVM (by its caller's name, if given) and element."""
    spoil, what = _GROUP_FAULTS[fault]
    group = _povm_group()
    spoil(group)
    with pytest.raises(InputError, match=f"^POVM 2 {what}"):
        povm_list(group)
    names = [f"state 7 POVM {i}" for i in range(5)]
    with pytest.raises(InputError, match=f"^state 7 POVM 2 {what}"):
        povm_list(group, names)
    with pytest.raises(InputError, match=f"^POVM {what}"):
        Povm(tuple(group[2]))  # the same check on a stack of one


def test_stacked_povm_sum_tolerance_is_eq_tol():
    group = _povm_group()
    group[2, 1] += 0.5 * EQ_TOL * np.eye(2)
    assert len(povm_list(group)) == 5
