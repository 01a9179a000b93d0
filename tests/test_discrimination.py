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
    score_operators,
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
    here evaluated by slogdet rather than the search's eigenvalues. Qubit
    instances are kept on the barrier path, which the closed form would skip."""
    searches = []

    def recorded(inv_l, inv_lh, step, mu, decrement, _orig=discrimination._line_search):
        t, drop = _orig(inv_l, inv_lh, step, mu, decrement)
        searches.append((inv_l @ step @ inv_lh, step.trace().real / mu, decrement, t))
        return t, drop

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(discrimination, "_line_search", recorded)
        mp.setattr(discrimination, "_QUBIT_MAX_N", 2)
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


def test_game_at_old_iteration_cap_converges(monkeypatch):
    """This adaptive solve stopped at 10,000 fixed-point iterations with a
    gap of 1.1e-8; the damped path without a predictor took 77 Newton steps,
    the predictor-corrector path 58 when it centred every point tightly, 43
    once only the points it certifies were, and 21 now that corrector steps
    are line-searched instead of damped. Its support is a qubit, where the
    closed form takes 0 steps; the barrier path is held to 21 here."""
    game = random_game(4, 2, 3, seed=(777, 110), dim_aprime=1)
    cert = adaptive_success(game, tol=1e-9)
    assert cert.converged and cert.gap <= 1e-9 and cert.iterations == 0
    monkeypatch.setattr(discrimination, "_QUBIT_MAX_N", 2)
    barrier = adaptive_success(game, tol=1e-9)
    assert barrier.converged and barrier.gap <= 1e-9
    assert 0 < barrier.iterations <= 21
    assert barrier.primal_value - 1e-12 <= cert.dual_value
    assert cert.primal_value - 1e-12 <= barrier.dual_value


def test_criterion_03_newton_solve_budget(monkeypatch):
    """Criterion 03's 200 seed-0 games take 522 Newton-system solves,
    predictor solves included (corrector steps plus one predictor per
    centering), bounded here at 5% above that, in 25 barrier solves, none of
    them a qubit. The damped path without a predictor took 5,862, tight
    centring at every point 4,303, damped corrector steps 3,708, and the
    line-searched path 2,215 in 123 barrier solves before qubits took the
    closed form."""
    solves, dims = [], []

    def counted(*args, _orig=discrimination._newton_solve):
        solves.append(1)
        return _orig(*args)

    def recorded(instance, tol, _orig=discrimination._barrier_path):
        dims.append(instance.dim)
        return _orig(instance, tol)

    monkeypatch.setattr(discrimination, "_newton_solve", counted)
    monkeypatch.setattr(discrimination, "_barrier_path", recorded)
    assert criterion_03_random_games(seed=0).passed
    assert len(solves) <= 548
    assert len(dims) == 25 and 2 not in dims


def test_criterion_03_certificates_per_barrier_solve(monkeypatch):
    """Only points that can end a solve are certified: each barrier solve of
    criterion 03's seed-0 games builds at most 3 certificates, the uniform
    POVM's included (up to 8 when every centring was certified). Qubit
    instances are kept on the barrier path, which the closed form would skip."""
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
    monkeypatch.setattr(discrimination, "_QUBIT_MAX_N", 2)
    assert criterion_03_random_games(seed=0).passed
    assert len(per_solve) == 123 and max(per_solve) <= 3


def test_tolerance_below_rounding_floor_stops_early(monkeypatch):
    """At tol 1e-12, below the rounding floor, the path stops once a full
    Newton step fails to shrink the decrement instead of spinning: the
    previous solver took up to the 10,000-step cap on four of these 16
    instances, 8.1 s in all, for the same ten converged solves and a worst
    gap of 3.72e-11. Qubit instances are kept on the barrier path."""
    monkeypatch.setattr(discrimination, "_QUBIT_MAX_N", 2)
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
    """Every dual the solver returns on 66 random games is feasible in exact
    arithmetic: each Y - K_j is positive definite (for d > 1, where the
    rounding margin applies; 20 adaptive duals failed without it) or, for the
    1 x 1 dual max_j K_j, nonnegative. The games include d_A d_A' = 8 with
    d_B = 2 and 4, so duals lifted from a solve on the support are audited
    too, and 54 qubit instances of 3 and 4 operators, whose duals come from
    the closed form."""
    solved = []
    lifted = recorded_supports(monkeypatch)
    closed = recorded_closed_forms(monkeypatch)

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
    for s in range(6):
        game = random_game(4, 2 + 2 * (s % 2), 3, seed=(5, 60 + s), dim_aprime=2)
        adaptive_success(game, tol=1e-9)
        semi_adaptive_success(game, tol=1e-9)
    assert len(solved) == 132
    assert {(8, 2), (8, 4), (4, 2)} <= set(lifted)
    assert len(closed) == 54 and set(closed) == {3, 4}
    for instance, cert in solved:
        trace = sum(Fraction(x) for x in np.diag(cert.dual_witness).real)
        assert Fraction(cert.dual_value) >= trace
        for k in instance.stack:
            if instance.dim == 1:
                assert Fraction(cert.dual_witness[0, 0].real) >= Fraction(k[0, 0].real)
            else:
                assert _exactly_positive_definite(cert.dual_witness, k)


@pytest.mark.parametrize("n_ops", [3, 4, 8])
def test_closed_form_duals_are_exactly_feasible(n_ops, monkeypatch):
    """The qubit closed form's dual is a ball tangent to some B(k_j, r_j), on the
    boundary of the feasible set; shifted by its computed defect and given the
    rounding margin, every Y - K_j is positive definite in exact arithmetic, on
    20 mixed and 20 rank-one instances of n_ops qubit operators."""
    closed = recorded_closed_forms(monkeypatch)
    for s, pure in itertools.product(range(20), (False, True)):
        instance = drawn_instance(n_ops, 2, pure, (73, n_ops, s))
        cert = optimal_discrimination(instance, tol=1e-9)
        assert cert.converged and cert.iterations == 0
        trace = sum(Fraction(x) for x in np.diag(cert.dual_witness).real)
        assert Fraction(cert.dual_value) >= trace
        for k in instance.stack:
            assert _exactly_positive_definite(cert.dual_witness, k)
    assert closed == [n_ops] * 40


def recorded_closed_forms(monkeypatch) -> list:
    """The operator count of every instance the qubit closed form certifies from now on."""
    counts = []

    def recorded(instance, tol, _orig=discrimination._qubit_ball):
        cert = _orig(instance, tol)
        if cert is not None and cert.converged:
            counts.append(len(instance))
        return cert

    monkeypatch.setattr(discrimination, "_qubit_ball", recorded)
    return counts


def recorded_supports(monkeypatch) -> list:
    """(d, support rank) of every instance solved on its support from now on."""
    lifted = []

    def recorded(instance, v, tol, _orig=discrimination._on_support):
        lifted.append(v.shape)
        return _orig(instance, v, tol)

    monkeypatch.setattr(discrimination, "_on_support", recorded)
    return lifted


@pytest.mark.parametrize("dim_a, dim_aprime, dim_b", [(4, 1, 2), (4, 2, 2), (4, 2, 4), (2, 4, 4)])
def test_support_solve_brackets_the_full_space_value(dim_a, dim_aprime, dim_b, monkeypatch):
    """On a pure joint state with d_A d_A' > d_B every score operator lives in
    the rank-d_B support of rho_AA'. The solve there, lifted, is a feasible
    certificate of the full instance that brackets the same value as a solve
    of the whole d_A d_A'-dimensional space, within tol."""
    lifted = recorded_supports(monkeypatch)
    for s in range(6):
        game = random_game(dim_a, dim_b, 3, seed=(71, s), dim_aprime=dim_aprime)
        instance = score_operators(game.state.matrix, game.family.stack)
        cert = optimal_discrimination(instance, tol=1e-9)
        full = discrimination._solve(instance, 1e-9)
        assert cert.converged and full.converged
        assert cert.povm.dim == instance.dim == dim_a * dim_aprime
        assert dual_feasibility_defect(instance, cert.dual_witness) <= 0.0
        low = max(cert.primal_value, full.primal_value)
        assert low <= min(cert.dual_value, full.dual_value) + 1e-12
        assert abs(cert.primal_value - full.primal_value) <= 1e-9
    assert lifted == [(dim_a * dim_aprime, dim_b)] * 6


@pytest.mark.parametrize("n_ops", [1, 2, 3])
@pytest.mark.parametrize("dim", [1, 2, 5])
def test_support_rank_zero_and_one_return_valid_certificates(n_ops, dim, monkeypatch):
    """All-zero score operators (support rank 0: nothing is solved, F_0 = I)
    and multiples w_j P of one rank-one projector (value max_j w_j) each get a
    converged certificate with a feasible dual and a POVM of the full space."""
    lifted = recorded_supports(monkeypatch)
    rng = rng_from_seed((72, n_ops, dim))
    vec = random_pure_vector(dim, rng)
    weights = rng.random(n_ops)
    cases = ((np.zeros((n_ops, dim, dim), complex), 0.0),
             (weights[:, None, None] * np.outer(vec, vec.conj()), float(weights.max())))
    for ops, value in cases:
        instance = DiscriminationInstance(tuple(ops))
        cert = optimal_discrimination(instance, tol=1e-9)
        assert cert.converged
        assert cert.primal_value - 1e-12 <= value <= cert.dual_value
        assert dual_feasibility_defect(instance, cert.dual_witness) <= 0.0
        assert np.abs(cert.povm.stack.sum(axis=0) - np.eye(dim)).max() <= EQ_TOL
    assert [rank for _, rank in lifted] == ([0, 1] if dim > 1 else [0])


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


PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def bloch_instance(weights, vectors) -> DiscriminationInstance:
    """Score operators w_j (I + b_j.sigma)/2 for Bloch vectors b_j, |b_j| <= 1."""
    return DiscriminationInstance(tuple(
        w * (np.eye(2) + np.einsum("i,ikl->kl", np.asarray(b, float), PAULI)) / 2.0
        for w, b in zip(weights, vectors)))


def closed_form(instance: DiscriminationInstance) -> discrimination.SolverCertificate:
    cert = discrimination._qubit_ball(instance, 1e-9)
    assert cert is not None and cert.converged and cert.iterations == 0
    assert cert.gap <= 1e-12
    assert dual_feasibility_defect(instance, cert.dual_witness) <= 0.0
    return cert


def test_qubit_closed_form_oracles():
    """Known optima of the smallest ball enclosing balls. Trine states in the
    x-z plane with a centred fourth operator: 2/3, the four centres coplanar,
    so the one 4-subset has an exactly singular Gram matrix. Tetrahedral (SIC)
    states, uniform prior: 1/2, the ball touching all four, F_j = 2 K_j. A
    dominating K_0 = 0.6 I: F_0 = I and the value tr K_0. Multiples of one
    rank-one projector, every ball touching the largest at one point: F_j = I
    for the largest weight. All-zero operators: 0, F_0 = I. Rank-one
    operators among zero ones: the value without the zero ones."""
    trine = [(math.sin(2 * math.pi * j / 3), 0.0, math.cos(2 * math.pi * j / 3)) for j in range(3)]
    cert = closed_form(bloch_instance([1 / 3] * 3 + [0.1], trine + [(0.0, 0.0, 0.0)]))
    assert cert.primal_value - 1e-15 <= 2 / 3 <= cert.dual_value
    assert np.abs(cert.povm.stack[3]).max() <= 1e-12

    sic = [(0.0, 0.0, 1.0)] + [(2 * math.sqrt(2) / 3 * math.cos(2 * math.pi * j / 3),
                                2 * math.sqrt(2) / 3 * math.sin(2 * math.pi * j / 3), -1 / 3)
                               for j in range(3)]
    instance = bloch_instance([1 / 4] * 4, sic)
    cert = closed_form(instance)
    assert cert.primal_value - 1e-15 <= 0.5 <= cert.dual_value
    assert np.abs(cert.povm.stack - 2 * instance.stack).max() <= 1e-12

    instance = DiscriminationInstance((0.6 * np.eye(2), np.diag([0.1, 0.0]), np.diag([0.0, 0.05])))
    cert = closed_form(instance)
    assert cert.primal_value == pytest.approx(1.2, abs=1e-15)
    assert np.array_equal(cert.povm.stack[0], np.eye(2)) and not cert.povm.stack[1:].any()

    cert = closed_form(bloch_instance([0.2, 0.5, 0.3], [(0.0, 0.0, 1.0)] * 3))
    assert cert.primal_value == 0.5 and np.array_equal(cert.povm.stack[1], np.eye(2))

    cert = closed_form(DiscriminationInstance(tuple(np.zeros((3, 2, 2)))))
    assert cert.primal_value == 0.0 and np.array_equal(cert.povm.stack[0], np.eye(2))

    rng = rng_from_seed(74)
    pure = [random_pure_vector(2, rng) for _ in range(3)]
    weights = rng.random(3)
    ops = [w * np.outer(v, v.conj()) for w, v in zip(weights, pure)]
    zero = np.zeros((2, 2))
    cert = closed_form(DiscriminationInstance((zero, ops[0], zero, ops[1], ops[2])))
    alone = closed_form(DiscriminationInstance(tuple(ops)))
    assert cert.primal_value == pytest.approx(alone.primal_value, abs=1e-14)
    assert np.abs(cert.povm.stack[[0, 2]]).max() <= 1e-12


def test_closed_form_shifts_a_ball_that_misses_by_less_than_its_slack():
    """A candidate ball may miss some B(k_j, r_j) by up to 1e-12 r_max and still
    be taken, so the dual is shifted by its defect: trine balls in the x-z
    plane, whose smallest enclosing ball has R = 1/3, and a fourth ball in that
    plane, between two of them, reaching 1e-13 beyond it, 30 times the rounding
    margin. Enclosing the fourth too takes a ball about 5e-14 larger, so the
    trine's ball is taken, and the dual must still be exactly feasible."""
    trine = [(math.sin(2 * math.pi * j / 3), 0.0, math.cos(2 * math.pi * j / 3)) for j in range(3)]
    ops = [w * (np.eye(2) + np.einsum("i,ikl->kl", np.asarray(b), PAULI)) / 2.0
           for w, b in zip([1 / 3] * 3, trine)]
    between = np.einsum("i,ikl->kl", [math.sin(math.pi / 3), 0.0, math.cos(math.pi / 3)], PAULI)
    ops.append((1 / 3 + 1e-13 - 0.1) * np.eye(2) + 0.1 * between)
    instance = DiscriminationInstance(tuple(ops))
    cert = closed_form(instance)
    assert cert.primal_value == pytest.approx(2 / 3, abs=1e-15)
    assert not cert.povm.stack[3].any()
    assert cert.dual_value >= 2 / 3 + 2e-13  # the trine's ball, grown by the 1e-13 it misses by
    for k in instance.stack:
        assert _exactly_positive_definite(cert.dual_witness, k)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=3, max_value=12), st.booleans(), st.integers(0, 10**6))
def test_qubit_closed_form_brackets_the_barrier_path(n_ops, pure, seed):
    """On random qubit instances of 3 to 12 operators, mixed or rank one, the
    closed form's certificate has a gap of at most 1e-12 and overlaps the
    barrier path's, and optimal_discrimination takes it in 0 steps."""
    instance = drawn_instance(n_ops, 2, pure, seed)
    cert = closed_form(instance)
    barrier = _barrier_path(instance, 1e-9)
    assert barrier.converged and barrier.iterations > 0
    assert max(cert.primal_value, barrier.primal_value) <= min(cert.dual_value, barrier.dual_value)
    assert np.abs(cert.povm.stack.sum(axis=0) - np.eye(2)).max() <= EQ_TOL
    assert optimal_discrimination(instance, tol=1e-9).iterations == 0


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


def test_binary_optimal_takes_two_matrices_of_one_dimension():
    """check_psd accepts (n, d, d) stacks too; binary_optimal refuses them, and operators of
    different dimensions, as input errors."""
    with pytest.raises(InputError, match="two matrices of one dimension"):
        binary_optimal(np.stack([np.eye(2) / 2] * 3), np.stack([np.eye(2) / 4] * 3))
    with pytest.raises(InputError, match="two matrices of one dimension"):
        binary_optimal(np.eye(2) / 2, np.eye(3) / 3)


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
    # POVM 2's sum holds and every entry stays within 1, past the magnitude step, but
    # element 1 is indefinite
    group[2] = [np.diag([0.25, 0.75]), np.diag([0.5, -0.5]), np.diag([0.25, 0.75])]


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("place", [[(1, 1)], [(0, 1), (1, 0)]], ids=["diagonal", "off-diagonal"])
def test_povm_entry_near_the_float_limit_is_refused_by_its_magnitude(place):
    """Every POVM element lies between 0 and I, so no entry exceeds 1 in magnitude. An entry
    of 1e308 in each element overflowed the element sum (on the diagonal) or was refused as
    not PSD (off it); the magnitude step refuses it first, alone or in a group."""
    elements = np.stack([np.eye(2, dtype=complex) / 2] * 2)
    for ij in place:
        elements[(slice(None), *ij)] = 1e308
    what = r"element 0 exceeds the identity: entry of magnitude 1\.000e\+308 > 1"
    with pytest.raises(InputError, match=f"^POVM {what}$"):
        Povm(tuple(elements))
    group = _povm_group(n=2)
    group[2] = elements
    with pytest.raises(InputError, match=f"^POVM 2 {what}$"):
        povm_list(group)
