import math

import numpy as np
import pytest

from gamebound.errors import InputError
from gamebound.games import (
    MAIN_BOUND,
    AttackGame,
    BinaryPovmFamily,
    adaptive_success,
    aprime_is_classical,
    bell_game,
    load_family,
    non_adaptive_success,
    random_game,
    save_family,
    semi_adaptive_success,
    verify_main_theorem,
)
from gamebound.rand import rng_from_seed
from gamebound.states import density_from_matrix, partial_trace, zero_entropy


def test_bell_game_values():
    """The entangled counterexample: adaptive wins always, the other two
    modes sit at chance level."""
    res = verify_main_theorem(bell_game(), tol=1e-6, solver_tol=1e-9)
    assert res.adaptive == pytest.approx(1.0, abs=1e-7)
    assert res.semi_adaptive == pytest.approx(0.25, abs=1e-7)
    assert res.non_adaptive == pytest.approx(0.25, abs=1e-7)
    assert res.zero_entropy_a == 1.0
    assert res.adaptive_cert.gap <= 1e-7


def test_bell_game_flags_conditional_bound_violation():
    res = verify_main_theorem(bell_game(), tol=1e-6, solver_tol=1e-9)
    flagged = [c for c in res.bound_checks if c.expected_violation]
    assert flagged, "the naive conditional bound should be marked"
    assert [(c.name, c.lhs) for c in flagged] == [(MAIN_BOUND, res.adaptive_cert.dual_value)]
    assert any(not c.passed for c in flagged)
    # the violation is expected, so the aggregate verdict stays positive
    assert res.ok


def test_main_bound_on_random_games():
    """adaptive <= 2^(effective qubits) * non-adaptive, and non-adaptive
    never exceeds adaptive."""
    for k in range(25):
        rng = rng_from_seed((51, k))
        dim_a = int(rng.choice([2, 4]))
        game = random_game(dim_a, 2, int(rng.integers(2, 5)), seed=(51, k))
        res = verify_main_theorem(game, tol=1e-6, solver_tol=1e-9)
        dual = res.adaptive_cert.dual_value
        assert dual <= 2.0**res.zero_entropy_a * res.non_adaptive + 1e-6
        assert res.non_adaptive <= res.adaptive + 1e-8
        assert res.adaptive_cert.gap <= 1e-7
        main = next(c for c in res.bound_checks if c.name == MAIN_BOUND)
        assert main.passed and main.lhs == dual


def test_semi_adaptive_between_modes():
    for k in range(10):
        game = random_game(2, 2, 3, seed=(52, k))
        res = verify_main_theorem(game, tol=1e-6, solver_tol=1e-9)
        assert res.non_adaptive <= res.semi_adaptive + 1e-7
        assert res.semi_adaptive <= res.adaptive + 1e-7


def _dephase_aprime(game):
    """The game with A' measured in its declared basis: the off-diagonal A'
    blocks of the state are zeroed, which keeps a valid density."""
    dim_a, dim_ap, dim_b = game.dims
    mat = game.state.matrix.reshape(dim_a, dim_ap, dim_b, dim_a, dim_ap, dim_b).copy()
    for i in range(dim_ap):
        for j in range(dim_ap):
            if i != j:
                mat[:, i, :, :, j, :] = 0.0
    state = density_from_matrix(game.state.shape, mat.reshape(game.state.matrix.shape))
    return AttackGame(state, game.family)


def test_classical_aprime_obeys_conditional_bound():
    """With a classical side register the conditional-entropy bound applies
    and holds: check (i) passes on every dephased random game."""
    for k in range(6):
        game = random_game(2, 2, 2, seed=(53, k), dim_aprime=2)
        assert not aprime_is_classical(game)
        game = _dephase_aprime(game)
        assert aprime_is_classical(game)
        res = verify_main_theorem(game, tol=1e-6, solver_tol=1e-9)
        (main,) = [chk for chk in res.bound_checks if chk.name == MAIN_BOUND]
        assert main.passed and not main.expected_violation


def test_game_values_achievable_by_reported_strategies():
    game = bell_game()
    na = non_adaptive_success(game)
    semi = semi_adaptive_success(game, tol=1e-9)
    ada = adaptive_success(game, tol=1e-9)
    assert na <= semi.primal_value + 1e-7
    assert semi.primal_value <= ada.primal_value + 1e-7


def test_zero_entropy_uses_reduction_rank():
    game = bell_game()
    rho_a = partial_trace(game.state, keep=("A",))
    rank = int(np.linalg.matrix_rank(rho_a.matrix, tol=1e-8))
    assert zero_entropy(game.state, "A") == pytest.approx(math.log2(rank), abs=1e-12)


def test_family_errors_name_the_bad_effect_by_label():
    """The family is validated in one stacked pass; an error still names the
    first bad effect by its label."""
    half = np.eye(2) / 2
    with pytest.raises(InputError, match="effect 't1' exceeds the identity"):
        BinaryPovmFamily(("t0", "t1"), (half, 2 * np.eye(2)))
    with pytest.raises(InputError, match="effect 't1' not PSD"):
        BinaryPovmFamily(("t0", "t1", "t2"), (half, -np.eye(2), half))


def test_family_round_trip(tmp_path):
    game = random_game(2, 2, 3, seed=54)
    path = str(tmp_path / "family.json")
    save_family(game.family, path)
    back = load_family(path)
    assert back.labels == game.family.labels
    for e0, e1 in zip(game.family.effects, back.effects):
        np.testing.assert_allclose(e0, e1, atol=1e-12)


def test_random_game_deterministic_per_seed():
    g1 = random_game(2, 2, 3, seed=(56, 1))
    g2 = random_game(2, 2, 3, seed=(56, 1))
    np.testing.assert_allclose(g1.state.matrix, g2.state.matrix, atol=0)
