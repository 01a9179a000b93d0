import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamebound.commitments import (
    ProjectiveCommitmentScheme,
    _qubit_optimum,
    adaptive_binding,
    cheat_state,
    load_scheme,
    norm_lemma_check,
    save_scheme,
    scheme_epsilon_na,
    storage_reduction_check,
)
from gamebound.discrimination import score_operators
from gamebound.errors import InputError
from gamebound.linalg import partial_trace_matrix
from gamebound.rand import random_projector, random_pure_vector, rng_from_seed
from gamebound.registers import shape
from gamebound.states import density_from_matrix

PLUS = np.full((2, 2), 0.5)
Z0 = np.diag([1.0, 0.0]).astype(complex)
Z1 = np.diag([0.0, 1.0]).astype(complex)


def basis_reveal_scheme():
    """Bit 0 opens to either computational basis state, bit 1 to |+>."""
    return ProjectiveCommitmentScheme(
        (("a", Z0), ("b", Z1)), (("c", PLUS),)
    )


def copy_state():
    return density_from_matrix(
        shape(("A", 2), ("B", 2)),
        np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex),
    )


def test_scheme_validation():
    with pytest.raises(InputError):
        ProjectiveCommitmentScheme((), (("c", PLUS),))
    with pytest.raises(InputError):
        ProjectiveCommitmentScheme((("a", Z0), ("a", Z1)), (("c", PLUS),))
    with pytest.raises(InputError):
        ProjectiveCommitmentScheme((("a", np.diag([1.0, 0.5])),), (("c", PLUS),))


def test_scheme_errors_name_the_bad_opening_by_label():
    """Each side is validated in one stacked pass; an error still names the
    first bad projector by its label."""
    with pytest.raises(InputError, match=r"V\[b\] is not idempotent"):
        ProjectiveCommitmentScheme((("a", Z0), ("b", 0.5 * Z1)), (("c", PLUS),))
    with pytest.raises(InputError, match=r"V\[d\] not PSD"):
        ProjectiveCommitmentScheme((("a", Z0),), (("c", PLUS), ("d", -Z1)))


@pytest.mark.parametrize("mode", ["povm-relaxation", "projective-bruteforce"])
def test_attack_state_must_be_a_and_b_of_the_schemes_dimension(mode):
    # a third register would be read as part of A, which the qubit closed form
    # does not cover; a B of the wrong size does not fit the projectors
    three = density_from_matrix(shape(("A", 2), ("A2", 2), ("B", 2)), np.eye(8) / 8)
    wide = density_from_matrix(shape(("A", 2), ("B", 4)), np.eye(8) / 8)
    for rho in (three, wide):
        with pytest.raises(InputError, match="registers"):
            adaptive_binding(basis_reveal_scheme(), rho, mode=mode)


def test_epsilon_na_is_worst_pair_overlap():
    scheme = basis_reveal_scheme()
    # ||P1 P0|| over pairs: |<+|0>| = |<+|1>| = 1/sqrt(2)
    assert scheme_epsilon_na(scheme) == pytest.approx(2**-0.5, abs=1e-12)


def test_adaptive_beats_non_adaptive_with_side_information():
    """Holding a classical copy of the basis lets the committer always
    reveal bit 0, while without it the best is even odds."""
    scheme = basis_reveal_scheme()
    rep = adaptive_binding(scheme, copy_state())
    assert rep.p0 == pytest.approx(1.0, abs=1e-9)
    assert rep.p1 == pytest.approx(0.5, abs=1e-9)
    # best fixed openings on the maximally mixed rho_B
    na_p0, na_p1 = (max(np.trace(v).real / 2 for _, v in scheme.openings(bit))
                    for bit in (0, 1))
    assert na_p0 == pytest.approx(0.5, abs=1e-9)
    assert na_p1 == pytest.approx(0.5, abs=1e-9)
    # the sum still respects 1 + epsilon of the scheme
    assert rep.p0 + rep.p1 <= 1.0 + scheme_epsilon_na(scheme) + 1e-9


def test_na_binding_sum_bound_random_schemes():
    rng = rng_from_seed(61)
    for _ in range(10):
        dim = int(rng.integers(2, 6))
        scheme = ProjectiveCommitmentScheme(
            tuple((f"z{j}", random_projector(dim, int(rng.integers(1, dim)), rng))
                  for j in range(int(rng.integers(1, 3)))),
            tuple((f"o{j}", random_projector(dim, int(rng.integers(1, dim)), rng))
                  for j in range(int(rng.integers(1, 3)))),
        )
        # best fixed openings on the maximally mixed rho_B
        p0, p1 = (max(np.trace(v).real / dim for _, v in scheme.openings(bit))
                  for bit in (0, 1))
        assert p0 + p1 <= 1.0 + scheme_epsilon_na(scheme) + 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=12),
       st.integers(min_value=0, max_value=10**6))
def test_norm_lemma_random_projectors(dim, seed):
    rng = rng_from_seed(seed)
    x = random_projector(dim, int(rng.integers(1, dim)), rng)
    y = random_projector(dim, int(rng.integers(1, dim)), rng)
    ok, lhs, rhs = norm_lemma_check(x, y)
    assert ok
    assert lhs <= rhs + 1e-9


def test_norm_lemma_stack_matches_one_pair_at_a_time():
    """(n, d, d) stacks of pairs give each pair's single-call result."""
    rng = rng_from_seed(71)
    xs = np.stack([random_projector(6, int(rng.integers(1, 6)), rng) for _ in range(7)])
    ys = np.stack([random_projector(6, int(rng.integers(1, 6)), rng) for _ in range(7)])
    ok, lhs, rhs = norm_lemma_check(xs, ys)
    assert ok.shape == lhs.shape == rhs.shape == (7,)
    for i in range(7):
        want = norm_lemma_check(xs[i], ys[i])
        assert (ok[i], lhs[i], rhs[i]) == pytest.approx(want, abs=1e-12)
    with pytest.raises(InputError, match="idempotent"):
        norm_lemma_check(xs, np.concatenate([ys[:6], 0.5 * ys[6:]]))


def test_cheat_state_stack_matches_one_pair_at_a_time():
    """A stacked cheat_state gives each pair's (vector, eps) bit for bit as a call on
    that pair alone, also for a pair with P1 P0 = 0 (the eigh fallback) and one with
    P0 = 0 (nothing to normalize); a stack's errors name the bad pair."""
    rng = rng_from_seed(66)
    p0s = [random_projector(6, int(rng.integers(1, 4)), rng) for _ in range(5)]
    p1s = [random_projector(6, int(rng.integers(1, 4)), rng) for _ in range(5)]
    p0s += [np.diag([1.0, 1, 0, 0, 0, 0]), np.zeros((6, 6))]
    p1s += [np.diag([0.0, 0, 1, 0, 0, 0]), np.diag([0.0, 0, 1, 0, 0, 0])]
    got = cheat_state(np.array(p0s), np.array(p1s))
    assert len(got) == 7
    for (vec, eps), p0, p1 in zip(got, p0s, p1s):
        want_vec, want_eps = cheat_state(p0, p1)
        assert eps == want_eps
        assert vec is want_vec is None or np.array_equal(vec, want_vec)
    assert got[5][0] is not None and got[5][1] == 0.0
    assert got[6] == (None, 0.0)
    p0s[2] = 0.5 * p0s[2]
    with pytest.raises(InputError, match="P0 2 is not idempotent"):
        cheat_state(np.array(p0s), np.array(p1s))


def test_norm_lemma_equality_for_commuting_projectors():
    x = np.diag([1.0, 0.0, 0.0]).astype(complex)
    y = np.diag([1.0, 1.0, 0.0]).astype(complex)
    ok, lhs, rhs = norm_lemma_check(x, y)
    assert ok
    assert lhs == pytest.approx(2.0, abs=1e-12)
    assert rhs == pytest.approx(2.0, abs=1e-12)


def test_cheat_state_svd_oracle():
    """The construction should achieve overlap equal to the top singular
    value of P1 P0, witnessed on the top right-singular vector."""
    rng = rng_from_seed(62)
    for _ in range(10):
        dim = int(rng.integers(3, 9))
        p0 = random_projector(dim, int(rng.integers(1, dim - 1)), rng)
        p1 = random_projector(dim, int(rng.integers(1, dim - 1)), rng)
        vec, eps = cheat_state(p0, p1)
        top = float(np.linalg.svd(p1 @ p0, compute_uv=False)[0])
        assert eps == pytest.approx(top, abs=1e-10)
        if vec is None:
            assert top < 1e-12
            continue
        assert np.vdot(vec, p0 @ vec).real == pytest.approx(1.0, abs=1e-10)
        assert np.vdot(vec, p1 @ vec).real >= eps**2 - 1e-10


def test_exact_qubit_value_between_strategies_and_relaxation():
    """The closed-form projective optimum is reached by no random projective
    strategy and exceeds no POVM relaxation."""
    rng = rng_from_seed(64)
    eye = np.eye(2, dtype=complex)
    for _ in range(8):
        dim_b = int(rng.integers(2, 5))
        scheme = ProjectiveCommitmentScheme(*(
            tuple((f"{side}{j}", random_projector(dim_b, int(rng.integers(1, dim_b)), rng))
                  for j in range(int(rng.integers(1, 4))))
            for side in "zo"
        ))
        vec = random_pure_vector(2 * dim_b, rng)
        rho = density_from_matrix(shape(("A", 2), ("B", dim_b)), np.outer(vec, vec.conj()))
        exact = adaptive_binding(scheme, rho, mode="projective-bruteforce")
        relaxed = adaptive_binding(scheme, rho, tol=1e-12)
        assert exact.details["net_slack"] == 0.0
        for bit, value, upper in ((0, exact.p0, relaxed.p0), (1, exact.p1, relaxed.p1)):
            assert value <= upper + 1e-9
            openings = dict(scheme.openings(bit))
            labels = list(openings)
            for _ in range(50):
                p = random_projector(2, 1, rng)
                y, y_other = (labels[int(k)] for k in rng.integers(len(labels), size=2))
                strategy = ((y, p), (y_other, eye - p))
                achieved = sum(np.trace(np.kron(f, openings[label]) @ rho.matrix).real
                               for label, f in strategy)
                assert achieved <= value + 1e-9


def test_score_operators_match_kron_partial_trace_reference():
    """The one-einsum score operators equal Tr_B[(I (x) V_y) rho] built with
    np.kron and partial_trace_matrix, and the stacked qubit optimum equals
    the pairwise eigvalsh loop."""
    rng = rng_from_seed(65)
    for dim_a, dim_b in ((1, 2), (2, 2), (2, 4), (3, 3), (2, 6)):
        scheme = ProjectiveCommitmentScheme(*(
            tuple((f"{side}{j}", random_projector(dim_b, int(rng.integers(1, dim_b + 1)), rng))
                  for j in range(int(rng.integers(1, 4))))
            for side in "zo"
        ))
        vec = random_pure_vector(dim_a * dim_b, rng)
        rho = density_from_matrix(shape(("A", dim_a), ("B", dim_b)), np.outer(vec, vec.conj()))
        for bit in (0, 1):
            ops = score_operators(rho.matrix, [v for _, v in scheme.openings(bit)]).stack
            reference = [partial_trace_matrix(np.kron(np.eye(dim_a), v) @ rho.matrix,
                                              (dim_a, dim_b), (0,))
                         for _, v in scheme.openings(bit)]
            np.testing.assert_allclose(ops, np.stack(reference), rtol=0, atol=1e-12)
            if dim_a <= 2:
                traces = [np.trace(k).real for k in reference]
                pairwise = max([max(traces)] + [
                    traces[j] + np.linalg.eigvalsh(reference[i] - reference[j])[-1]
                    for i in range(len(reference)) for j in range(len(reference)) if i != j])
                assert _qubit_optimum(scheme, rho, bit) == pytest.approx(pairwise, abs=1e-12)


def test_scheme_json_round_trip(tmp_path):
    scheme = basis_reveal_scheme()
    path = str(tmp_path / "scheme.json")
    save_scheme(scheme, path)
    back = load_scheme(path)
    assert [lab for lab, _ in back.openings_zero] == ["a", "b"]
    for (_, e0), (_, e1) in zip(scheme.openings_zero, back.openings_zero):
        np.testing.assert_allclose(e0, e1, atol=1e-12)


def test_storage_reduction_rows_respect_bound():
    rng = rng_from_seed(63)
    scheme = basis_reveal_scheme()
    rows = storage_reduction_check(scheme, q=1, trials=3, seed=7)
    assert len(rows) == 3
    for row in rows:
        assert row["pass"] is True
        assert row["alpha"] <= row["bound"] + 1e-12
