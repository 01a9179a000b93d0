"""Ball-verified commitment: verifier projectors, opening-pair norms against
the distance bound, sampling equivalence, and exact hiding enumeration."""
import itertools

import numpy as np
import pytest

from gamebound.acceptance import binomial_test
from gamebound.bcjl import (
    BcjlInstance,
    ball_verifier,
    hiding_distance_exact,
    na_binding,
    overlap_bound_check,
    sampling_equivalence_mc,
)
from gamebound.coding import LinearCode, ball_size, named_code
from gamebound.errors import InputError
from gamebound.hashing import XorHashFamily
from gamebound.linalg import spectral_norm
from gamebound.rand import rng_from_seed


def test_ball_verifier_is_projector_with_ball_rank():
    x = np.array([1, 0, 1], dtype=np.uint8)
    theta = np.array([0, 1, 1], dtype=np.uint8)
    v = ball_verifier(x, theta, 1.0 / 3.0)
    np.testing.assert_allclose(v @ v, v, atol=1e-12)
    np.testing.assert_allclose(v, v.conj().T, atol=1e-12)
    rank = int(round(np.trace(v).real))
    assert rank == ball_size(3, 1)  # 1 + 3 strings within radius one


def test_orthogonal_verifiers_same_basis():
    # identical bases, distance-3 strings, radius 0: nothing overlaps
    x = np.zeros(3, dtype=np.uint8)
    xp = np.ones(3, dtype=np.uint8)
    theta = np.zeros(3, dtype=np.uint8)
    check = overlap_bound_check(x, theta, xp, theta, 0.0)
    assert check["lhs"] == pytest.approx(0.0, abs=1e-12)
    assert check["pass"]


def test_overlap_equality_fully_conjugate_bases():
    x = np.zeros(3, dtype=np.uint8)
    xp = np.ones(3, dtype=np.uint8)
    theta = np.zeros(3, dtype=np.uint8)
    thetap = np.ones(3, dtype=np.uint8)
    check = overlap_bound_check(x, theta, xp, thetap, 0.0)
    # rank-one verifiers: the norm is the one overlap |<000|_0 |111>_1|, and
    # the norm bound is an equality
    assert check["lhs"] == pytest.approx(2.0 ** (-1.5), abs=1e-12)
    assert check["lhs"] == pytest.approx(check["rhs"], abs=1e-12)


@pytest.mark.parametrize(
    "n,radius", [(n, r) for n in (1, 2, 3, 5, 7) for r in (0, 1, 2) if 2 * r <= n]
)
def test_gram_form_matches_dense_verifiers(n, radius):
    """||V V'|| from the ball Gram matrix, and ||V + V'|| = 1 + ||V V'||,
    against the dense 2^n verifiers."""
    rng = rng_from_seed((n, radius))
    delta = radius / n
    for _ in range(4):
        x, theta, xp, thetap = (rng.integers(0, 2, size=n).astype(np.uint8) for _ in range(4))
        v = ball_verifier(x, theta, delta)
        vp = ball_verifier(xp, thetap, delta)
        lhs = overlap_bound_check(x, theta, xp, thetap, delta)["lhs"]
        assert lhs == pytest.approx(spectral_norm(v @ vp), abs=1e-12)
        assert 1.0 + lhs == pytest.approx(spectral_norm(v + vp), abs=1e-12)


def _dense_max_sum(inst: BcjlInstance) -> float:
    """max ||V + V'|| over every raw opening pair, from dense verifiers."""
    thetas = [np.array(t, dtype=np.uint8)
              for t in itertools.product((0, 1), repeat=inst.n)]
    return max(
        spectral_norm(ball_verifier(x0, t0, inst.delta) + ball_verifier(x1, t1, inst.delta))
        for x0 in inst.openings_for(0) for t0 in thetas
        for x1 in inst.openings_for(1) for t1 in thetas
    )


@pytest.mark.parametrize(
    "code,delta,member,syn",
    [("rep31", 0.0, 1, (0, 0)), ("rep31", 1.0 / 3.0, 1, (0, 1)), ("rep41", 0.25, 1, (0, 1, 1))],
)
def test_na_binding_classes_match_raw_dense_enumeration(code, delta, member, syn):
    inst = BcjlInstance(named_code(code), delta, member, syn, 0)
    res = na_binding(inst)
    assert res["exhaustive"]
    n = inst.n
    assert res["pairs_evaluated"] == len(inst.openings_for(0)) * len(inst.openings_for(1)) * 4**n
    assert res["max_sum"] == pytest.approx(_dense_max_sum(inst), abs=1e-12)


def test_instance_validation():
    rep31 = named_code("rep31")
    with pytest.raises(InputError):
        BcjlInstance(rep31, 0.7, 1, (0, 0), 0)
    with pytest.raises(InputError):
        BcjlInstance(rep31, 0.0, 1, (0,), 0)  # syndrome length 1 != 2
    with pytest.raises(InputError):
        BcjlInstance(rep31, 0.0, 1, (0, 0), 2)
    with pytest.raises(InputError):
        BcjlInstance(rep31, 0.0, 8, (0, 0), 0)  # member range is [0, 2^3)


def test_openings_partition_the_coset():
    code = named_code("hamming74")
    inst = BcjlInstance(code, 1.0 / 7.0, 5, (0, 1, 0), 1)
    zeros = inst.openings_for(0)
    ones = inst.openings_for(1)
    assert len(zeros) + len(ones) == 2**code.k
    family = XorHashFamily(7)
    from gamebound.coding import bits_to_int, syndrome

    for bit, side in ((0, zeros), (1, ones)):
        for x in side:
            np.testing.assert_array_equal(syndrome(code, x), [0, 1, 0])
            assert family.evaluate(5, bits_to_int(x)) ^ 1 == bit


def test_na_binding_rep31_exhaustive_equality():
    # one opening per bit, all 64 basis pairs enumerated; the worst pair
    # meets the bound 1 + 2^{-d/2} with delta = 0 exactly
    inst = BcjlInstance(named_code("rep31"), 0.0, 1, (0, 0), 0)
    res = na_binding(inst)
    assert res["exhaustive"]
    assert res["pairs_evaluated"] == 64
    assert res["overlap_bound_ok"]
    assert res["bound"] == pytest.approx(1.0 + 2.0 ** (-1.5), abs=1e-12)
    assert res["max_sum"] == pytest.approx(res["bound"], abs=1e-9)
    assert res["pass"]


def test_na_binding_budgeted_sampling():
    code = named_code("hamming74")
    inst = BcjlInstance(code, 1.0 / 7.0, 5, (0, 1, 0), 1)
    res = na_binding(inst, budget=40, seed=(7, 1))
    assert not res["exhaustive"]
    assert res["pairs_evaluated"] == 40
    assert res["max_sum"] <= res["bound"] + 1e-9
    assert res["overlap_bound_ok"]
    assert res["pass"]
    # without a budget every pair is covered, through its class
    full = na_binding(inst)
    assert full["exhaustive"]
    assert full["pairs_evaluated"] == 8 * 8 * 4**7
    assert full["overlap_bound_ok"]
    assert res["max_sum"] <= full["max_sum"] + 1e-12


def test_na_binding_one_empty_side_is_vacuous():
    # the zero hash member is constant, so every opening lands on bit 0
    inst = BcjlInstance(named_code("rep31"), 0.0, 0, (0, 0), 0)
    res = na_binding(inst)
    assert res["pairs_evaluated"] == 0
    assert res["pass"]
    assert "note" in res


def test_sampling_equivalence_matches_exact_rate():
    res = sampling_equivalence_mc(n=16, delta=0.25, mismatches=5, runs=20000, seed=3)
    assert res["exact"] == pytest.approx(2.0**-5, abs=0)
    assert res["frequency"] == res["hits"] / 20000
    assert binomial_test(res["hits"], 20000, res["exact"], True)["pass"]
    assert res["claim_bound"] == pytest.approx(2.0 ** (-4.0), abs=0)
    assert binomial_test(res["hits"], 20000, res["claim_bound"], False)["pass"]


def test_sampling_equivalence_rejects_bad_mismatch_count():
    with pytest.raises(InputError):
        sampling_equivalence_mc(n=4, delta=0.25, mismatches=5, runs=10)


def _hiding_distance_oracle(n: int, code: LinearCode) -> float:
    """Flat accumulation over complete views (measured, member, syndrome,
    masked bit), committed bit marginalized last."""
    family = XorHashFamily(n)
    h = code.parity_check
    strings = list(itertools.product((0, 1), repeat=n))
    dist_by_view: dict[tuple, list[float]] = {}
    for x in strings:
        xa = np.array(x, dtype=np.uint8)
        syn = tuple(int(b) for b in (h @ xa) % 2) if h.size else ()
        x_int = int("".join(str(b) for b in x), 2)
        for r in range(2**n):
            hv = family.evaluate(r, x_int)
            for m in strings:
                agreements = sum(1 for a, b in zip(x, m) if a == b)
                p = (0.75**agreements) * (0.25 ** (n - agreements))
                weight = p / (2**n) / (2**n)
                for b in (0, 1):
                    key = (m, r, syn, hv ^ b)
                    cell = dist_by_view.setdefault(key, [0.0, 0.0])
                    cell[b] += weight
    return 0.5 * sum(abs(c[0] - c[1]) for c in dist_by_view.values())


@pytest.mark.parametrize(
    "n,rows",
    [
        (2, np.eye(2, dtype=np.uint8)),
        (2, np.array([[1, 1]], dtype=np.uint8)),
        (3, np.array([[1, 1, 1]], dtype=np.uint8)),
    ],
)
def test_hiding_distance_matches_flat_oracle(n, rows):
    code = LinearCode(rows)
    res = hiding_distance_exact(n, code)
    assert res["distance"] == pytest.approx(_hiding_distance_oracle(n, code), abs=1e-12)
    assert res["pass"]


def test_hiding_distance_known_values():
    res = hiding_distance_exact(2, LinearCode(np.eye(2, dtype=np.uint8)))
    assert res["distance"] == pytest.approx(0.5625, abs=1e-12)
    # desk-scale accounting gives nothing: the bound exceeds one
    assert res["accounting_bound"] == pytest.approx(1.2071067811865472, abs=1e-12)
    assert res["vacuous"]


def test_hiding_distance_caps_and_length_check():
    with pytest.raises(InputError):
        hiding_distance_exact(7, named_code("hamming74"))
    with pytest.raises(InputError):
        hiding_distance_exact(3, LinearCode(np.eye(2, dtype=np.uint8)))
