import math

import numpy as np
import pytest

from gamebound.coding import coset_members, named_code, syndrome
from gamebound.errors import CapExceededError, InputError
from gamebound.onecc import (
    GAMMA_TARGET,
    OneCcInstance,
    adaptive_wrong_opening,
    basis_guessing_analysis,
    encoded_vector,
    extract_commit_bit,
    multi_position_guessing,
    sample_smallsup_state,
    simulate_commit,
    single_position_guessing,
    wrong_opening_bound_check,
)

GAMMA = math.cos(math.pi / 8.0) ** 2


def test_encoded_vector_unit_norm():
    v = encoded_vector((0, 1, 1), (1, 0, 1))
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def test_encoded_vector_overlap_per_basis_mismatch():
    """|<x,theta|x,theta'>| = (1/sqrt2)^(basis mismatches) at equal payloads."""
    x = (0, 1, 0)
    for theta, theta_p, mism in (
        ((0, 0, 0), (0, 0, 0), 0),
        ((0, 0, 0), (1, 0, 0), 1),
        ((0, 0, 0), (1, 0, 1), 2),
        ((1, 1, 1), (0, 0, 0), 3),
    ):
        ov = abs(np.vdot(encoded_vector(x, theta), encoded_vector(x, theta_p)))
        assert ov == pytest.approx((2**-0.5) ** mism, abs=1e-12)


def test_encoded_vector_cap():
    with pytest.raises(InputError):
        encoded_vector((0,) * 13, (0,) * 13)


def test_single_position_guessing_constant():
    cert = single_position_guessing()
    assert cert.primal_value == pytest.approx(GAMMA, abs=1e-9)
    assert cert.primal_value == pytest.approx(GAMMA_TARGET, abs=1e-9)
    assert cert.gap <= 1e-9


def test_multi_position_guessing_is_power_of_gamma():
    for big_n in (1, 2, 3):
        cert = multi_position_guessing(big_n)
        assert cert.primal_value == pytest.approx(GAMMA**big_n, abs=1e-7)
        assert cert.gap <= 1e-6


def test_basis_guessing_analysis_accounting():
    report = basis_guessing_analysis(400, 0.05, 0.9)
    assert report["gamma"] == pytest.approx(GAMMA, abs=1e-9)
    hmin = 400 * (math.log2(1.0 / GAMMA) - 2 * 0.05)
    assert report["hmin_lower"] == pytest.approx(hmin, rel=1e-9)
    want = 2.0 ** (-0.5 * 400 * (math.log2(1.0 / GAMMA) - 2 * 0.05 - (1 - 0.9)))
    assert report["hiding_bound"] == pytest.approx(want, rel=1e-9)
    assert not report["vacuous"]
    # a short rate-starved run has nothing left and is flagged vacuous
    assert basis_guessing_analysis(400, 0.05, 0.2)["vacuous"]


def test_sample_smallsup_state_support_and_determinism():
    theta = np.array([1, 0, 1, 1, 0, 0, 1], dtype=np.uint8)
    a = sample_smallsup_state(theta, 1.0 / 7.0, 2, seed=11)
    b = sample_smallsup_state(theta, 1.0 / 7.0, 2, seed=11)
    np.testing.assert_allclose(a.vector.amplitudes, b.vector.amplitudes, atol=0)
    assert np.linalg.norm(a.vector.amplitudes) == pytest.approx(1.0, abs=1e-12)
    assert len(a.ball) == 8  # radius-1 ball on 7 positions
    # payload support sits within the ball around the honest all-zero string
    assert all(sum(member) <= 1 for member in a.ball)


def test_wrong_opening_equality_on_distance_two_coset():
    """Support on one basis string, target coset at Hamming distance two:
    acceptance hits 2^(-d/2) exactly."""
    code = named_code("rep41")
    st = sample_smallsup_state(np.zeros(4, dtype=np.uint8), 0.0, 1, seed=4)
    chk = wrong_opening_bound_check(st, code, np.array([1, 1, 0], dtype=np.uint8))
    assert chk["pass"]
    assert chk["bound"] == pytest.approx(0.25, abs=1e-12)
    assert chk["worst_value"] == pytest.approx(0.25, abs=1e-9)
    near = np.array(chk["nearest_rep"], dtype=np.uint8)
    np.testing.assert_array_equal(syndrome(code, near),
                                  np.array([1, 1, 0], dtype=np.uint8))


def test_wrong_opening_bound_on_sampled_states():
    code = named_code("hamming74")
    rng = np.random.default_rng(12)
    for k in range(10):
        theta = rng.integers(0, 2, size=7).astype(np.uint8)
        s = rng.integers(0, 2, size=3).astype(np.uint8)
        st = sample_smallsup_state(theta, 1.0 / 7.0, 2, seed=(12, k))
        chk = wrong_opening_bound_check(st, code, s)
        assert chk["pass"]
        assert chk["worst_value"] <= chk["bound"] + 1e-9


def test_adaptive_wrong_opening_chain():
    code = named_code("hamming74")
    st = sample_smallsup_state(np.ones(7, dtype=np.uint8), 1.0 / 7.0, 2, seed=13)
    out = adaptive_wrong_opening(code=code, state=st, hash_member=19,
                                 s=np.array([0, 1, 0], dtype=np.uint8), w=1)
    assert out["extracted"] in (0, 1)
    assert out["wrong_open_success"] <= out["chain_bound"] + 1e-6
    assert out["pass"]


def test_extractor_recovers_honest_commit():
    code = named_code("rep31")
    inst = OneCcInstance(3, 0.3, code)
    for bit in (0, 1):
        sim = simulate_commit(inst, bit, runs=40, seed=(14, bit))
        view = sim["last_view"]
        assert view is not None
        theta = np.array(view["theta"], dtype=np.uint8)
        got = extract_commit_bit(code, view["hash_member"],
                                 np.array(view["syndrome"], dtype=np.uint8),
                                 view["masked_bit"], theta)
        assert got == bit


def test_simulate_commit_honest_never_fails_checks():
    inst = OneCcInstance(30, 0.15, named_code("rep31"))
    sim = simulate_commit(inst, 0, runs=300, seed=15)
    assert sim["aborts_check"] == 0
    assert len(sim["check_set_sizes"]) == 300
    assert sim["size_abort_bound"] == pytest.approx(
        2.0 * math.exp(-2.0 * 0.15**2 * 30), rel=1e-12)


def test_simulate_commit_flip_state_always_caught_when_checked():
    inst = OneCcInstance(20, 0.4, named_code("rep31"))
    sim = simulate_commit(inst, 0, runs=200, seed=16, script="flip_state",
                          flagged_positions=(3,))
    assert sim["flagged_checks"] > 0
    assert sim["flagged_catches"] == sim["flagged_checks"]


def test_simulate_commit_flip_basis_caught_half_the_time():
    inst = OneCcInstance(20, 0.4, named_code("rep31"))
    sim = simulate_commit(inst, 0, runs=2000, seed=17, script="flip_basis",
                          flagged_positions=(3,))
    checks = sim["flagged_checks"]
    rate = sim["flagged_catches"] / checks
    sigma = math.sqrt(0.25 / checks)
    assert abs(rate - 0.5) <= 4 * sigma


def test_simulate_commit_rejects_unknown_script():
    inst = OneCcInstance(10, 0.2, named_code("rep31"))
    with pytest.raises(InputError):
        simulate_commit(inst, 0, runs=1, script="cheat-hard")
    with pytest.raises(InputError):
        simulate_commit(inst, 2, runs=1)
