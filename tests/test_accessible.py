import math

import numpy as np
import pytest

from gamebound import accessible
from gamebound.acceptance import criterion_04_measurement_domination
from gamebound.accessible import (
    Povm,
    domination_defect,
    imax_acc_bounds,
    imax_for_measurement,
    imax_for_states,
    local_channel_monotonicity_checks,
    random_povms,
    search_families,
    standard_measurements,
)
from gamebound.config import RANK_TOL
from gamebound.errors import InputError
from gamebound.linalg import hermitize, partial_trace_matrix
from gamebound.rand import (
    haar_unitary,
    random_density_matrix,
    random_pure_vector,
    rng_from_seed,
    wishart_draws,
    wishart_povms,
)
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


def random_povm(dim, outcomes, rng):
    return Povm(tuple(wishart_povms(wishart_draws(dim, outcomes, rng))))


def dmax(k, rho):
    """Smallest c >= 0 with K <= c * rho, from the stacked core on a stack of one."""
    return float(accessible._dmax_blocks(np.asarray(k, complex)[None], hermitize(rho)[None],
                                         np.zeros(1, int), RANK_TOL)[0])


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
    value, _, _ = imax_for_measurement(standard_measurements(2)[0], rho)
    assert value == pytest.approx(1.0, abs=1e-10)


def test_dmax_matches_bisection():
    rng = rng_from_seed(42)
    for _ in range(10):
        dim = int(rng.integers(2, 5))
        rho = random_density_matrix(dim, rng)
        sigma = 0.85 * random_density_matrix(dim, rng) + 0.15 * np.eye(dim) / dim
        got = dmax(rho, sigma)  # multiplicative constant, not exponent
        want = dmax_by_bisection(rho, sigma)
        assert got == pytest.approx(2.0**want, rel=1e-6)


def test_imax_value_is_max_over_outcome_dmax():
    rng = rng_from_seed(43)
    rho = density_from_matrix(shape(("A", 2), ("B", 3)),
                              random_density_matrix(6, rng))
    povm = random_povm(2, 3, rng)
    value, sigma, blocks = imax_for_measurement(povm, rho)
    rho_b = accessible.reduced_b(rho)
    assert domination_defect(blocks, rho_b, value, sigma) <= 1e-9
    assert domination_defect(blocks, rho_b, value - 1e-4, sigma) > 0.0


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
    fine = random_povm(3, 4, rng)
    elems = fine.elements
    coarse = Povm((elems[0] + elems[1], elems[2], elems[3]))
    v_fine = imax_for_measurement(fine, rho)[0]
    v_coarse = imax_for_measurement(coarse, rho)[0]
    assert v_coarse <= v_fine + 1e-9


def test_local_channels_respect_original_bound():
    rng = rng_from_seed(46)
    rho = copy_state(2)
    p = np.diag([1.0, 0.0]).astype(complex)
    ok, transformed, original = local_channel_monotonicity_checks(
        [(rho, [np.eye(2, dtype=complex)], [p, np.eye(2) - p], 3)], budget=16
    )[0]
    assert ok
    assert transformed <= original + 1e-8


def test_estimate_bounds_ordered():
    rng = rng_from_seed(48)
    rho = density_from_matrix(shape(("A", 2), ("B", 2)),
                              random_density_matrix(4, rng))
    est = imax_acc_bounds(rho, budget=12, seed=4)
    assert est.lower <= est.upper + 1e-9
    assert est.searched >= 1


# --- per-block reference for the stacked lambda(M) ---------------------------


def _blocks_ref(povm, rho):
    dim_a, dim_b = rho.shape.dims
    return [
        hermitize(partial_trace_matrix(np.kron(f, np.eye(dim_b)) @ rho.matrix,
                                       (dim_a, dim_b), (1,)))
        for f in povm.elements
    ]


def _rho_b_ref(rho):
    return hermitize(partial_trace_matrix(rho.matrix, rho.shape.dims, (1,)))


def _dmax_ref(k, rho_b, rank_tol=1e-8):
    """One eigh of rho_B per block, as the unstacked computation made."""
    vals, vecs = np.linalg.eigh(rho_b)
    mask = vals > max(float(vals[-1]), 1.0) * 1e-14
    if not mask.any():
        return 0.0 if np.linalg.eigvalsh(k)[-1] <= rank_tol else math.inf
    v = vecs[:, mask]
    comp = np.eye(k.shape[0]) - v @ v.conj().T
    if np.linalg.eigvalsh(hermitize(comp @ k @ comp))[-1] > rank_tol:
        return math.inf
    inv_sqrt = (v / np.sqrt(vals[mask])) @ v.conj().T
    return max(0.0, float(np.linalg.eigvalsh(hermitize(inv_sqrt @ k @ inv_sqrt))[-1]))


def _lambda_ref(povm, rho):
    rho_b = _rho_b_ref(rho)
    cs = [_dmax_ref(k, rho_b) for k in _blocks_ref(povm, rho)]
    total = sum(cs)
    if total <= 0.0:
        return 0.0, tuple(1.0 / len(cs) for _ in cs)
    return math.log2(total), tuple(c / total for c in cs)


def _defect_ref(povm, rho, lam, sigma):
    rho_b = _rho_b_ref(rho)
    return max(float(np.linalg.eigvalsh(k - (2.0**lam) * s * rho_b)[-1])
               for k, s in zip(_blocks_ref(povm, rho), sigma))


def _assert_matches_reference(povm, rho):
    lam, sigma, blocks = imax_for_measurement(povm, rho)
    want_lam, want_sigma = _lambda_ref(povm, rho)
    assert lam == pytest.approx(want_lam, abs=1e-12)
    np.testing.assert_allclose(sigma, want_sigma, rtol=0, atol=1e-12)
    # the returned blocks are the measurement's blocks, built once
    assert np.array_equal(blocks, accessible.measurement_blocks(povm, rho))
    rho_b = accessible.reduced_b(rho)
    np.testing.assert_allclose(rho_b, _rho_b_ref(rho), rtol=0, atol=1e-14)
    for shift in (0.0, 1e-4):
        assert domination_defect(blocks, rho_b, lam - shift, sigma) == pytest.approx(
            _defect_ref(povm, rho, want_lam - shift, want_sigma), abs=1e-12)
    # both lambdas in one stacked call, bit for bit the two single calls
    stacked = domination_defect(blocks, rho_b, (lam, lam - 1e-4), sigma)
    assert stacked.tolist() == [domination_defect(blocks, rho_b, lam, sigma),
                                domination_defect(blocks, rho_b, lam - 1e-4, sigma)]
    np.testing.assert_allclose(accessible.measurement_blocks(povm, rho),
                               _blocks_ref(povm, rho), rtol=0, atol=1e-14)


@pytest.mark.parametrize("dim_a", [2, 4])
@pytest.mark.parametrize("dim_b", [2, 3, 4])
def test_stacked_lambda_matches_per_block_reference(dim_a, dim_b):
    rng = rng_from_seed((60, dim_a, dim_b))
    full = density_from_matrix(shape(("A", dim_a), ("B", dim_b)),
                               random_density_matrix(dim_a * dim_b, rng))
    psi = random_pure_vector(dim_a * dim_b, rng)
    pure = density_from_matrix(full.shape, np.outer(psi, psi.conj()))
    povms = standard_measurements(dim_a)
    povms.append(random_povm(dim_a, 5, rng))
    for rho in (full, pure):  # rho_B is rank-deficient for a pure state with dim_a < dim_b
        for povm in povms:
            _assert_matches_reference(povm, rho)


def test_stacked_lambda_zero_support_block():
    """An outcome that never fires gives a zero block, c_x = 0 and sigma_x = 0."""
    rng = rng_from_seed(61)
    rho = density_from_matrix(
        shape(("A", 2), ("B", 3)),
        np.kron(np.diag([1.0, 0.0]), random_density_matrix(3, rng)))
    povm = standard_measurements(2)[0]
    assert not accessible.measurement_blocks(povm, rho)[1].any()
    _assert_matches_reference(povm, rho)
    lam, sigma, _ = imax_for_measurement(povm, rho)
    assert lam == pytest.approx(0.0, abs=1e-12)
    assert sigma[1] == 0.0
    zero = np.zeros((3, 3), dtype=complex)
    assert dmax(zero, zero) == _dmax_ref(zero, zero) == 0.0
    assert dmax(np.eye(3) / 3, zero) == _dmax_ref(np.eye(3) / 3, zero) == math.inf


def test_weight_outside_rank_deficient_support(monkeypatch):
    """A block with weight outside supp(rho_B) has no finite c_x: the dmax core
    says inf and imax_for_measurement refuses the measurement."""
    rho_b = np.diag([0.5, 0.5, 0.0]).astype(complex)
    outside = np.diag([0.2, 0.0, 0.1]).astype(complex)
    assert dmax(outside, rho_b) == _dmax_ref(outside, rho_b) == math.inf
    inside = np.diag([0.2, 0.1, 0.0]).astype(complex)
    assert dmax(inside, rho_b) == pytest.approx(_dmax_ref(inside, rho_b), abs=1e-12)
    rho = density_from_matrix(shape(("A", 2), ("B", 3)),
                              np.kron(np.eye(2) / 2, rho_b * 2) / 2)
    povm = standard_measurements(2)[0]
    monkeypatch.setattr(accessible, "measurement_blocks",
                        lambda *_: np.stack([inside, outside]))
    with pytest.raises(InputError, match="outside supp"):
        imax_for_measurement(povm, rho)


@pytest.mark.parametrize("dim_a, dim_b", [(2, 3), (4, 2), (4, 4)])
def test_measurements_in_one_call_match_one_at_a_time(dim_a, dim_b):
    """POVMs with different outcome counts scored in one stacked call give
    each POVM's single-call value, sigma and blocks, for full-rank and
    rank-deficient rho_B (a pure state with dim_a < dim_b)."""
    rng = rng_from_seed((62, dim_a, dim_b))
    full = density_from_matrix(shape(("A", dim_a), ("B", dim_b)),
                               random_density_matrix(dim_a * dim_b, rng))
    psi = random_pure_vector(dim_a * dim_b, rng)
    pure = density_from_matrix(full.shape, np.outer(psi, psi.conj()))
    povms = standard_measurements(dim_a) + [
        random_povm(dim_a, k, rng) for k in (2, 3, 7)]
    for rho in (full, pure):
        batch = imax_for_states([(povms, rho)])[0]
        assert len(batch) == len(povms)
        for povm, (lam, sigma, blocks) in zip(povms, batch):
            want_lam, want_sigma, want_blocks = imax_for_measurement(povm, rho)
            assert len(sigma) == len(povm.elements) == len(blocks)
            assert lam == pytest.approx(want_lam, abs=1e-12)
            np.testing.assert_allclose(sigma, want_sigma, rtol=0, atol=1e-12)
            np.testing.assert_allclose(blocks, want_blocks, rtol=0, atol=1e-12)


def test_one_unbounded_block_fails_the_whole_call(monkeypatch):
    """A block outside a rank-deficient supp(rho_B) is an input error when it
    is scored with other measurements, as when it is scored alone."""
    rho_b = np.diag([0.5, 0.5, 0.0]).astype(complex)
    inside = np.diag([0.2, 0.1, 0.0]).astype(complex)
    outside = np.diag([0.2, 0.0, 0.1]).astype(complex)
    rho = density_from_matrix(shape(("A", 2), ("B", 3)),
                              np.kron(np.eye(2) / 2, rho_b * 2) / 2)
    bounded, unbounded = standard_measurements(2)
    stacks = {id(bounded): np.stack([inside, inside]), id(unbounded): np.stack([inside, outside])}
    calls = []

    def job_blocks(povms, _):  # the one product that gives a job's blocks
        calls.append(len(povms))
        return np.concatenate([stacks[id(povm)] for povm in povms])

    monkeypatch.setattr(accessible, "measurement_blocks", job_blocks)
    assert len(imax_for_states([([bounded, bounded], rho)])[0]) == 2
    assert calls == [2]
    for povms in ([bounded, unbounded], [unbounded, bounded], [unbounded]):
        with pytest.raises(InputError, match="outside supp"):
            imax_for_states([(povms, rho)])


def test_criterion_04_makes_few_eigendecompositions(monkeypatch):
    """Blocks are checked and whitened with stacked calls across states: at
    most a third of the 1,672 eigh/eigvalsh calls that one decomposition per
    block made at 10 states, and at most 1,200 at 100 states (1,015 measured
    with the cross-state core, against 1,791 with one call per state)."""
    calls = []
    for kind in ("eigh", "eigvalsh"):
        def counted(*args, _orig=getattr(np.linalg, kind), **kwargs):
            calls.append(1)
            return _orig(*args, **kwargs)
        monkeypatch.setattr(np.linalg, kind, counted)
    assert criterion_04_measurement_domination(seed=0, n_states=10).passed
    assert len(calls) <= 1672 // 3
    calls.clear()
    assert criterion_04_measurement_domination(seed=0, n_states=100).passed
    assert len(calls) <= 1200


# --- the cross-state core ------------------------------------------------------


def _jobs(rng):
    """Jobs of three shapes in interleaved order, each with full-rank and
    rank-deficient rho_B (a pure state with dim_a < dim_b)."""
    jobs = []
    for dim_a, dim_b in [(2, 3), (4, 2), (2, 3), (2, 4), (4, 2), (2, 4)]:
        psi = random_pure_vector(dim_a * dim_b, rng)
        for mat in (random_density_matrix(dim_a * dim_b, rng), np.outer(psi, psi.conj())):
            povms = standard_measurements(dim_a) + [
                random_povm(dim_a, k, rng) for k in (2, 5)]
            jobs.append((povms, density_from_matrix(shape(("A", dim_a), ("B", dim_b)), mat)))
    return jobs


def test_states_in_one_call_match_one_job_calls():
    """Jobs of mixed shapes scored in one call give each job's value, sigma
    and blocks as a one-job call does, and the batched domination_defect
    gives each measurement's single-call defects."""
    jobs = _jobs(rng_from_seed(63))
    assert any(np.linalg.matrix_rank(accessible.reduced_b(rho)) < rho.shape.dims[1]
               for _, rho in jobs)
    batch = imax_for_states(jobs)
    assert len(batch) == len(jobs)
    for (povms, rho), scored in zip(jobs, batch):
        alone = imax_for_states([(povms, rho)])[0]
        assert len(scored) == len(alone) == len(povms)
        for (lam, sigma, blocks), (want_lam, want_sigma, want_blocks) in zip(scored, alone):
            assert lam == pytest.approx(want_lam, abs=1e-12)
            np.testing.assert_allclose(sigma, want_sigma, rtol=0, atol=1e-12)
            np.testing.assert_allclose(blocks, want_blocks, rtol=0, atol=1e-12)
        rho_b = accessible.reduced_b(rho)
        lams = np.array([lam for lam, _, _ in scored])
        sizes = [len(blocks) for _, _, blocks in scored]
        got = domination_defect(np.concatenate([b for _, _, b in scored]),
                                np.repeat(rho_b[None], sum(sizes), axis=0),
                                [lams, lams - 1e-4],
                                np.concatenate([s for _, s, _ in scored]), sizes)
        assert got.shape == (2, len(scored))
        for m, (lam, sigma, blocks) in enumerate(scored):
            assert got[:, m].tolist() == domination_defect(
                blocks, rho_b, (lam, lam - 1e-4), sigma).tolist()


def test_unbounded_job_fails_the_batched_call(monkeypatch):
    """A job with a block outside its supp(rho_B) is an input error when it is
    batched with bounded jobs, of its shape and of others."""
    rho_b = np.diag([0.5, 0.5, 0.0]).astype(complex)
    inside = np.diag([0.2, 0.1, 0.0]).astype(complex)
    outside = np.diag([0.2, 0.0, 0.1]).astype(complex)
    rho = density_from_matrix(shape(("A", 2), ("B", 3)),
                              np.kron(np.eye(2) / 2, rho_b * 2) / 2)
    bounded, unbounded = standard_measurements(2)
    other = _jobs(rng_from_seed(64))[2:6]
    stacks = {id(bounded): np.stack([inside, inside]), id(unbounded): np.stack([inside, outside])}
    blocks = accessible.measurement_blocks

    def job_blocks(povms, state):  # the one product that gives a job's blocks
        if state is not rho:
            return blocks(povms, state)
        return np.concatenate([stacks[id(povm)] for povm in povms])

    monkeypatch.setattr(accessible, "measurement_blocks", job_blocks)
    assert len(imax_for_states(other + [([bounded], rho)] * 2)) == len(other) + 2
    for jobs in (other + [([bounded], rho), ([unbounded], rho)],
                 [([unbounded, bounded], rho)] + other):
        with pytest.raises(InputError, match="outside supp"):
            imax_for_states(jobs)


# --- the stacked draws against per-piece references -------------------------


def _haar_ref(dim, rng):
    """haar_unitary as one draw per matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases.conj()


def _povm_ref(dim, outcomes, rng):
    """wishart_povms(wishart_draws(...)) as one draw per Wishart piece."""
    pieces = []
    for _ in range(outcomes):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        pieces.append(g @ g.conj().T)
    vals, vecs = np.linalg.eigh(hermitize(sum(pieces)))
    inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.conj().T
    return [hermitize(inv_sqrt @ p @ inv_sqrt) for p in pieces]


def _search_ref(dim, budget, rng):
    family = standard_measurements(dim)
    remaining = max(0, budget - len(family))
    n_proj = (remaining + 1) // 2
    for _ in range(n_proj):
        u = _haar_ref(dim, rng)
        family.append(Povm(tuple(np.outer(c, c.conj()) for c in u.T)))
    for _ in range(remaining - n_proj):
        k = int(rng.integers(dim + 1, dim * dim + 1))
        family.append(Povm(tuple(_povm_ref(dim, k, rng))))
    return family


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_stacked_draws_match_per_piece_reference(dim):
    """Stacked draws give bit-identical matrices to one draw per piece and
    leave the generator in the same state."""
    for seed in range(5):
        got_rng, want_rng = rng_from_seed((65, dim, seed)), rng_from_seed((65, dim, seed))
        got = search_families(dim, 24, [got_rng])[0]
        want = _search_ref(dim, 24, want_rng)
        assert len(got) == len(want) == 24
        for a, b in zip(got, want):
            assert np.array_equal(a.stack, b.stack)
        assert got_rng.random() == want_rng.random()
        for k in (1, 2, dim * dim):
            assert np.array_equal(wishart_povms(wishart_draws(dim, k, got_rng)),
                                  _povm_ref(dim, k, want_rng))
            assert np.array_equal(haar_unitary(dim, got_rng), _haar_ref(dim, want_rng))
        assert got_rng.random() == want_rng.random()


def test_grouped_random_povms_match_one_at_a_time():
    """Draws of mixed shapes made into POVMs in stacked (d, k) groups give, in
    order, the elements that one wishart_povms call per POVM gives."""
    shapes = [(2, 3), (4, 2), (2, 3), (4, 5), (2, 2), (4, 2), (2, 3)]
    got_rng, want_rng = rng_from_seed(71), rng_from_seed(71)
    draws = [wishart_draws(d, k, got_rng) for d, k in shapes]
    made = random_povms(draws, [f"POVM {i}" for i in range(len(draws))])
    for (d, k), povm in zip(shapes, made):
        assert np.array_equal(povm.stack, wishart_povms(wishart_draws(d, k, want_rng)))
    assert got_rng.random() == want_rng.random()


def test_searched_families_match_one_search_each():
    """Families searched together give each generator's own family."""
    seeds = [(72, i) for i in range(4)]
    for dim in (2, 4):
        together = search_families(dim, 24, [rng_from_seed(s) for s in seeds])
        for seed, family in zip(seeds, together):
            alone = search_families(dim, 24, [rng_from_seed(seed)])[0]
            assert len(family) == len(alone) == 24
            assert all(np.array_equal(a.stack, b.stack) for a, b in zip(family, alone))


def test_channel_checks_together_match_one_check_each():
    """Channel checks on states of several shapes, made in one call, give each
    check's own verdict and values."""
    rng = rng_from_seed(73)
    cases = []
    for k, (dim_a, dim_b) in enumerate([(2, 3), (4, 2), (2, 3), (4, 4)]):
        rho = density_from_matrix(shape(("A", dim_a), ("B", dim_b)),
                                  random_density_matrix(dim_a * dim_b, rng))
        p = np.diag([1.0] * (dim_b // 2) + [0.0] * (dim_b - dim_b // 2)).astype(complex)
        cases.append((rho, [haar_unitary(dim_a, rng)], [p, np.eye(dim_b) - p], (73, k)))
    together = local_channel_monotonicity_checks(cases, budget=12)
    assert together == [local_channel_monotonicity_checks([case], budget=12)[0]
                        for case in cases]


def test_blocks_of_a_job_are_its_measurements_blocks_in_turn():
    rng = rng_from_seed(74)
    rho = density_from_matrix(shape(("A", 4), ("B", 3)), random_density_matrix(12, rng))
    povms = standard_measurements(4) + [random_povm(4, 6, rng)]
    job = accessible.measurement_blocks(povms, rho)
    np.testing.assert_allclose(
        job, np.concatenate([accessible.measurement_blocks(p, rho) for p in povms]),
        rtol=0, atol=1e-15)
    with pytest.raises(InputError, match="POVM dim 2 != A dim 4"):
        accessible.measurement_blocks(povms + standard_measurements(2), rho)
