"""Stacked random constructions against the same constructions made one at a time."""
import numpy as np
import pytest

from gamebound.linalg import hermitize
from gamebound.rand import (
    ginibre_draws,
    ginibre_states,
    haar_projectors,
    haar_unitaries,
    haar_unitary,
    random_density_matrix,
    random_projector,
    rng_from_seed,
)


@pytest.mark.parametrize("dim", [2, 5, 16])
def test_stacked_haar_unitaries_match_one_at_a_time(dim):
    """haar_unitaries finishes its one normal draw bit for bit as haar_unitary
    finishes each of its own draws from the same stream."""
    got = haar_unitaries(6, dim, rng_from_seed(3))
    want_rng = rng_from_seed(3)
    for u in got:
        assert np.array_equal(u, haar_unitary(dim, want_rng))


@pytest.mark.parametrize("dim", [2, 5, 16])
def test_stacked_projectors_match_one_at_a_time(dim):
    """haar_projectors, on draws of mixed ranks, gives each projector bit for bit as
    random_projector draws it from the same stream, and as the projector onto the
    first columns of that draw's haar_unitary."""
    ranks = [1 + k % (dim - 1) for k in range(7)]
    got_rng, want_rng, ref_rng = rng_from_seed(4), rng_from_seed(4), rng_from_seed(4)
    got = haar_projectors(np.concatenate([ginibre_draws(dim, 1, got_rng) for _ in ranks]), ranks)
    for p, rank in zip(got, ranks):
        assert np.array_equal(p, random_projector(dim, rank, want_rng))
        u = haar_unitary(dim, ref_rng)[:, :rank]
        assert np.array_equal(p, hermitize(u @ u.conj().T))


def test_rank_zero_projector_draws_nothing():
    rng = rng_from_seed(5)
    assert np.array_equal(random_projector(3, 0, rng), np.zeros((3, 3)))
    assert rng.normal() == rng_from_seed(5).normal()


def test_stacked_states_match_one_at_a_time():
    """ginibre_states finishes a stack of draws bit for bit as random_density_matrix
    makes each state from the same stream."""
    got_rng, want_rng = rng_from_seed(6), rng_from_seed(6)
    got = ginibre_states(np.concatenate([ginibre_draws(6, 1, got_rng) for _ in range(5)]))
    for rho in got:
        assert np.array_equal(rho, random_density_matrix(6, want_rng))
