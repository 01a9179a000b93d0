"""Seeded random constructions shared by the search routines and the test suite."""
from __future__ import annotations

import numpy as np

from .linalg import hermitize


def rng_from_seed(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix with phase fix."""
    return haar_unitaries(1, dim, rng)[0]


def haar_unitaries(count: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """`count` haar_unitary draws as one (count, dim, dim) array, from the same
    stream: one normal draw (real then imaginary part of each) and one stacked QR."""
    g = rng.normal(size=(count, 2, dim, dim))
    q, r = np.linalg.qr(g[:, 0] + 1j * g[:, 1])
    phases = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (phases / np.abs(phases)).conj()[..., None, :]


def random_pure_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density_matrix(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Full-rank by default; pass rank for a rank-deficient state."""
    r = dim if rank is None else rank
    g = rng.normal(size=(dim, r)) + 1j * rng.normal(size=(dim, r))
    m = g @ g.conj().T
    return hermitize(m / np.real(np.trace(m)))


def random_projector(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    if rank == 0:
        return np.zeros((dim, dim), dtype=complex)
    u = haar_unitary(dim, rng)[:, :rank]
    return hermitize(u @ u.conj().T)


def random_effect(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random operator with spectrum in [0, 1] (one half of a binary POVM)."""
    u = haar_unitary(dim, rng)
    spectrum = rng.uniform(0.0, 1.0, size=dim)
    return hermitize((u * spectrum) @ u.conj().T)


def wishart_draws(dim: int, outcomes: int, rng: np.random.Generator) -> np.ndarray:
    """The draws behind a random POVM: `outcomes` Ginibre matrices G as one normal
    draw of shape (outcomes, 2, dim, dim), the real then imaginary part of each."""
    return rng.normal(size=(outcomes, 2, dim, dim))


def wishart_povms(draws: np.ndarray) -> np.ndarray:
    """POVM elements from (..., k, 2, d, d) groups of wishart_draws: the Wishart
    pieces G G^dagger of each group times the inverse square root of their sum
    on both sides, with one stacked eigh for every group."""
    g = draws[..., 0, :, :] + 1j * draws[..., 1, :, :]
    pieces = g @ g.conj().swapaxes(-1, -2)
    vals, vecs = np.linalg.eigh(hermitize(pieces.sum(axis=-3)))
    inv_sqrt = (vecs / np.sqrt(vals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    inv_sqrt = inv_sqrt[..., None, :, :]  # one per group, applied to each of its pieces
    return hermitize(inv_sqrt @ pieces @ inv_sqrt)
