"""Seeded random constructions shared by the search routines and the test suite.

Each stacked construction comes in two halves: a draw, which reads the stream,
and a finish, which turns a stack of draws into matrices with one stacked call.
A caller that makes many keeps every draw in its place in the stream and
finishes each shape group at once; the results are bit-identical to making
each matrix alone.
"""
from __future__ import annotations

import numpy as np

from .linalg import hermitize


def rng_from_seed(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def ginibre_draws(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """`count` Ginibre matrices G as one normal draw of shape (count, 2, dim, dim),
    the real then imaginary part of each: the draws behind Haar unitaries,
    random POVMs and random states."""
    return rng.normal(size=(count, 2, dim, dim))


def _ginibre(draws: np.ndarray) -> np.ndarray:
    return draws[..., 0, :, :] + 1j * draws[..., 1, :, :]


def haar_from_draws(draws: np.ndarray) -> np.ndarray:
    """Haar-distributed unitaries from (..., 2, d, d) ginibre_draws: one stacked
    QR with phase fix (Mezzadri, Notices AMS 54(5), 2007)."""
    q, r = np.linalg.qr(_ginibre(draws))
    phases = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (phases / np.abs(phases)).conj()[..., None, :]


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """One Haar-distributed unitary."""
    return haar_unitaries(1, dim, rng)[0]


def haar_unitaries(count: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """`count` haar_unitary draws as one (count, dim, dim) array, from the same stream."""
    return haar_from_draws(ginibre_draws(dim, count, rng))


def haar_projectors(draws: np.ndarray, ranks) -> np.ndarray:
    """The random_projector of each (2, d, d) draw of an (n, 2, d, d) stack, of rank
    ranks[i] >= 1: one stacked QR, then one stacked product u[:, :r] u[:, :r]^dagger
    for each distinct rank r."""
    u = haar_from_draws(draws)
    ranks = np.asarray(ranks)
    out = np.empty_like(u)
    for rank in set(ranks.tolist()):  # not np.unique, whose first call imports numpy.ma
        pick = ranks == rank
        cols = u[pick, :, :rank]
        out[pick] = hermitize(cols @ cols.conj().swapaxes(-1, -2))
    return out


def random_projector(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    if rank == 0:
        return np.zeros((dim, dim), dtype=complex)
    return haar_projectors(ginibre_draws(dim, 1, rng), [rank])[0]


def random_pure_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def ginibre_states(draws: np.ndarray) -> np.ndarray:
    """Full-rank states G G^dagger / tr(G G^dagger) from (..., 2, d, d) ginibre_draws,
    in one stacked product."""
    g = _ginibre(draws)
    m = g @ g.conj().swapaxes(-1, -2)
    return hermitize(m / np.real(np.trace(m, axis1=-2, axis2=-1))[..., None, None])


def random_density_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    return ginibre_states(ginibre_draws(dim, 1, rng))[0]


def random_effect(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random operator with spectrum in [0, 1] (one half of a binary POVM)."""
    u = haar_unitary(dim, rng)
    spectrum = rng.uniform(0.0, 1.0, size=dim)
    return hermitize((u * spectrum) @ u.conj().T)


def wishart_povms(draws: np.ndarray) -> np.ndarray:
    """POVM elements from (..., k, 2, d, d) groups of ginibre_draws: the Wishart
    pieces G G^dagger of each group times the inverse square root of their sum
    on both sides, with one stacked eigh for every group."""
    g = _ginibre(draws)
    pieces = g @ g.conj().swapaxes(-1, -2)
    vals, vecs = np.linalg.eigh(hermitize(pieces.sum(axis=-3)))
    inv_sqrt = (vecs / np.sqrt(vals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    inv_sqrt = inv_sqrt[..., None, :, :]  # one per group, applied to each of its pieces
    return hermitize(inv_sqrt @ pieces @ inv_sqrt)
