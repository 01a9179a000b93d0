"""Max-accessible-information bounds for measurements on one side of a state.

For a fixed measurement M = {F_x} on register A of a bipartite state rho_AB,
the reported value is the smallest lambda admitting a probability vector sigma
with M(rho_AB) <= 2^lambda * sigma_X (x) rho_B, where M(rho_AB) is the cq
state sum_x |x><x| (x) Tr_A[(F_x (x) I) rho_AB]. Blockwise this is exact:
with c_x the smallest constant with K_x <= c_x rho_B, the optimum is
lambda = lg sum_x c_x at sigma(x) = c_x / sum c.

The measurement-independent quantity (supremum over all measurements) is never
computed exactly; only certified lower bounds from explicit witness
measurements and the rank upper bound lg rank(rho_A) are reported.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_SEARCH_BUDGET, RANK_TOL
from .errors import InputError
from .linalg import (
    apply_kraus,
    as_complex_matrix,
    check_hermitian,
    check_psd,
    hermitize,
    max_eig,
    tensor,
)
from .discrimination import Povm
from .rand import haar_unitaries, random_povm_elements, rng_from_seed
from .states import DensityOperator, density_from_matrix, zero_entropy


@dataclass(frozen=True)
class ImaxEstimate:
    """Certified lower bound from the searched measurements, plus the rank
    upper bound."""

    lower: float
    upper: float
    searched: int

    def __post_init__(self) -> None:
        if self.lower > self.upper + 1e-8:
            raise InputError(
                f"certified lower bound {self.lower} exceeds upper bound {self.upper}"
            )


def dmax_relative(k: np.ndarray, rho: np.ndarray, rank_tol: float = RANK_TOL) -> float:
    """Smallest c >= 0 with K <= c * rho; inf when K has weight outside supp(rho)."""
    ka = check_psd(as_complex_matrix(k, "K"), 1e-10, "K")
    ra = check_hermitian(rho, 1e-10, "rho")
    if ka.shape != ra.shape:
        raise InputError("K and rho must share one dimension")
    return float(_dmax_blocks(ka[None], hermitize(ra)[None], np.zeros(1, int), rank_tol)[0])


def _dmax_blocks(ks: np.ndarray, rhos: np.ndarray, owner: np.ndarray,
                 rank_tol: float) -> np.ndarray:
    """dmax_relative of each block ks[i] of a PSD (n, d, d) stack against rhos[owner[i]], for an
    (m, d, d) stack of Hermitian rhos checked PSD here: one stacked eigh gives each rho's inverse
    square root on its support, which whitens its blocks, then stacked eigvalsh calls."""
    vals, vecs = np.linalg.eigh(rhos)
    if vals.size and vals[:, 0].min() < -1e-10:
        raise InputError(f"rho not PSD: min eigenvalue {vals[:, 0].min():.3e} < -1.0e-10")
    mask = vals > vals.max(axis=-1, keepdims=True, initial=1.0) * 1e-14
    # Eigenvectors off the support are divided by inf, so they drop out.
    w = vecs / np.sqrt(np.where(mask, vals, np.inf))[:, None, :]
    inv_sqrt = w @ vecs.conj().swapaxes(-1, -2)
    c = np.maximum(0.0, max_eig(inv_sqrt[owner] @ ks @ inv_sqrt[owner]))
    deficient = ~mask.all(axis=-1)[owner]  # a full-rank rho supports every K
    if deficient.any():
        # Support check: weight of each K outside supp(rho).
        v = vecs * mask[:, None, :]
        comp = (np.eye(rhos.shape[-1]) - v @ v.conj().swapaxes(-1, -2))[owner[deficient]]
        outside = max_eig(comp @ ks[deficient] @ comp) > rank_tol
        c[np.flatnonzero(deficient)[outside]] = math.inf
    return c


def reduced_b(rho_ab: DensityOperator) -> np.ndarray:
    """rho_B = Tr_A rho_AB as a Hermitian matrix."""
    dim_a, dim_b = rho_ab.shape.dims
    return hermitize(np.trace(rho_ab.matrix.reshape(dim_a, dim_b, dim_a, dim_b), axis1=0, axis2=2))


def measurement_blocks(povm: Povm, rho_ab: DensityOperator) -> np.ndarray:
    """K_x = Tr_A[(F_x (x) I_B) rho_AB] for each POVM outcome, as one
    (n, d_B, d_B) array."""
    if len(rho_ab.shape.labels) != 2:
        raise InputError("expected a bipartite state (A, B)")
    dim_a, dim_b = rho_ab.shape.dims
    if povm.dim != dim_a:
        raise InputError(f"POVM dim {povm.dim} != A dim {dim_a}")
    # One matrix product: F_x flattened over (i, j) against rho[j, b, i, c] as ((i, j), (b, c)).
    rho = rho_ab.matrix.reshape(dim_a, dim_b, dim_a, dim_b).transpose(2, 0, 1, 3)
    flat = povm.stack.reshape(len(povm), -1) @ rho.reshape(dim_a * dim_a, dim_b * dim_b)
    return hermitize(flat.reshape(-1, dim_b, dim_b))


def shape_groups(states) -> dict[tuple[int, ...], list[int]]:
    """Indices of the states, in order, grouped by their register dimensions."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, rho in enumerate(states):
        groups.setdefault(rho.shape.dims, []).append(i)
    return groups


def imax_for_measurement(
    povm: Povm, rho_ab: DensityOperator
) -> tuple[float, tuple[float, ...], np.ndarray]:
    """(value, sigma, blocks) for a fixed measurement on A; exact for that
    measurement. `blocks` are its measurement_blocks, checked PSD."""
    return imax_for_measurements([povm], rho_ab)[0]


def imax_for_measurements(
    povms, rho_ab: DensityOperator
) -> list[tuple[float, tuple[float, ...], np.ndarray]]:
    """imax_for_measurement of each POVM on one state, scored together."""
    return imax_for_states([(povms, rho_ab)])[0]


def imax_for_states(jobs) -> list[list[tuple[float, tuple[float, ...], np.ndarray]]]:
    """imax_for_measurements of each (povms, rho_ab) job. Jobs are grouped by
    (d_A, d_B); per group, every block is checked PSD in one stacked call, every
    rho_B is decomposed in one stacked eigh, and all blocks are whitened and
    scored together. A block with weight outside its supp(rho_B) fails the call."""
    out: list = [None] * len(jobs)
    for idx in shape_groups([rho for _, rho in jobs]).values():
        parts = [[measurement_blocks(povm, jobs[j][1]) for povm in jobs[j][0]] for j in idx]
        flat = [blocks for job in parts for blocks in job]
        blocks = check_psd(np.concatenate(flat), 1e-10, "K")
        owner = np.repeat(np.arange(len(idx)), [sum(map(len, job)) for job in parts])
        rho_bs = np.stack([reduced_b(jobs[j][1]) for j in idx])
        cs = _dmax_blocks(blocks, rho_bs, owner, RANK_TOL)
        if np.isinf(cs).any():
            raise InputError("measurement block has weight outside supp(rho_B); value unbounded")
        ends = np.cumsum([len(part) for part in flat])[:-1]
        scored = iter(map(_scored, np.split(cs, ends), np.split(blocks, ends)))
        for j, job in zip(idx, parts):
            out[j] = [next(scored) for _ in job]
    return out


def _scored(cs: np.ndarray, blocks: np.ndarray) -> tuple[float, tuple[float, ...], np.ndarray]:
    """(lambda, sigma, blocks) from one measurement's constants c_x."""
    total = float(cs.sum())
    sigma = cs / total if total > 0.0 else np.full(len(cs), 1.0 / len(cs))
    lam = float(np.log2(total)) if total > 0.0 else 0.0
    return lam, tuple(sigma.tolist()), blocks


def domination_defect(blocks: np.ndarray, rho_b: np.ndarray, lam, sigma,
                      sizes=None) -> float | np.ndarray:
    """Largest eigenvalue violation of M(rho) <= 2^lam sigma (x) rho_B, for one
    measurement's blocks K_x and rho_B, in one stacked call. `lam` is one
    exponent (a float is returned) or a sequence of them (an array).

    Given `sizes`, `blocks` holds several measurements, sizes[m] blocks each,
    `rho_b` is one matrix or one per block, each exponent in `lam` is one per
    measurement, and the result has one column per measurement.

    <= 0 means the inequality holds blockwise for this sigma.
    """
    one = sizes is None
    sizes = [len(blocks)] if one else list(sizes)
    if len(sigma) != len(blocks) or sum(sizes) != len(blocks):
        raise InputError("sigma length must match outcome count")
    exps = np.asarray(lam, float)[..., None] if one else np.asarray(lam, float)
    scale = np.repeat(2.0**exps, sizes, axis=-1) * np.asarray(sigma, float)
    per_block = max_eig(blocks - scale[..., None, None] * rho_b)
    defects = np.maximum.reduceat(per_block, np.cumsum([0] + sizes[:-1]), axis=-1)
    defects = defects[..., 0] if one else defects
    return defects if defects.ndim else float(defects)


def _fourier_basis(dim: int) -> np.ndarray:
    idx = np.arange(dim)
    return np.exp(2j * np.pi * np.outer(idx, idx) / dim) / np.sqrt(dim)


def _basis_povm(u: np.ndarray) -> Povm:
    """Rank-1 projectors onto the columns of u, as one broadcast product."""
    cols = u.T
    return Povm(tuple(cols[:, :, None] * cols.conj()[:, None, :]))


def standard_measurements(dim: int) -> list[Povm]:
    """Computational, Fourier and, for qubit registers, per-qubit mixed bases.
    A fresh list of shared, immutable POVMs."""
    return list(_standard_measurements(dim))


@functools.lru_cache(maxsize=8)
def _standard_measurements(dim: int) -> tuple[Povm, ...]:
    out = [_basis_povm(np.eye(dim, dtype=complex))]
    if dim > 1:
        out.append(_basis_povm(_fourier_basis(dim)))
    # Per-qubit mixed computational/Fourier bases when A is a qubit register.
    if dim > 2 and dim & (dim - 1) == 0:
        qubits = dim.bit_length() - 1
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        for pattern in range(1, 2**qubits - 1):
            factors = [
                h if (pattern >> i) & 1 else np.eye(2, dtype=complex)
                for i in range(qubits)
            ]
            u = factors[0]
            for f in factors[1:]:
                u = np.kron(u, f)
            out.append(_basis_povm(u))
    return tuple(out)


def search_measurements(dim: int, budget: int, rng: np.random.Generator) -> list[Povm]:
    """Standard bases, Haar-random projective bases, random rank-1 POVMs."""
    family = standard_measurements(dim)
    remaining = max(0, budget - len(family))
    n_proj = (remaining + 1) // 2
    family += [_basis_povm(u) for u in haar_unitaries(n_proj, dim, rng)]
    for _ in range(remaining - n_proj):
        k = int(rng.integers(dim + 1, dim * dim + 1))
        family.append(Povm(tuple(random_povm_elements(dim, k, rng))))
    return family


def imax_acc_bounds(
    rho_ab: DensityOperator,
    budget: int | None = None,
    seed=0,
) -> ImaxEstimate:
    """Certified lower bound (best value over the searched family) and the
    rank upper bound lg rank(rho_A)."""
    rng = rng_from_seed(seed)
    budget = DEFAULT_SEARCH_BUDGET if budget is None else budget
    dim_a = rho_ab.shape.dims[0]
    a_label = rho_ab.shape.labels[0]
    upper = zero_entropy(rho_ab, a_label)
    family = search_measurements(dim_a, budget, rng)
    lower = max(value for value, _, _ in imax_for_measurements(family, rho_ab))
    return ImaxEstimate(lower=lower, upper=upper, searched=len(family))


def local_channel_monotonicity_check(
    rho_ab: DensityOperator,
    kraus_a: list[np.ndarray],
    kraus_b: list[np.ndarray],
    budget: int | None = None,
    seed=0,
    tol: float = 1e-8,
) -> tuple[bool, float, float]:
    """Check every searched measurement value on (E_A (x) E_B)(rho) stays below
    the rank upper bound of the ORIGINAL A register.

    Returns (ok, best_transformed_value, original_upper).
    """
    dim_a, dim_b = rho_ab.shape.dims
    out_a = np.asarray(kraus_a[0]).shape[0]
    out_b = np.asarray(kraus_b[0]).shape[0]
    joint_kraus = [tensor(ka, kb) for ka in kraus_a for kb in kraus_b]
    mat = apply_kraus(rho_ab.matrix, joint_kraus)
    from .registers import RegisterShape

    out_shape = RegisterShape(
        ((rho_ab.shape.labels[0], out_a), (rho_ab.shape.labels[1], out_b))
    )
    transformed = density_from_matrix(out_shape, mat)
    original_upper = zero_entropy(rho_ab, rho_ab.shape.labels[0])
    est = imax_acc_bounds(transformed, budget=budget, seed=seed)
    return est.lower <= original_upper + tol, est.lower, original_upper
