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
    check_psd,
    hermitize,
    max_eig,
    tensor,
)
from .discrimination import Povm, povm_list
from .rand import haar_unitaries, rng_from_seed, wishart_draws, wishart_povms
from .registers import RegisterShape
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


def _dmax_blocks(ks: np.ndarray, rhos: np.ndarray, owner: np.ndarray,
                 rank_tol: float) -> np.ndarray:
    """Smallest c >= 0 with K <= c * rho (inf when K has weight outside supp(rho)) for each block
    K = ks[i] of a PSD (n, d, d) stack against rho = rhos[owner[i]], for an (m, d, d) stack of
    Hermitian rhos checked PSD here: one stacked eigh gives each rho's inverse square root on its
    support, which whitens its blocks, then stacked eigvalsh calls."""
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


def measurement_blocks(povms, rho_ab: DensityOperator) -> np.ndarray:
    """K_x = Tr_A[(F_x (x) I_B) rho_AB] for each outcome x of a POVM, or of each
    POVM of a sequence in turn, as one (n, d_B, d_B) array from one product."""
    if len(rho_ab.shape.labels) != 2:
        raise InputError("expected a bipartite state (A, B)")
    dim_a, dim_b = rho_ab.shape.dims
    povms = [povms] if isinstance(povms, Povm) else povms
    for povm in povms:
        if povm.dim != dim_a:
            raise InputError(f"POVM dim {povm.dim} != A dim {dim_a}")
    elements = povms[0].stack if len(povms) == 1 else np.concatenate([p.stack for p in povms])
    # One matrix product: F_x flattened over (i, j) against rho[j, b, i, c] as ((i, j), (b, c)).
    rho = rho_ab.matrix.reshape(dim_a, dim_b, dim_a, dim_b).transpose(2, 0, 1, 3)
    flat = elements.reshape(len(elements), -1) @ rho.reshape(dim_a * dim_a, dim_b * dim_b)
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
    return imax_for_states([([povm], rho_ab)])[0][0]


def imax_for_states(jobs) -> list[list[tuple[float, tuple[float, ...], np.ndarray]]]:
    """imax_for_measurement of each POVM of each (povms, rho_ab) job. Each job's blocks come
    from one measurement_blocks product. Jobs are grouped by (d_A, d_B); per
    group, every block is checked PSD in one stacked call, every rho_B is
    decomposed in one stacked eigh, and all blocks are whitened and scored
    together. A block with weight outside its supp(rho_B) fails the call."""
    out: list = [None] * len(jobs)
    for idx in shape_groups([rho for _, rho in jobs]).values():
        parts = [measurement_blocks(jobs[j][0], jobs[j][1]) for j in idx]
        blocks = check_psd(np.concatenate(parts), 1e-10, "K")
        owner = np.repeat(np.arange(len(idx)), [len(part) for part in parts])
        rho_bs = np.stack([reduced_b(jobs[j][1]) for j in idx])
        cs = _dmax_blocks(blocks, rho_bs, owner, RANK_TOL)
        if np.isinf(cs).any():
            raise InputError("measurement block has weight outside supp(rho_B); value unbounded")
        ends = np.cumsum([0] + [len(povm) for j in idx for povm in jobs[j][0]]).tolist()
        scored = iter([_scored(cs[a:b], blocks[a:b]) for a, b in zip(ends, ends[1:])])
        for j in idx:
            out[j] = [next(scored) for _ in jobs[j][0]]
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


def _basis_povms(us: np.ndarray) -> list[Povm]:
    """For each unitary of a (m, d, d) stack, the rank-1 projectors onto its
    columns: one broadcast product and one validation for the stack."""
    cols = us.swapaxes(-1, -2)
    return povm_list(cols[..., :, None] * cols.conj()[..., None, :])


def standard_measurements(dim: int) -> list[Povm]:
    """Computational, Fourier and, for qubit registers, per-qubit mixed bases.
    A fresh list of shared, immutable POVMs."""
    return list(_standard_measurements(dim))


@functools.lru_cache(maxsize=8)
def _standard_measurements(dim: int) -> tuple[Povm, ...]:
    bases = [np.eye(dim, dtype=complex)]
    if dim > 1:
        bases.append(_fourier_basis(dim))
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
            bases.append(u)
    return tuple(_basis_povms(np.array(bases)))


def random_povms(draws: list[np.ndarray], names: list[str]) -> list[Povm]:
    """The POVM of each rand.wishart_draws array, in order, named names[i] in
    errors: each (d, k) group is made by one rand.wishart_povms call (one
    stacked eigh) and validated in one pass."""
    out: list = [None] * len(draws)
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, g in enumerate(draws):
        groups.setdefault(g.shape, []).append(i)
    for idx in groups.values():
        elements = wishart_povms(np.stack([draws[i] for i in idx]))
        for i, povm in zip(idx, povm_list(elements, [names[i] for i in idx])):
            out[i] = povm
    return out


def search_families(dim: int, budget: int, rngs) -> list[list[Povm]]:
    """The searched family for each generator of `rngs`, each drawn from its own
    stream: standard bases, Haar-random projective bases and random POVMs. The
    bases of all families are validated in one pass, and their random POVMs
    made in one random_povms call."""
    standard = standard_measurements(dim)
    remaining = max(0, budget - len(standard))
    n_proj = (remaining + 1) // 2
    n_rand = remaining - n_proj
    unitaries, draws = [], []
    for rng in rngs:
        unitaries.append(haar_unitaries(n_proj, dim, rng))
        draws += [wishart_draws(dim, int(rng.integers(dim + 1, dim * dim + 1)), rng)
                  for _ in range(n_rand)]
    bases = _basis_povms(np.concatenate(unitaries))
    made = random_povms(draws, [f"search {f} POVM {len(standard) + n_proj + i}"
                                for f in range(len(rngs)) for i in range(n_rand)])
    return [standard + bases[f * n_proj:(f + 1) * n_proj] + made[f * n_rand:(f + 1) * n_rand]
            for f in range(len(rngs))]


def imax_acc_bounds(
    rho_ab: DensityOperator,
    budget: int | None = None,
    seed=0,
) -> ImaxEstimate:
    """Certified lower bound (best value over the searched family) and the
    rank upper bound lg rank(rho_A)."""
    return _acc_bounds([rho_ab], budget, [seed])[0]


def _acc_bounds(states, budget: int | None, seeds) -> list[ImaxEstimate]:
    """imax_acc_bounds of each state with its seed: the families of each d_A
    searched together (search_families), every state scored in one call."""
    budget = DEFAULT_SEARCH_BUDGET if budget is None else budget
    uppers = [zero_entropy(rho, rho.shape.labels[0]) for rho in states]
    families: list = [None] * len(states)
    by_dim: dict[int, list[int]] = {}
    for i, rho in enumerate(states):
        by_dim.setdefault(rho.shape.dims[0], []).append(i)
    for dim_a, idx in by_dim.items():
        rngs = [rng_from_seed(seeds[i]) for i in idx]
        for i, family in zip(idx, search_families(dim_a, budget, rngs)):
            families[i] = family
    scored = imax_for_states(list(zip(families, states)))
    return [ImaxEstimate(lower=max(value for value, _, _ in found), upper=upper,
                         searched=len(found)) for found, upper in zip(scored, uppers)]


def local_channel_monotonicity_checks(
    cases, budget: int | None = None, tol: float = 1e-8
) -> list[tuple[bool, float, float]]:
    """For each (rho_ab, kraus_a, kraus_b, seed) case, check every searched
    measurement value on (E_A (x) E_B)(rho) stays below the rank upper bound of
    the ORIGINAL A register. Every transformed state is searched and scored
    together. Returns (ok, best_transformed_value, original_upper) per case."""
    transformed, original = [], []
    for rho_ab, kraus_a, kraus_b, _ in cases:
        joint_kraus = [tensor(ka, kb) for ka in kraus_a for kb in kraus_b]
        out_shape = RegisterShape(tuple(
            (label, np.asarray(kraus[0]).shape[0])
            for label, kraus in zip(rho_ab.shape.labels, (kraus_a, kraus_b))))
        transformed.append(density_from_matrix(out_shape, apply_kraus(rho_ab.matrix, joint_kraus)))
        original.append(zero_entropy(rho_ab, rho_ab.shape.labels[0]))
    estimates = _acc_bounds(transformed, budget, [case[3] for case in cases])
    return [(est.lower <= upper + tol, est.lower, upper)
            for est, upper in zip(estimates, original)]
