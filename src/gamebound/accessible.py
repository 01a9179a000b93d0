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
from .rand import haar_unitary, random_povm_elements, rng_from_seed
from .states import DensityOperator, density_from_matrix, zero_entropy


@dataclass(frozen=True)
class MeasurementDescriptor:
    """A labeled POVM acting on the first register of a bipartite state."""

    name: str
    povm: Povm


@dataclass(frozen=True)
class ImaxEstimate:
    """Certified lower bound with its witness, plus the rank upper bound."""

    lower: float
    upper: float
    witness: MeasurementDescriptor
    witness_sigma: tuple[float, ...]
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
    return float(_dmax_blocks(ka[None], hermitize(ra), rank_tol)[0])


def _dmax_blocks(ks: np.ndarray, rho: np.ndarray, rank_tol: float) -> np.ndarray:
    """dmax_relative for each block of a PSD (n, d, d) stack against one Hermitian rho, checked
    PSD here: one eigh of rho whitens every block, then stacked eigvalsh calls."""
    vals, vecs = np.linalg.eigh(rho)
    if vals.size and vals[0] < -1e-10:
        raise InputError(f"rho not PSD: min eigenvalue {vals[0]:.3e} < -1.0e-10")
    mask = vals > vals.max(initial=1.0) * 1e-14
    if not np.any(mask):
        return np.where(max_eig(ks) <= rank_tol, 0.0, math.inf)
    v = vecs[:, mask]
    inv_sqrt = (v / np.sqrt(vals[mask])) @ v.conj().T
    c = np.maximum(0.0, max_eig(inv_sqrt @ ks @ inv_sqrt))
    if mask.all():  # a full-rank rho supports every K
        return c
    # Support check: weight of each K outside supp(rho).
    comp = np.eye(rho.shape[0]) - v @ v.conj().T
    return np.where(max_eig(comp @ ks @ comp) > rank_tol, math.inf, c)


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
    rho = rho_ab.matrix.reshape(dim_a, dim_b, dim_a, dim_b)
    return hermitize(np.einsum("xij,jbic->xbc", povm.stack, rho))


def imax_for_measurement(
    povm: Povm, rho_ab: DensityOperator
) -> tuple[float, tuple[float, ...], np.ndarray]:
    """(value, sigma, blocks) for a fixed measurement on A; exact for that
    measurement. `blocks` are its measurement_blocks, checked PSD."""
    blocks = check_psd(measurement_blocks(povm, rho_ab), 1e-10, "K")
    cs = _dmax_blocks(blocks, reduced_b(rho_ab), RANK_TOL)
    if np.isinf(cs).any():
        raise InputError("measurement block has weight outside supp(rho_B); value unbounded")
    total = float(cs.sum())
    if total <= 0.0:
        return 0.0, tuple(1.0 / len(cs) for _ in cs), blocks
    return float(np.log2(total)), tuple((cs / total).tolist()), blocks


def domination_defect(
    blocks: np.ndarray,
    rho_b: np.ndarray,
    lam: float | tuple[float, ...],
    sigma: tuple[float, ...],
) -> float | np.ndarray:
    """Largest eigenvalue violation of M(rho) <= 2^lam sigma (x) rho_B, for a
    measurement's blocks K_x and rho_B; a float for one lam and an array for
    a sequence of them (one stacked call).

    <= 0 means the inequality holds blockwise for this sigma.
    """
    if len(sigma) != len(blocks):
        raise InputError("sigma length must match outcome count")
    scale = np.array([[2.0 ** float(v)] for v in np.atleast_1d(lam)]) * np.asarray(sigma, float)
    defects = np.max(max_eig(blocks - scale[..., None, None] * rho_b), axis=-1)
    return defects if np.ndim(lam) else float(defects[0])


def _fourier_basis(dim: int) -> np.ndarray:
    idx = np.arange(dim)
    return np.exp(2j * np.pi * np.outer(idx, idx) / dim) / np.sqrt(dim)


def _basis_povm(u: np.ndarray) -> Povm:
    cols = [u[:, i] for i in range(u.shape[1])]
    return Povm(tuple(np.outer(c, c.conj()) for c in cols))


def standard_measurements(dim: int) -> list[MeasurementDescriptor]:
    """Computational, Fourier and, for qubit registers, per-qubit mixed bases.
    A fresh list of shared, immutable descriptors."""
    return list(_standard_measurements(dim))


@functools.lru_cache(maxsize=8)
def _standard_measurements(dim: int) -> tuple[MeasurementDescriptor, ...]:
    out = [MeasurementDescriptor("computational", _basis_povm(np.eye(dim, dtype=complex)))]
    if dim > 1:
        out.append(MeasurementDescriptor("fourier", _basis_povm(_fourier_basis(dim))))
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
            out.append(MeasurementDescriptor(f"local-mix-{pattern}", _basis_povm(u)))
    return tuple(out)


def search_measurements(
    dim: int, budget: int, rng: np.random.Generator
) -> list[MeasurementDescriptor]:
    """Standard bases, Haar-random projective bases, random rank-1 POVMs."""
    family = standard_measurements(dim)
    remaining = max(0, budget - len(family))
    n_proj = (remaining + 1) // 2
    for i in range(n_proj):
        family.append(
            MeasurementDescriptor(f"haar-{i}", _basis_povm(haar_unitary(dim, rng)))
        )
    for i in range(remaining - n_proj):
        k = int(rng.integers(dim + 1, dim * dim + 1))
        family.append(
            MeasurementDescriptor(
                f"rank1-povm-{i}", Povm(tuple(random_povm_elements(dim, k, rng)))
            )
        )
    return family


def imax_acc_bounds(
    rho_ab: DensityOperator,
    budget: int | None = None,
    seed=0,
) -> ImaxEstimate:
    """Certified lower bound (best witness in the searched family) and the
    rank upper bound lg rank(rho_A)."""
    rng = rng_from_seed(seed)
    budget = DEFAULT_SEARCH_BUDGET if budget is None else budget
    dim_a = rho_ab.shape.dims[0]
    a_label = rho_ab.shape.labels[0]
    upper = zero_entropy(rho_ab, a_label)
    family = search_measurements(dim_a, budget, rng)
    best_value = -math.inf
    best = None
    best_sigma: tuple[float, ...] = ()
    for desc in family:
        value, sigma, _ = imax_for_measurement(desc.povm, rho_ab)
        if value > best_value:
            best_value, best, best_sigma = value, desc, sigma
    assert best is not None
    return ImaxEstimate(
        lower=best_value,
        upper=upper,
        witness=best,
        witness_sigma=best_sigma,
        searched=len(family),
    )


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
