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
    partial_trace_matrix,
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
    ka = check_psd(k, 1e-10, "K")
    ra = check_psd(rho, 1e-10, "rho")
    if ka.shape != ra.shape:
        raise InputError("K and rho must share one dimension")
    vals, vecs = np.linalg.eigh(hermitize(ra))
    top = float(vals[-1]) if vals.size else 0.0
    mask = vals > max(top, 1.0) * 1e-14
    if not np.any(mask):
        return 0.0 if max_eig(ka) <= rank_tol else math.inf
    v = vecs[:, mask]
    # Support check: weight of K outside supp(rho).
    comp = np.eye(ka.shape[0]) - v @ v.conj().T
    outside = max_eig(hermitize(comp @ ka @ comp))
    if outside > rank_tol:
        return math.inf
    inv_sqrt = (v / np.sqrt(vals[mask])) @ v.conj().T
    return max(0.0, max_eig(hermitize(inv_sqrt @ ka @ inv_sqrt)))


def measurement_blocks(povm: Povm, rho_ab: DensityOperator) -> list[np.ndarray]:
    """K_x = Tr_A[(F_x (x) I_B) rho_AB] for each POVM outcome."""
    if len(rho_ab.shape.labels) != 2:
        raise InputError("expected a bipartite state (A, B)")
    dim_a, dim_b = rho_ab.shape.dims
    if povm.dim != dim_a:
        raise InputError(f"POVM dim {povm.dim} != A dim {dim_a}")
    out = []
    for f in povm.elements:
        m = tensor(f, np.eye(dim_b)) @ rho_ab.matrix
        out.append(hermitize(partial_trace_matrix(m, (dim_a, dim_b), (1,))))
    return out


def imax_for_measurement(
    povm: Povm, rho_ab: DensityOperator
) -> tuple[float, tuple[float, ...]]:
    """(value, sigma) for a fixed measurement on A; exact for that measurement."""
    dim_a, dim_b = rho_ab.shape.dims
    rho_b = hermitize(partial_trace_matrix(rho_ab.matrix, (dim_a, dim_b), (1,)))
    blocks = measurement_blocks(povm, rho_ab)
    cs = []
    for k in blocks:
        c = dmax_relative(k, rho_b)
        if math.isinf(c):
            raise InputError(
                "measurement block has weight outside supp(rho_B); value unbounded"
            )
        cs.append(c)
    total = sum(cs)
    if total <= 0.0:
        return 0.0, tuple(1.0 / len(cs) for _ in cs)
    sigma = tuple(c / total for c in cs)
    return float(np.log2(total)), sigma


def domination_defect(
    povm: Povm,
    rho_ab: DensityOperator,
    lam: float,
    sigma: tuple[float, ...],
) -> float:
    """Largest eigenvalue violation of M(rho) <= 2^lam sigma (x) rho_B.

    <= 0 means the inequality holds blockwise for this sigma.
    """
    dim_a, dim_b = rho_ab.shape.dims
    rho_b = hermitize(partial_trace_matrix(rho_ab.matrix, (dim_a, dim_b), (1,)))
    blocks = measurement_blocks(povm, rho_ab)
    if len(sigma) != len(blocks):
        raise InputError("sigma length must match outcome count")
    worst = -math.inf
    for k, s in zip(blocks, sigma):
        worst = max(worst, max_eig(k - (2.0**lam) * s * rho_b))
    return worst


def _fourier_basis(dim: int) -> np.ndarray:
    idx = np.arange(dim)
    return np.exp(2j * np.pi * np.outer(idx, idx) / dim) / np.sqrt(dim)


def _basis_povm(u: np.ndarray) -> Povm:
    cols = [u[:, i] for i in range(u.shape[1])]
    return Povm(tuple(np.outer(c, c.conj()) for c in cols))


def standard_measurements(dim: int) -> list[MeasurementDescriptor]:
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
    return out


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
    extra: list[MeasurementDescriptor] | None = None,
) -> ImaxEstimate:
    """Certified lower bound (best witness in the searched family) and the
    rank upper bound lg rank(rho_A)."""
    rng = rng_from_seed(seed)
    budget = DEFAULT_SEARCH_BUDGET if budget is None else budget
    dim_a = rho_ab.shape.dims[0]
    a_label = rho_ab.shape.labels[0]
    upper = zero_entropy(rho_ab, a_label)
    family = search_measurements(dim_a, budget, rng)
    if extra:
        family = family + list(extra)
    best_value = -math.inf
    best = None
    best_sigma: tuple[float, ...] = ()
    for desc in family:
        value, sigma = imax_for_measurement(desc.povm, rho_ab)
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
