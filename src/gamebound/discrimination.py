"""Certified operator-discrimination solver and the cq min-entropy built on it.

The primal problem maximized here: given PSD score operators K_j on one
register, find a POVM {F_j} maximizing sum_j tr(F_j K_j). The dual minimizes
tr(Y) over Hermitian Y with Y >= K_j for all j; weak duality makes every
(POVM, feasible Y) pair a certificate bracketing the optimum.

The solver is a fixed-point iteration on the optimality conditions with an
explicit dual-repair step each sweep:

    Lambda      = sum_j K_j F_j K_j            (Hermitized)
    F_j        <- Lambda^{-1/2} K_j F_j K_j Lambda^{-1/2}
    Y0          = (1/2) sum_j (F_j K_j + K_j F_j)   (Hermitized)
    Y           = Y0 + max(0, max_j lambda_max(K_j - Y0)) * I

Y is dual feasible by construction, so `dual_value - primal_value` is a true
optimality gap at every iteration, not a heuristic residual.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import EQ_TOL, HERM_TOL, SOLVER_MAX_ITER, SOLVER_TOL
from .errors import InputError
from .linalg import (
    check_psd,
    eig_hermitian,
    hermitize,
    max_eig,
    positive_part,
)
from .states import DensityOperator


@dataclass(frozen=True)
class Povm:
    """PSD elements summing to the identity."""

    elements: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if not self.elements:
            raise InputError("POVM needs at least one element")
        dim = self.elements[0].shape[0]
        frozen = []
        for i, e in enumerate(self.elements):
            arr = check_psd(e, HERM_TOL, f"POVM element {i}")
            if arr.shape[0] != dim:
                raise InputError("POVM elements must share one dimension")
            arr = arr.copy()
            arr.setflags(write=False)
            frozen.append(arr)
        total = sum(frozen)
        if np.max(np.abs(total - np.eye(dim))) > EQ_TOL:
            raise InputError("POVM elements do not sum to the identity within 1e-9")
        object.__setattr__(self, "elements", tuple(frozen))

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class DiscriminationInstance:
    """PSD score operators on one register; values are sums tr(F_j K_j)."""

    operators: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if not self.operators:
            raise InputError("instance needs at least one score operator")
        if len(self.operators) > 64:
            raise InputError(f"instance has {len(self.operators)} operators, cap is 64")
        dim = self.operators[0].shape[0]
        frozen = []
        for i, k in enumerate(self.operators):
            arr = check_psd(k, HERM_TOL, f"score operator {i}")
            if arr.shape[0] != dim:
                raise InputError("score operators must share one dimension")
            arr = hermitize(arr)
            arr.setflags(write=False)
            frozen.append(arr)
        object.__setattr__(self, "operators", tuple(frozen))

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]

    def __len__(self) -> int:
        return len(self.operators)


@dataclass(frozen=True)
class SolverCertificate:
    primal_value: float
    dual_value: float
    povm: Povm
    dual_witness: np.ndarray = field(repr=False)
    iterations: int
    converged: bool

    @property
    def gap(self) -> float:
        return self.dual_value - self.primal_value

    def to_dict(self) -> dict:
        return {
            "primal": self.primal_value,
            "dual": self.dual_value,
            "gap": self.gap,
            "iterations": self.iterations,
            "converged": self.converged,
        }


def primal_value(instance: DiscriminationInstance, povm: Povm) -> float:
    if povm.dim != instance.dim:
        raise InputError("POVM dimension does not match score operators")
    if len(povm) != len(instance):
        raise InputError("POVM outcome count does not match score operators")
    return float(
        sum(np.real(np.trace(f @ k)) for f, k in zip(povm.elements, instance.operators))
    )


def dual_feasibility_defect(instance: DiscriminationInstance, y: np.ndarray) -> float:
    """max_j lambda_max(K_j - Y); <= 0 means Y is dual feasible."""
    return max(max_eig(k - y) for k in instance.operators)


def binary_optimal(k0: np.ndarray, k1: np.ndarray) -> tuple[float, Povm]:
    """Closed form for two score operators.

    The optimal F_0 is the projector onto the nonnegative eigenspace of
    K_0 - K_1; the value is tr K_1 + tr positive_part(K_0 - K_1).
    """
    a = check_psd(k0, HERM_TOL, "K0")
    b = check_psd(k1, HERM_TOL, "K1")
    if a.shape != b.shape:
        raise InputError("score operators must share one dimension")
    delta = hermitize(a - b)
    vals, vecs = eig_hermitian(delta)
    pos = vecs[:, vals >= 0.0]
    f0 = hermitize(pos @ pos.conj().T)
    f1 = np.eye(a.shape[0]) - f0
    value = float(np.real(np.trace(b)) + np.sum(vals[vals >= 0.0]))
    return value, Povm((f0, f1))


def _pinv_sqrt(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Lambda^{-1/2} on the support, support projector)."""
    vals, vecs = np.linalg.eigh(hermitize(m))
    top = float(vals[-1]) if vals.size else 0.0
    cut = max(top, 1.0) * 1e-14
    mask = vals > cut
    if not np.any(mask):
        d = m.shape[0]
        return np.zeros((d, d), dtype=complex), np.zeros((d, d), dtype=complex)
    v = vecs[:, mask]
    inv = (v / np.sqrt(vals[mask])) @ v.conj().T
    supp = v @ v.conj().T
    return hermitize(inv), hermitize(supp)


def _repaired_dual(instance: DiscriminationInstance, elements: list[np.ndarray]) -> np.ndarray:
    y0 = np.zeros((instance.dim, instance.dim), dtype=complex)
    for f, k in zip(elements, instance.operators):
        y0 += f @ k + k @ f
    y0 = hermitize(y0 / 2.0)
    shift = max(0.0, dual_feasibility_defect(instance, y0))
    return y0 + shift * np.eye(instance.dim)


def optimal_discrimination(
    instance: DiscriminationInstance,
    tol: float = SOLVER_TOL,
    max_iter: int = SOLVER_MAX_ITER,
    init: str = "auto",
) -> SolverCertificate:
    """Solve the discrimination problem with a two-sided certificate.

    init: "auto" seeds two-operator instances from the closed form and others
    uniformly; "uniform" forces the uniform seed. The returned certificate is
    valid either way because both sides are checked feasible explicitly.
    """
    dim = len(instance.operators[0])
    n = len(instance)
    eye = np.eye(dim)

    if init not in ("auto", "uniform"):
        raise InputError(f"unknown init {init!r}")
    if init == "auto" and n == 2:
        _, seed_povm = binary_optimal(instance.operators[0], instance.operators[1])
        elements = [np.array(e) for e in seed_povm.elements]
    else:
        elements = [eye / n for _ in range(n)]

    def primal_of(els: list[np.ndarray]) -> float:
        return float(
            sum(np.real(np.trace(f @ k)) for f, k in zip(els, instance.operators))
        )

    best_elements = [e.copy() for e in elements]
    best_primal = primal_of(elements)
    best_dual = np.inf
    best_y = None
    iterations = 0
    converged = False

    for iterations in range(1, max_iter + 1):
        y = _repaired_dual(instance, elements)
        dual = float(np.real(np.trace(y)))
        if dual < best_dual:
            best_dual = dual
            best_y = y
        current = primal_of(elements)
        if current > best_primal:
            best_primal = current
            best_elements = [e.copy() for e in elements]
        if best_dual - best_primal <= tol:
            converged = True
            break

        lam = np.zeros((dim, dim), dtype=complex)
        updated = []
        for f, k in zip(elements, instance.operators):
            kfk = k @ f @ k
            lam += kfk
            updated.append(kfk)
        inv_sqrt, supp = _pinv_sqrt(lam)
        leftover = (eye - supp) / n
        new_elements = []
        for kfk in updated:
            cand = hermitize(inv_sqrt @ kfk @ inv_sqrt) + leftover
            # Clip eigenvalue noise so the iterate stays a valid POVM element.
            new_elements.append(positive_part(cand, tol=1.0))
        total = hermitize(sum(new_elements))
        defect = float(np.max(np.abs(total - eye)))
        if defect > 1e-12:
            corr_vals, corr_vecs = np.linalg.eigh(total)
            corr = (corr_vecs / np.sqrt(np.clip(corr_vals, 1e-15, None))) @ corr_vecs.conj().T
            new_elements = [hermitize(corr @ e @ corr) for e in new_elements]
        elements = new_elements

    if best_y is None:
        best_y = _repaired_dual(instance, elements)
        best_dual = float(np.real(np.trace(best_y)))

    povm = Povm(tuple(positive_part(e, tol=1.0) for e in best_elements))
    cert_primal = primal_value(instance, povm)
    return SolverCertificate(
        primal_value=cert_primal,
        dual_value=best_dual,
        povm=povm,
        dual_witness=best_y,
        iterations=iterations,
        converged=converged and best_dual - cert_primal <= tol,
    )


# --- classical-quantum states and min-entropy ------------------------------


@dataclass(frozen=True)
class CqState:
    """Classical symbol x with probability weight and a conditional state on B."""

    symbols: tuple
    weights: tuple[float, ...]
    conditionals: tuple[DensityOperator, ...]

    def __post_init__(self) -> None:
        if not (len(self.symbols) == len(self.weights) == len(self.conditionals)):
            raise InputError("symbols, weights, conditionals must align")
        if len(set(self.symbols)) != len(self.symbols):
            raise InputError("duplicate classical symbols")
        if any(w < -1e-15 for w in self.weights):
            raise InputError("negative probability weight")
        if abs(sum(self.weights) - 1.0) > 1e-10:
            raise InputError(f"weights sum to {sum(self.weights)!r}, not 1")
        dims = {c.dim for c in self.conditionals}
        if len(dims) != 1:
            raise InputError("conditional states must share one dimension")

    @property
    def dim_b(self) -> int:
        return self.conditionals[0].dim

    def score_operators(self) -> DiscriminationInstance:
        return DiscriminationInstance(
            tuple(w * c.matrix for w, c in zip(self.weights, self.conditionals))
        )


def guessing_probability(
    cq: CqState, tol: float = SOLVER_TOL, max_iter: int = SOLVER_MAX_ITER
) -> SolverCertificate:
    """Best probability of guessing x from the B register, with certificate."""
    return optimal_discrimination(cq.score_operators(), tol=tol, max_iter=max_iter)


def hmin_cq(
    cq: CqState, tol: float = SOLVER_TOL, max_iter: int = SOLVER_MAX_ITER
) -> tuple[float, SolverCertificate]:
    """Conditional min-entropy of the classical symbol given B: -lg p_guess.

    Returns (-lg primal, certificate); the certificate's dual gives the
    certified other side (-lg dual <= true value <= -lg primal).
    """
    cert = guessing_probability(cq, tol=tol, max_iter=max_iter)
    return -float(np.log2(cert.primal_value)), cert
