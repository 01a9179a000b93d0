"""Binding analysis for commitment schemes with projective verification.

A scheme fixes, for each bit b, a finite set of opening labels y and an
orthogonal projector V_y on the receiver's register B; the receiver accepts
opening y iff V_y fires. The committer may keep a register A entangled with B
and choose the announced label by measuring A.

Two routes to the adaptive opening probability P_b:

  povm-relaxation     : optimal POVM discrimination over the score operators
                        K_y = Tr_B[(I (x) V_y) rho] - an upper bound, since
                        projective strategies are a subset.
  projective-bruteforce: the exact optimum over projective measurements on
                        a qubit A (dim A <= 2), in closed form: one largest
                        eigenvalue per ordered pair of opening labels.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .config import SOLVER_TOL
from .discrimination import optimal_discrimination, score_operators
from .errors import InputError
from .linalg import (
    check_psd,
    hermitize,
    load_json,
    matrix_from_json,
    matrix_to_json,
    spectral_norm,
)
from .rand import random_pure_vector, rng_from_seed
from .registers import RegisterShape
from .states import DensityOperator, density_from_matrix


def _check_projector(m: np.ndarray, name: str, tol: float = 1e-9) -> np.ndarray:
    arr = check_psd(m, 1e-10, name)
    if np.max(np.abs(arr @ arr - arr)) > tol:
        raise InputError(f"{name} is not idempotent within {tol}")
    return hermitize(arr)


@dataclass(frozen=True)
class ProjectiveCommitmentScheme:
    """Opening labels and verification projectors for each committed bit."""

    openings_zero: tuple[tuple[str, np.ndarray], ...]
    openings_one: tuple[tuple[str, np.ndarray], ...]

    def __post_init__(self) -> None:
        for side, name in ((self.openings_zero, "b=0"), (self.openings_one, "b=1")):
            if not side:
                raise InputError(f"no openings declared for {name}")
        dims = set()
        frozen = {}
        for attr, side in (
            ("openings_zero", self.openings_zero),
            ("openings_one", self.openings_one),
        ):
            labels = [label for label, _ in side]
            if len(set(labels)) != len(labels):
                raise InputError(f"duplicate opening labels in {attr}")
            out = []
            for label, proj in side:
                p = _check_projector(proj, f"V[{label}]")
                dims.add(p.shape[0])
                p = p.copy()
                p.setflags(write=False)
                out.append((label, p))
            frozen[attr] = tuple(out)
        if len(dims) != 1:
            raise InputError("verification projectors must share one dimension")
        object.__setattr__(self, "openings_zero", frozen["openings_zero"])
        object.__setattr__(self, "openings_one", frozen["openings_one"])

    @property
    def dim_b(self) -> int:
        return self.openings_zero[0][1].shape[0]

    def openings(self, bit: int) -> tuple[tuple[str, np.ndarray], ...]:
        if bit == 0:
            return self.openings_zero
        if bit == 1:
            return self.openings_one
        raise InputError(f"bit must be 0 or 1, got {bit}")


@dataclass(frozen=True)
class BindingReport:
    p0: float
    p1: float
    epsilon: float
    mode: str
    details: dict = field(default_factory=dict)


def na_binding(scheme: ProjectiveCommitmentScheme, rho_b: DensityOperator) -> BindingReport:
    """Best fixed openings for a committer with no side register."""
    if rho_b.dim != scheme.dim_b:
        raise InputError("state dimension does not match the scheme")
    best = {}
    for bit in (0, 1):
        best[bit] = max(
            float(np.real(np.trace(v @ rho_b.matrix))) for _, v in scheme.openings(bit)
        )
    eps = max(0.0, best[0] + best[1] - 1.0)
    return BindingReport(best[0], best[1], eps, mode="non-adaptive")


def scheme_epsilon_na(scheme: ProjectiveCommitmentScheme) -> float:
    """Worst-case non-adaptive epsilon over all states: the best opening pair
    satisfies max_rho (p0 + p1) = ||V_{y0} + V_{y1}||."""
    best = 0.0
    for _, v0 in scheme.openings_zero:
        for _, v1 in scheme.openings_one:
            best = max(best, spectral_norm(v0 + v1))
    return max(0.0, best - 1.0)


def adaptive_binding(
    scheme: ProjectiveCommitmentScheme,
    rho_ab: DensityOperator,
    mode: str = "povm-relaxation",
    tol: float = SOLVER_TOL,
) -> BindingReport:
    """Adaptive opening probabilities for a committer holding register A."""
    if rho_ab.shape.dims[1:] != (scheme.dim_b,):
        raise InputError("attack state must be on registers (A, B), B of the scheme's dimension")
    if mode == "povm-relaxation":
        values = {}
        certs = {}
        for bit in (0, 1):
            ops = score_operators(rho_ab, [v for _, v in scheme.openings(bit)])
            cert = optimal_discrimination(ops, tol=tol)
            values[bit] = cert.primal_value
            certs[bit] = cert.to_dict()
        eps = max(0.0, values[0] + values[1] - 1.0)
        return BindingReport(
            values[0], values[1], eps, mode=mode,
            details={"certificates": certs},
        )
    if mode == "projective-bruteforce":
        dim_a = rho_ab.shape.dims[0]
        if dim_a > 2:
            raise InputError(
                f"projective-bruteforce supports dim A <= 2, got {dim_a} "
                "(the closed form covers a qubit)"
            )
        values = {bit: _qubit_optimum(scheme, rho_ab, bit) for bit in (0, 1)}
        eps = max(0.0, values[0] + values[1] - 1.0)
        # The value is exact, so the search-resolution slack that callers add
        # to their margins is zero.
        return BindingReport(
            values[0], values[1], eps, mode=mode, details={"net_slack": 0.0},
        )
    raise InputError(f"unknown mode {mode!r}")


def _qubit_optimum(
    scheme: ProjectiveCommitmentScheme, rho_ab: DensityOperator, bit: int
) -> float:
    """Exact max over projective strategies on a qubit A of sum_y tr(F_y K_y).

    A projective measurement on a qubit is {I} or {P, I - P} with P of rank
    one. Announcing label y always scores tr K_y; announcing y on P and y'
    on I - P scores tr K_y' + tr P (K_y - K_y'), whose maximum over P is
    tr K_y' + lambda_max(K_y - K_y').
    """
    ops = score_operators(rho_ab, [v for _, v in scheme.openings(bit)]).stack
    traces = np.real(np.trace(ops, axis1=1, axis2=2))
    i, j = np.nonzero(~np.eye(len(ops), dtype=bool))
    tops = np.linalg.eigvalsh(ops[i] - ops[j])[:, -1]
    return float(max(traces.max(), (traces[j] + tops).max(initial=-math.inf)))


def norm_lemma_check(x: np.ndarray, y: np.ndarray, tol: float = 1e-9) -> tuple[bool, float, float]:
    """||X + Y|| <= 1 + ||XY|| for projectors X, Y."""
    xp = _check_projector(x, "X")
    yp = _check_projector(y, "Y")
    lhs = spectral_norm(xp + yp)
    rhs = 1.0 + spectral_norm(xp @ yp)
    return lhs <= rhs + tol, lhs, rhs


def cheat_state(
    p0: np.ndarray, p1: np.ndarray
) -> tuple[np.ndarray | None, float]:
    """State accepted by P0 with certainty and by P1 with probability >= eps^2,
    where eps = ||P1 P0||. Returns (vector, eps); (None, 0) when P1 P0 = 0
    and P0 = 0 leaves nothing to normalize."""
    a = _check_projector(p0, "P0")
    b = _check_projector(p1, "P1")
    if a.shape != b.shape:
        raise InputError("projectors must share one dimension")
    m = b @ a
    u, s, vh = np.linalg.svd(m)
    eps = float(s[0]) if s.size else 0.0
    if eps <= 1e-15:
        vals, vecs = np.linalg.eigh(a)
        if float(vals[-1]) < 0.5:
            return None, 0.0
        return vecs[:, -1], 0.0
    phi = vh[0].conj()
    projected = a @ phi
    norm = float(np.linalg.norm(projected))
    if norm <= 1e-15:
        return None, 0.0  # unreachable: ||P1 P0 phi|| = eps > 0 forces P0 phi != 0
    return projected / norm, eps


def storage_reduction_check(
    scheme: ProjectiveCommitmentScheme,
    q: int,
    trials: int,
    seed=0,
    mode: str = "projective-bruteforce",
    slack: float = 1e-9,
) -> list[dict]:
    """Sampled check of: q-qubit committer register implies
    p0 + p1 - 1 <= 2^{q/2} sqrt(eps_na).

    Assertable in projective-bruteforce mode, which is exact; the
    povm-relaxation mode is recorded as diagnostic because the relaxation may
    legitimately exceed the projective bound.
    """
    if q < 0:
        raise InputError("q must be >= 0")
    if trials < 1:
        raise InputError("a storage-reduction check needs at least one trial")
    rng = rng_from_seed(seed)
    eps_na = scheme_epsilon_na(scheme)
    bound = (2.0 ** (q / 2.0)) * math.sqrt(eps_na)
    dim_a = 2**q
    dim_b = scheme.dim_b
    results = []
    for t in range(trials):
        vec = random_pure_vector(dim_a * dim_b, rng)
        shape = RegisterShape((("A", dim_a), ("B", dim_b)))
        rho = density_from_matrix(shape, np.outer(vec, vec.conj()))
        report = adaptive_binding(scheme, rho, mode=mode)
        alpha = report.p0 + report.p1 - 1.0
        results.append(
            {
                "trial": t,
                "alpha": alpha,
                "bound": bound,
                "mode": mode,
                "pass": bool(alpha <= bound + slack) if mode == "projective-bruteforce" else None,
            }
        )
    return results


# --- scheme file format -----------------------------------------------------
#
# {"openings": {"0": [{"label": ..., "re": [[...]], "im": [[...]]}], "1": [...]}}


def scheme_to_dict(scheme: ProjectiveCommitmentScheme) -> dict:
    def side(openings):
        return [{"label": label, **matrix_to_json(v)} for label, v in openings]

    return {"openings": {"0": side(scheme.openings_zero), "1": side(scheme.openings_one)}}


def scheme_from_dict(data: dict) -> ProjectiveCommitmentScheme:
    try:
        sides = [
            tuple((str(item["label"]), matrix_from_json(item, "scheme file"))
                  for item in data["openings"][bit])
            for bit in ("0", "1")
        ]
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed scheme file: {exc}") from exc
    return ProjectiveCommitmentScheme(*sides)


def save_scheme(scheme: ProjectiveCommitmentScheme, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scheme_to_dict(scheme), fh)


def load_scheme(path: str) -> ProjectiveCommitmentScheme:
    return scheme_from_dict(load_json(path, "scheme"))
