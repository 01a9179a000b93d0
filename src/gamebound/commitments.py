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

import math
from dataclasses import dataclass, field

import numpy as np

from .config import SOLVER_TOL
from .discrimination import optimal_discrimination, score_operators
from .errors import InputError
from .linalg import (
    as_complex_stack,
    check_psd,
    hermitize,
    json_label,
    load_json,
    matrix_from_json,
    matrix_to_json,
    reject_first,
    save_json,
    spectral_norm,
)
from .rand import random_pure_vector, rng_from_seed
from .registers import RegisterShape
from .states import DensityOperator, density_from_matrix


def _check_projector(m: np.ndarray, name) -> np.ndarray:
    """A projector, or an (n, d, d) stack of them, checked PSD and idempotent within 1e-9;
    a stack's errors name its first bad element as f"{name} {i}", or as name(i) when `name`
    is a function."""
    arr = check_psd(m, name)
    defect = np.abs(arr @ arr - arr).max(axis=(-2, -1), initial=0.0)
    reject_first(defect > 1e-9, name, lambda i: "is not idempotent within 1e-09")
    return hermitize(arr)


@dataclass(frozen=True)
class ProjectiveCommitmentScheme:
    """Opening labels and verification projectors for each committed bit."""

    openings_zero: tuple[tuple[str, np.ndarray], ...]
    openings_one: tuple[tuple[str, np.ndarray], ...]

    def __post_init__(self) -> None:
        for attr, bit in (("openings_zero", "b=0"), ("openings_one", "b=1")):
            if not getattr(self, attr):
                raise InputError(f"no openings declared for {bit}")
            labels = [label for label, _ in getattr(self, attr)]
            if len(set(labels)) != len(labels):
                raise InputError(f"duplicate opening labels in {attr}")
            stack = as_complex_stack([proj for _, proj in getattr(self, attr)],
                                     "verification projector", finite=False)
            stack = _check_projector(stack, [f"V[{label}]" for label in labels].__getitem__)
            stack.setflags(write=False)
            object.__setattr__(self, attr, tuple(zip(labels, stack)))
        if self.openings_zero[0][1].shape != self.openings_one[0][1].shape:
            raise InputError("verification projectors must share one dimension")

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


def scheme_epsilon_na(scheme: ProjectiveCommitmentScheme) -> float:
    """Worst-case non-adaptive epsilon over all states: the best opening pair
    satisfies max_rho (p0 + p1) = ||V_{y0} + V_{y1}||. Every pair is normed in
    one stacked call."""
    v0 = np.stack([v for _, v in scheme.openings_zero])[:, None]
    v1 = np.stack([v for _, v in scheme.openings_one])[None]
    best = float(spectral_norm((v0 + v1).reshape(-1, scheme.dim_b, scheme.dim_b)).max())
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
        for bit in (0, 1):
            ops = score_operators(rho_ab, [v for _, v in scheme.openings(bit)])
            values[bit] = optimal_discrimination(ops, tol=tol).primal_value
        eps = max(0.0, values[0] + values[1] - 1.0)
        return BindingReport(values[0], values[1], eps, mode=mode)
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


def norm_lemma_check(x: np.ndarray, y: np.ndarray):
    """||X + Y|| <= 1 + ||XY|| + 1e-9 for projectors X, Y: (ok, lhs, rhs), or arrays of
    them for (n, d, d) stacks of pairs."""
    xp = _check_projector(x, "X")
    yp = _check_projector(y, "Y")
    lhs = spectral_norm(xp + yp)
    rhs = 1.0 + spectral_norm(xp @ yp)
    return lhs <= rhs + 1e-9, lhs, rhs


def cheat_state(p0: np.ndarray, p1: np.ndarray):
    """State accepted by P0 with certainty and by P1 with probability >= eps^2,
    where eps = ||P1 P0||. Returns (vector, eps); (None, 0) when P1 P0 = 0
    and P0 = 0 leaves nothing to normalize. For (n, d, d) stacks of pairs, a list
    of them, from one check per side and one stacked svd; a pair is a stack of one."""
    a = _check_projector(p0, "P0")
    b = _check_projector(p1, "P1")
    if a.shape != b.shape:
        raise InputError("projectors must share one dimension")
    single = a.ndim == 2
    a, b = (a[None], b[None]) if single else (a, b)
    _, s, vh = np.linalg.svd(b @ a)
    out = []
    for ai, si, vhi in zip(a, s, vh):
        eps = float(si[0]) if si.size else 0.0
        if eps <= 1e-15:
            vals, vecs = np.linalg.eigh(ai)
            out.append((None, 0.0) if float(vals[-1]) < 0.5 else (vecs[:, -1], 0.0))
            continue
        projected = ai @ vhi[0].conj()
        norm = float(np.linalg.norm(projected))
        # unreachable: ||P1 P0 phi|| = eps > 0 forces P0 phi != 0
        out.append((None, 0.0) if norm <= 1e-15 else (projected / norm, eps))
    return out[0] if single else out


def storage_reduction_check(
    scheme: ProjectiveCommitmentScheme,
    q: int,
    trials: int,
    seed=0,
) -> list[dict]:
    """Sampled check of: q-qubit committer register implies
    p0 + p1 - 1 <= 2^{q/2} sqrt(eps_na), with the exact projective-bruteforce
    values (the POVM relaxation may legitimately exceed the bound).
    """
    if q < 0:
        raise InputError("q must be >= 0")
    if trials < 1:
        raise InputError("a storage-reduction check needs at least one trial")
    # the dimension cap rejects a large q before any draw
    shape = RegisterShape((("A", 2**q), ("B", scheme.dim_b)))
    rng = rng_from_seed(seed)
    eps_na = scheme_epsilon_na(scheme)
    bound = (2.0 ** (q / 2.0)) * math.sqrt(eps_na)
    results = []
    for t in range(trials):
        vec = random_pure_vector(shape.dim, rng)
        rho = density_from_matrix(shape, np.outer(vec, vec.conj()))
        report = adaptive_binding(scheme, rho, mode="projective-bruteforce")
        alpha = report.p0 + report.p1 - 1.0
        results.append({"trial": t, "alpha": alpha, "bound": bound,
                        "pass": bool(alpha <= bound + 1e-9)})
    return results


# --- scheme file format -----------------------------------------------------
#
# {"openings": {"0": [{"label": ..., "re": [[...]], "im": [[...]]}], "1": [...]}}


def _side(openings) -> list[dict]:
    return [{"label": label, **matrix_to_json(v)} for label, v in openings]


def save_scheme(scheme: ProjectiveCommitmentScheme, path: str) -> None:
    save_json(path, {"openings": {"0": _side(scheme.openings_zero),
                                  "1": _side(scheme.openings_one)}})


def load_scheme(path: str) -> ProjectiveCommitmentScheme:
    return load_json(path, "scheme", lambda data: ProjectiveCommitmentScheme(*(
        tuple((json_label(item["label"]), matrix_from_json(item, "scheme file"))
              for item in data["openings"][bit])
        for bit in ("0", "1"))))
