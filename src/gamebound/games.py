"""Attack games: a shared state, a finite menu of binary tests on B, and the
question of how much measuring side registers before choosing helps.

Conventions: the game state lives on registers labeled ("A", "A'", "B") in
that order; either of A, A' may be trivial (dimension 1). The attacker must
name a test j and wins when the binary POVM E^j fires on B.

  non-adaptive : best tr(E1_j rho_B) over j (no side information used)
  semi-adaptive: measure A' only, then choose j
  adaptive     : measure A and A' jointly, then choose j

Both adaptive flavors reduce exactly to score-operator discrimination with
K_j = Tr_B[(I (x) E1_j) rho] on the registers the attacker may measure.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_MAX_OPERATORS, SOLVER_MAX_ITER, SOLVER_TOL
from .discrimination import DiscriminationInstance, SolverCertificate, optimal_discrimination
from .errors import InputError
from .linalg import (
    check_psd,
    hermitize,
    load_json,
    matrix_from_json,
    matrix_to_json,
)
from .rand import random_effect, random_pure_vector, rng_from_seed
from .registers import RegisterShape
from .states import DensityOperator, density_from_matrix, partial_trace, zero_entropy

A_LABEL, APRIME_LABEL, B_LABEL = "A", "A'", "B"
# Name of check (i) in verify_main_theorem. Every check's name says which
# certificate side (primal or dual) it reads.
MAIN_BOUND = "adaptive-dual<=2^H0(A)*semi-primal"


@dataclass(frozen=True)
class BinaryPovmFamily:
    """Finite menu of binary tests {(E0_j, E1_j)} on one register."""

    labels: tuple[str, ...]
    effects: tuple[np.ndarray, ...]  # the E1 halves; E0 = I - E1

    def __post_init__(self) -> None:
        if not self.labels:
            raise InputError("family needs at least one test")
        if len(self.labels) != len(self.effects):
            raise InputError("labels and effects must align")
        if len(set(self.labels)) != len(self.labels):
            raise InputError("duplicate test labels")
        if len(self.labels) > DEFAULT_MAX_OPERATORS:
            raise InputError(f"family size {len(self.labels)} exceeds cap "
                             f"{DEFAULT_MAX_OPERATORS}")
        dim = self.effects[0].shape[0]
        frozen = []
        for label, e in zip(self.labels, self.effects):
            arr = check_psd(e, 1e-10, f"effect {label!r}")
            if arr.shape[0] != dim:
                raise InputError("effects must share one dimension")
            comp = np.eye(dim) - arr
            if float(np.linalg.eigvalsh(hermitize(comp))[0]) < -1e-9:
                raise InputError(f"effect {label!r} exceeds the identity")
            arr = hermitize(arr)
            arr.setflags(write=False)
            frozen.append(arr)
        object.__setattr__(self, "effects", tuple(frozen))

    @property
    def dim(self) -> int:
        return self.effects[0].shape[0]

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class AttackGame:
    """State on (A, A', B) plus the menu of binary tests on B."""

    state: DensityOperator
    family: BinaryPovmFamily

    def __post_init__(self) -> None:
        labels = self.state.shape.labels
        if labels != (A_LABEL, APRIME_LABEL, B_LABEL):
            raise InputError(
                f"game state must use registers ('A', \"A'\", 'B'), got {labels}"
            )
        if self.family.dim != self.state.shape.dim_of(B_LABEL):
            raise InputError(
                f"family dim {self.family.dim} != B dim {self.state.shape.dim_of(B_LABEL)}"
            )

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.state.shape.dims  # (A, A', B)


@dataclass(frozen=True)
class BoundCheck:
    name: str
    lhs: float
    rhs: float
    passed: bool
    expected_violation: bool = False
    informational: bool = False

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "pass": self.passed,
            "expected_violation": self.expected_violation,
            "informational": self.informational,
        }


@dataclass(frozen=True)
class GameResult:
    non_adaptive: float
    semi_adaptive: float
    adaptive: float
    zero_entropy_a: float
    adaptive_cert: SolverCertificate
    semi_cert: SolverCertificate
    bound_checks: tuple[BoundCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed or c.expected_violation or c.informational
                   for c in self.bound_checks)

    def to_dict(self) -> dict:
        return {
            "non_adaptive": self.non_adaptive,
            "semi_adaptive": self.semi_adaptive,
            "adaptive": self.adaptive,
            "zero_entropy_a": self.zero_entropy_a,
            "adaptive_certificate": self.adaptive_cert.to_dict(),
            "semi_certificate": self.semi_cert.to_dict(),
            "bound_checks": [c.to_dict() for c in self.bound_checks],
            "ok": self.ok,
        }


def _score_operators(rho: DensityOperator, family: BinaryPovmFamily) -> DiscriminationInstance:
    """K_j = Tr_B[(I (x) E1_j) rho] on every register but B, which is last."""
    dim_b = rho.shape.dim_of(B_LABEL)
    dim_s = rho.dim // dim_b
    t = rho.matrix.reshape(dim_s, dim_b, dim_s, dim_b)
    return DiscriminationInstance(tuple(np.einsum("jxy,sytx->jst", family.effects, t)))


def non_adaptive_success(game: AttackGame) -> float:
    rho_b = partial_trace(game.state, (B_LABEL,))
    return max(
        float(np.real(np.trace(e1 @ rho_b.matrix))) for e1 in game.family.effects
    )


def adaptive_success(
    game: AttackGame, tol: float = SOLVER_TOL, max_iter: int = SOLVER_MAX_ITER
) -> SolverCertificate:
    """Optimal joint (A, A') measure-then-choose success, with certificate."""
    instance = _score_operators(game.state, game.family)
    return optimal_discrimination(instance, tol=tol, max_iter=max_iter)


def semi_adaptive_success(
    game: AttackGame, tol: float = SOLVER_TOL, max_iter: int = SOLVER_MAX_ITER
) -> SolverCertificate:
    """Same, with only A' available to the attacker."""
    reduced = partial_trace(game.state, (APRIME_LABEL, B_LABEL))
    instance = _score_operators(reduced, game.family)
    return optimal_discrimination(instance, tol=tol, max_iter=max_iter)


def aprime_is_classical(game: AttackGame, tol: float = 1e-10) -> bool:
    """True when dim A' = 1 or the state is block diagonal in the declared A' basis."""
    dim_a, dim_ap, dim_b = game.dims
    if dim_ap == 1:
        return True
    mat = game.state.matrix.reshape(dim_a, dim_ap, dim_b, dim_a, dim_ap, dim_b)
    for i in range(dim_ap):
        for j in range(dim_ap):
            if i != j and np.max(np.abs(mat[:, i, :, :, j, :])) > tol:
                return False
    return True


def verify_main_theorem(
    game: AttackGame,
    tol: float = 1e-6,
    solver_tol: float = SOLVER_TOL,
) -> GameResult:
    """Evaluate all three success modes and check the adaptive-bound chain.

    Checks recorded; each name says which certificate side it reads (the dual
    bounds a value from above, the primal from below):
      (i)  adaptive dual <= 2^{H0(A)} * semi-adaptive primal + tol, the side
           that makes it stricter. Asserted when A' is trivial or classical;
           for quantum A' a failure is recorded as an expected violation
           rather than an error.
      (ii) non-adaptive <= adaptive dual + 1e-8 (sanity direction).
    """
    p_na = non_adaptive_success(game)
    ad = adaptive_success(game, tol=solver_tol)
    semi = semi_adaptive_success(game, tol=solver_tol)
    h0 = zero_entropy(game.state, A_LABEL)
    classical = aprime_is_classical(game)

    lhs = ad.dual_value
    rhs = (2.0**h0) * semi.primal_value + tol
    ok = lhs <= rhs
    checks = (
        BoundCheck(
            name=MAIN_BOUND,
            lhs=lhs,
            rhs=rhs,
            passed=ok,
            expected_violation=(not ok and not classical),
        ),
        BoundCheck(
            name="non-adaptive<=adaptive-dual",
            lhs=p_na,
            rhs=ad.dual_value + 1e-8,
            passed=p_na <= ad.dual_value + 1e-8,
        ),
    )
    return GameResult(
        non_adaptive=p_na,
        semi_adaptive=semi.primal_value,
        adaptive=ad.primal_value,
        zero_entropy_a=h0,
        adaptive_cert=ad,
        semi_cert=semi,
        bound_checks=checks,
    )


# --- canonical instances ----------------------------------------------------


def bell_game() -> AttackGame:
    """Four maximally entangled pairs on (A, A') indexed by a classical B.

    The adaptive attacker identifies the index perfectly (orthogonal rank-one
    score operators); semi-adaptive and non-adaptive succeed with 1/4.
    """
    vecs = [
        np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2),
        np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2),
        np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2),
        np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2),
    ]
    mat = np.zeros((16, 16), dtype=complex)
    for z, v in enumerate(vecs):
        pair = np.outer(v, v.conj())
        marker = np.zeros((4, 4), dtype=complex)
        marker[z, z] = 1.0
        mat += 0.25 * np.kron(pair, marker)
    shape = RegisterShape(((A_LABEL, 2), (APRIME_LABEL, 2), (B_LABEL, 4)))
    state = density_from_matrix(shape, mat)
    effects = []
    for z in range(4):
        e = np.zeros((4, 4), dtype=complex)
        e[z, z] = 1.0
        effects.append(e)
    family = BinaryPovmFamily(tuple(f"z={z}" for z in range(4)), tuple(effects))
    return AttackGame(state, family)


def random_game(
    dim_a: int, dim_b: int, n_tests: int, seed=0, dim_aprime: int = 1
) -> AttackGame:
    """Haar-random pure joint state and random binary tests."""
    rng = rng_from_seed(seed)
    total = dim_a * dim_aprime * dim_b
    vec = random_pure_vector(total, rng)
    shape = RegisterShape(
        ((A_LABEL, dim_a), (APRIME_LABEL, dim_aprime), (B_LABEL, dim_b))
    )
    state = density_from_matrix(shape, np.outer(vec, vec.conj()))
    effects = tuple(random_effect(dim_b, rng) for _ in range(n_tests))
    family = BinaryPovmFamily(
        tuple(f"t{i}" for i in range(n_tests)), effects
    )
    return AttackGame(state, family)


# --- family file format -----------------------------------------------------
#
# {"labels": ["t0", ...], "effects": [{"re": [[...]], "im": [[...]]}, ...]}


def family_to_dict(family: BinaryPovmFamily) -> dict:
    return {
        "labels": list(family.labels),
        "effects": [matrix_to_json(e) for e in family.effects],
    }


def family_from_dict(data: dict) -> BinaryPovmFamily:
    try:
        labels = tuple(str(x) for x in data["labels"])
        effects = tuple(matrix_from_json(block, "family file") for block in data["effects"])
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed family file: {exc}") from exc
    return BinaryPovmFamily(labels, effects)


def save_family(family: BinaryPovmFamily, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(family_to_dict(family), fh)


def load_family(path: str) -> BinaryPovmFamily:
    return family_from_dict(load_json(path, "family"))
