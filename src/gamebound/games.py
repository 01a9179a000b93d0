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

The reductions rho_B, rho_A'B and rho_A are partial traces of the joint
state's matrix (linalg.partial_trace_matrix), which was validated once when
the state was built; none is wrapped and validated again as a state.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_MAX_OPERATORS, SOLVER_TOL
from .discrimination import SolverCertificate, optimal_discrimination, score_operators
from .errors import InputError
from .linalg import (
    as_complex_stack,
    check_operators,
    hermitize,
    json_label,
    load_json,
    matrix_from_json,
    matrix_to_json,
    partial_trace_matrix,
    save_json,
)
from .rand import random_effect, random_pure_vector, rng_from_seed
from .registers import RegisterShape
from .states import DensityOperator, density_from_matrix, zero_entropy

A_LABEL, APRIME_LABEL, B_LABEL = "A", "A'", "B"
# Name of check (i) in verify_main_theorem. Every check's name says which
# certificate side (primal or dual) it reads.
MAIN_BOUND = "adaptive-dual<=2^H0(A)*semi-primal"


@dataclass(frozen=True)
class BinaryPovmFamily:
    """Finite menu of binary tests {(E0_j, E1_j)} on one register. `stack`
    holds the E1 halves as one read-only (n, d, d) array; `effects` are its
    views."""

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
        names = [f"effect {label!r}" for label in self.labels]
        arr = hermitize(check_operators(as_complex_stack(self.effects, "effect"), "effect",
                                        names.__getitem__))
        arr.setflags(write=False)
        object.__setattr__(self, "stack", arr)
        object.__setattr__(self, "effects", tuple(arr))

    @property
    def dim(self) -> int:
        return self.stack.shape[1]

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
        return all(c.passed or c.expected_violation for c in self.bound_checks)


def non_adaptive_success(game: AttackGame) -> float:
    """max_j tr(E1_j rho_B), all tests in one einsum."""
    rho_b = partial_trace_matrix(game.state.matrix, game.dims, (2,))
    return float(np.einsum("jxy,yx->j", game.family.stack, rho_b).real.max())


def adaptive_success(game: AttackGame, tol: float = SOLVER_TOL) -> SolverCertificate:
    """Optimal joint (A, A') measure-then-choose success, with certificate."""
    return optimal_discrimination(score_operators(game.state.matrix, game.family.stack), tol=tol)


def semi_adaptive_success(game: AttackGame, tol: float = SOLVER_TOL) -> SolverCertificate:
    """Same, with only A' available to the attacker."""
    reduced = partial_trace_matrix(game.state.matrix, game.dims, (1, 2))
    return optimal_discrimination(score_operators(reduced, game.family.stack), tol=tol)


def aprime_is_classical(game: AttackGame) -> bool:
    """True when dim A' = 1 or the state is block diagonal in the declared A' basis, to 1e-10."""
    dim_a, dim_ap, dim_b = game.dims
    mat = game.state.matrix.reshape(dim_a, dim_ap, dim_b, dim_a, dim_ap, dim_b)
    off_diagonal = ~np.eye(dim_ap, dtype=bool)[None, :, None, None, :, None]
    return bool(np.abs(mat * off_diagonal).max() <= 1e-10)


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


def save_family(family: BinaryPovmFamily, path: str) -> None:
    save_json(path, {"labels": list(family.labels),
                     "effects": [matrix_to_json(e) for e in family.effects]})


def load_family(path: str) -> BinaryPovmFamily:
    return load_json(path, "family", lambda data: BinaryPovmFamily(
        tuple(map(json_label, data["labels"])),
        tuple(matrix_from_json(block, "family file") for block in data["effects"])))
