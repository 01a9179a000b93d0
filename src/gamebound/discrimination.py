"""Certified operator-discrimination solver and the cq min-entropy built on it.

The primal problem maximized here: given PSD score operators K_j on one
register, find a POVM {F_j} maximizing sum_j tr(F_j K_j). The dual minimizes
tr(Y) over Hermitian Y with Y >= K_j for all j; weak duality makes every
(POVM, feasible Y) pair a certificate bracketing the optimum.

The solver follows the central path of the dual log-barrier
tr(Y) - mu sum_j log det(Y - K_j) over Hermitian Y, d^2 real coordinates
(Boyd & Vandenberghe, Convex Optimization, ch. 11; Eldar, Megretski &
Verghese, IEEE TIT 49(4), 2003), as a predictor-corrector path follower.
Each Newton step solves the d^2 x d^2 system H = sum_j (S_j^{-1} (x) S_j^{-T}),
S_j = Y - K_j, assembled as one (d^2, n) (n, d^2) product; a Cholesky
factorization S_j = L_j L_j^H of every S_j proves each iterate strictly
feasible, and a step is halved until one exists. A corrector step with
lambda^2 <= 1/4, lambda the Newton decrement, is a full step. Any other is
line-searched: along the Newton direction D the barrier is the scalar
phi(t) = t tr(D)/mu - sum log(1 + t sigma), sigma the eigenvalues of every
L_j^{-1} D L_j^{-H}, all taken by one stacked eigvalsh (Vandenberghe & Boyd,
SIAM Review 38(1), 1996, secs. 6-7; Boyd & Vandenberghe, secs. 9.2, 9.5).
Its minimiser lies between the damped step 1/(1 + lambda) and
t_max = -1/min sigma; phi' on a fixed geometric grid from the former,
capped at 0.99 t_max, brackets it, and one secant step in the bracket
gives t. Only a point whose path gap n*d*mu is at most 10 max(tol,
1e-10 tr Y) can end the solve, so only such a point is certified, after a
step from lambda^2 <= 1e-4: F_j = mu S_j^{-1} renormalized by
(sum_j F_j)^{-1/2} is then a POVM whose value lags the optimum by about
||sum_j F_j - I||^2 cond(S_j), an error that does not shrink with mu. Any
other point counts as centered after one full step, since long-step path
following needs only approximate centering between the points it reports
(Boyd & Vandenberghe, sec. 11.5). Each POVM is certified against the
smaller of tr(Y) and the dual repaired from it,
Y0 = (1/2) sum_j (F_j K_j + K_j F_j) shifted by
max(0, max_j lambda_max(K_j - Y0)) I, plus a rounding margin. For the
uniform POVM that dual is mean_j K_j + s I with gap d s, found by one
max_eig; its certificate is built only if that gap already meets tol, or if
it beats every certificate the path meets. The path starts from that dual
plus (gap/d) I, strictly feasible for every mu, at the mu one cut below the
one whose path gap n*d*mu is the uniform gap. On the path the gap is
n*d*mu; mu shrinks by _MU_FACTOR per centering. Near the optimum the path
is nearly affine in mu, so after each centering the predictor steps along
its tangent dY/dmu = H^{-1}[I] / mu^2, with H built from the centered
point's S_j^{-1}, to the next mu (halved until feasible), and the corrector
starts there. The solver stops once a certificate's own gap dual - primal
is at most tol, when two certificates in a row fail to shrink it, or at
the rounding floor near 1e-10. There a full step stops shrinking lambda^2;
so does a line-searched step within 10x of that floor, and anywhere a
line search whose predicted decrease phi(0) - phi(t) is below
_ROUNDING tr(Y)/mu, which the barrier cannot resolve, ends the path too. A
path ended by the floor, the step cap or an infeasible step certifies its
last uncertified centered point.
`iterations` counts corrector Newton steps; the predictor adds one more
solve of H per centering, which it does not count. It is 0 when a shortcut
certifies (the indicator POVM for d = 1, the Helstrom measurement for two
operators, the qubit closed form below, or the uniform).

A qubit instance (d = 2, after the support reduction below) of at most
_QUBIT_MAX_N = 12 operators has a closed form (Deconinck & Terhal, Phys.
Rev. A 81, 062304, 2010); two operators still take the Helstrom
measurement first. With K_j = r_j I + k_j.sigma and Y = R I + c.sigma,
Y >= K_j exactly when the ball B(c, R) in R^3 encloses B(k_j, r_j), so the
dual is the smallest ball enclosing balls (Fischer & Gaertner, Int. J.
Comput. Geom. Appl. 14, 2004). It touches at most 4 of them, and its centre
lies on the affine hull of theirs. Every subset of 1 to 4 is tried in one
padded batch: c is linear in R there, one quadratic gives R, and the
smallest candidate that encloses every ball is the optimum. Complementary
slackness gives the POVM on the balls touched. The tangent dual lies on the
boundary of the feasible set, so it is shifted by
max(0, max_j lambda_max(K_j - Y)) I before the certificate builder adds its
rounding margin. Past n = 12 the subsets (1,092 at n = 13) cost more than
the barrier path, which also takes any closed form whose certificate does
not converge.

Before any of this, one eigh of sum_j K_j finds its support V, the
eigenvectors whose eigenvalues exceed _SUPPORT_CUT times the largest. Each
K_j is PSD and at most that sum, so it lives on V; for a pure joint state
on (A A', B) the sum has rank at most d_B, and a d_A d_A' = 8 instance with
d_B = 2 needs a 4 x 4 Newton system, not a 64 x 64 one. A rank-deficient
instance is solved as V^H K_j V, of the support's rank r, and lifted: the
POVM F_j = V F'_j V^H with the kernel projector I - V V^H joining F_0, and
the dual V Y' V^H shifted by max(0, max_j lambda_max(K_j - V Y' V^H)) I.
The lift is sound whatever the cut: the lifted elements are PSD and sum to
I, so they are a POVM of the full space, and the shift makes the dual
feasible for every full K_j by construction. Both go to the same
certificate builder as every other solve, which adds its rounding margin
and judges primal, dual and convergence on the full instance; a cut that
dropped a direction some K_j uses could only show as a larger gap, never as
a false bound. A lifted certificate carries the compressed solve's
`iterations`, and a support of rank 0 (all K_j zero) needs no solve.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .config import DEFAULT_MAX_OPERATORS, SOLVER_MAX_ITER, SOLVER_TOL
from .errors import InputError
from .linalg import (
    as_complex_stack,
    check_operators,
    check_psd,
    hermitize,
    max_eig,
)
from .states import DensityOperator

# Newton steps are full once the squared decrement is at most _FULL_STEP
# (they converge quadratically there). A point with path gap at most
# _GATE max(tol, 1e-10 tr Y) is centered to _CENTERED and certified, any
# other to _FULL_STEP; mu then shrinks by _MU_FACTOR. The path stops after
# _STALLS certificates in a row fail to shrink the gap. A line search
# brackets its step on 0 and _GRID's ratio-1.4 multiples of 1/(1 + lambda);
# it ends the path when its predicted decrease is below _ROUNDING tr(Y)/mu,
# since every exact one is at least 0.5 - log 1.5 = 0.095 (Boyd &
# Vandenberghe, sec. 9.6).
_FULL_STEP = 0.25
_CENTERED = 1e-4
_GATE = 10.0
_MU_FACTOR = 50.0
_STALLS = 2
_GRID = np.append(0.0, 1.4 ** np.arange(23))
_ROUNDING = 1e-14
# Eigenvalues of sum_j K_j at most _SUPPORT_CUT times its largest lie off the
# support. Rounding leaves those of an exactly rank-deficient sum near 1e-16
# of it; the solver's floor is 1e-10.
_SUPPORT_CUT = 1e-13
# Qubit instances of at most _QUBIT_MAX_N operators take the closed form (_qubit_ball). It
# enumerates 793 subsets at n = 12 in 1.3 ms, against 1.5 ms on the barrier path, but
# 1,092 at n = 13 in 1.8 ms, against 1.6 ms (random mixed qubit instances, one BLAS thread).
_QUBIT_MAX_N = 12
_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


@dataclass(frozen=True)
class Povm:
    """PSD elements summing to the identity. `stack` holds them as one
    read-only (n, d, d) array; `elements` are its views."""

    elements: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if not self.elements:
            raise InputError("POVM needs at least one element")
        arr = as_complex_stack(self.elements, "POVM element")
        check_operators(arr[None], "povm", "POVM")
        self._hold(arr)

    def _hold(self, arr: np.ndarray) -> None:
        arr.setflags(write=False)
        object.__setattr__(self, "stack", arr)
        object.__setattr__(self, "elements", tuple(arr))

    @property
    def dim(self) -> int:
        return self.stack.shape[1]

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class DiscriminationInstance:
    """PSD score operators on one register; values are sums tr(F_j K_j).
    `stack` holds them as one read-only (n, d, d) array; `operators` are its
    views."""

    operators: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if not self.operators:
            raise InputError("instance needs at least one score operator")
        if len(self.operators) > DEFAULT_MAX_OPERATORS:
            raise InputError(f"instance has {len(self.operators)} operators, "
                             f"cap is {DEFAULT_MAX_OPERATORS}")
        arr = as_complex_stack(self.operators, "score operator")
        self._hold(hermitize(check_psd(arr, "score operator")))

    def _hold(self, arr: np.ndarray) -> None:
        arr.setflags(write=False)
        object.__setattr__(self, "stack", arr)
        object.__setattr__(self, "operators", tuple(arr))

    @property
    def dim(self) -> int:
        return self.stack.shape[1]

    def __len__(self) -> int:
        return len(self.operators)


def povm_list(stack, names=None) -> list[Povm]:
    """A Povm for each row of an (m, n, d, d) stack of elements, copied and validated in one
    pass by check_operators, the check each Povm(...) runs on its own. Errors name the first
    bad POVM by names[i] (default f"POVM {i}", or "POVM" for a stack of one) and its element."""
    arr = check_operators(np.array(stack, dtype=complex), "povm",
                          names.__getitem__ if names else "POVM")
    arr.setflags(write=False)
    out = []
    for row in arr:
        povm = object.__new__(Povm)
        povm._hold(row)
        out.append(povm)
    return out


def score_operators(rho: np.ndarray, effects) -> DiscriminationInstance:
    """K_j = Tr_B[(I (x) E_j) rho] for the effects E_j on B, the last register
    of the state matrix rho, in one einsum."""
    effects = np.asarray(effects)
    dim_b = effects.shape[-1]
    dim_s = rho.shape[0] // dim_b
    t = rho.reshape(dim_s, dim_b, dim_s, dim_b)
    return DiscriminationInstance(tuple(np.einsum("jxy,sytx->jst", effects, t)))


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


def primal_value(instance: DiscriminationInstance, povm: Povm) -> float:
    if povm.dim != instance.dim:
        raise InputError("POVM dimension does not match score operators")
    if len(povm) != len(instance):
        raise InputError("POVM outcome count does not match score operators")
    return float(np.einsum("nij,nji->", povm.stack, instance.stack).real)


def dual_feasibility_defect(instance: DiscriminationInstance, y: np.ndarray) -> float:
    """max_j lambda_max(K_j - Y); <= 0 means Y is dual feasible."""
    return float(np.max(max_eig(instance.stack - y)))


def binary_optimal(k0: np.ndarray, k1: np.ndarray) -> tuple[float, Povm]:
    """Closed form for two score operators.

    The optimal F_0 is the projector onto the nonnegative eigenspace of
    K_0 - K_1; the value is tr K_1 + tr (K_0 - K_1)_+, the positive part.
    """
    a = check_psd(k0, "K0")
    b = check_psd(k1, "K1")
    if a.shape != b.shape or a.ndim != 2:  # check_psd also takes (n, d, d) stacks
        raise InputError("score operators must be two matrices of one dimension")
    value, elements = _helstrom(a, b)
    return value, Povm(elements)


def _helstrom(a: np.ndarray, b: np.ndarray) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """binary_optimal's value and elements for validated operators, the POVM unbuilt."""
    vals, vecs = np.linalg.eigh(hermitize(a - b))
    pos = vecs[:, vals >= 0.0]
    f0 = hermitize(pos @ pos.conj().T)
    return float(np.real(np.trace(b)) + np.sum(vals[vals >= 0.0])), (f0, np.eye(a.shape[0]) - f0)


def _repaired_dual(instance: DiscriminationInstance, povm: Povm) -> np.ndarray:
    # (1/2) sum_j (F_j K_j + K_j F_j) is the Hermitian part of sum_j F_j K_j.
    y0 = hermitize(np.einsum("nij,njk->ik", povm.stack, instance.stack))
    shift = max(0.0, dual_feasibility_defect(instance, y0))
    return y0 + shift * np.eye(instance.dim)


def _certificate(
    instance: DiscriminationInstance, elements, witness, steps: int, tol: float
) -> SolverCertificate:
    """The POVM's value against the smaller of two feasible duals: the one
    repaired from the POVM and `witness` (None for none). For d > 1 it is
    returned as Y + tau I, tau = 1e-14 max|Y_ik|, so that every Y - K_j stays
    positive definite under rounding, with its trace rounded up (Jansson,
    Chaykin & Keil, SIAM J. Numer. Anal. 46(1), 2007); the 1 x 1 dual of the
    d = 1 shortcut, max_j K_j, is exactly feasible as it stands."""
    povm = Povm(tuple(elements))
    primal = primal_value(instance, povm)
    y = _repaired_dual(instance, povm)
    if witness is not None and np.trace(witness).real < np.trace(y).real:
        y = witness
    dual = float(np.trace(y).real)
    if instance.dim > 1:
        y = y + 1e-14 * float(np.max(np.abs(y))) * np.eye(instance.dim)
        # fsum is correctly rounded, so one step up bounds the exact trace.
        dual = math.nextafter(math.fsum(np.diag(y).real), math.inf)
    return SolverCertificate(primal, dual, povm, y, steps, dual - primal <= tol)


def _cholesky(s: np.ndarray) -> np.ndarray | None:
    """Cholesky factors of a stack of Hermitian matrices; None unless all are PD."""
    try:
        chol = np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        return None
    # numpy returns NaN factors for a NaN input instead of raising.
    return chol if np.isfinite(chol).all() else None


def _inverses(chol: np.ndarray):
    """(L_j^{-1}, L_j^{-H}, S_j^{-1}) for each S_j = L_j L_j^H, from its Cholesky factors."""
    inv_l = np.linalg.inv(chol)
    inv_lh = inv_l.conj().transpose(0, 2, 1)
    return inv_l, inv_lh, inv_lh @ inv_l


def _newton_solve(s_inv: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The Hermitian X with sum_j S_j^{-1} X S_j^{-1} = rhs."""
    n, d = s_inv.shape[0], s_inv.shape[1]
    # sum_j S_j^{-1} (x) S_j^{-T}: one (d^2, n) (n, d^2) product indexed
    # [(i,k), (j,l)], then reordered to [(i,j), (k,l)].
    flat = s_inv.reshape(n, d * d)
    hess = (flat.T @ flat.conj()).reshape(d, d, d, d).transpose(0, 2, 1, 3)
    x = np.linalg.solve(hess.reshape(d * d, d * d), rhs.reshape(-1)).reshape(d, d)
    return (x + x.conj().T) / 2.0


def _feasible_step(y: np.ndarray, step: np.ndarray, ops: np.ndarray):
    """(Y + t step, its Cholesky factors) for the first t = 1, 1/2, 1/4, ...
    that keeps every Y + t step - K_j positive definite; (Y, None) if none
    above 1e-10 does."""
    t = 1.0
    while t > 1e-10:
        new = y + t * step
        chol = _cholesky(new - ops)
        if chol is not None:
            return new, chol
        t /= 2.0
    return y, None


def _line_search(inv_l: np.ndarray, inv_lh: np.ndarray, step: np.ndarray, mu: float,
                 decrement: float) -> tuple[float, float]:
    """(t, phi(0) - phi(t)) for a t near the minimiser of the barrier along
    `step`, phi(t) = t tr(step)/mu - sum log(1 + t sigma), sigma the
    eigenvalues of every L_j^{-1} step L_j^{-H}; (0, 0) if `step` does not
    descend."""
    sigma = np.linalg.eigvalsh(inv_l @ step @ inv_lh).ravel()
    slope = float(step.trace().real) / mu
    low = float(sigma.min())
    # phi' on the grid from the damped step 1/(1 + lambda), below which the
    # minimiser never lies, capped short of t_max = -1/min sigma, where some
    # Y + t step - K_j turns singular.
    grid = _GRID / (1.0 + math.sqrt(decrement))
    if low < 0.0:
        grid = np.minimum(grid, -0.99 / low)
    dphi = (slope - (sigma / (1.0 + grid[:, None] * sigma)).sum(axis=1)).tolist()
    k = next((i for i, g in enumerate(dphi) if g >= 0.0), len(dphi))
    if k == 0:
        return 0.0, 0.0
    # One secant step inside the bracket [a, grid[k]], or the grid's end.
    a = float(grid[k - 1])
    t = a if k == len(dphi) else a - dphi[k - 1] * (float(grid[k]) - a) / (dphi[k] - dphi[k - 1])
    drop = float(np.log1p(t * sigma).sum()) - t * slope
    if drop < 0.0:  # a descends, since phi' < 0 up to it
        t = a
        drop = float(np.log1p(t * sigma).sum()) - t * slope
    return t, drop


def optimal_discrimination(
    instance: DiscriminationInstance, tol: float = SOLVER_TOL
) -> SolverCertificate:
    """Solve the discrimination problem with a two-sided certificate.

    Stops once dual - primal <= tol; SOLVER_MAX_ITER caps the Newton steps.
    The certificate is valid either way, since both sides are feasible by
    construction. A rank-deficient sum_j K_j is solved on its support and
    lifted (_on_support).
    """
    vals, vecs = np.linalg.eigh(instance.stack.sum(axis=0))
    support = vecs[:, vals > _SUPPORT_CUT * vals[-1]]
    if support.shape[1] == instance.dim:
        return _solve(instance, tol)
    return _on_support(instance, support, tol)


def _on_support(instance: DiscriminationInstance, v: np.ndarray, tol: float) -> SolverCertificate:
    """The certificate of the instance V^H K_j V on the support V of sum_j K_j,
    lifted: F_j = V F'_j V^H with I - V V^H joining F_0, and the dual V Y' V^H
    shifted by max(0, max_j lambda_max(K_j - V Y' V^H)) I. Both sides are
    judged on the full instance by _certificate."""
    n, d = len(instance), instance.dim
    vh = v.conj().T
    if v.shape[1]:
        # V^H K_j V of validated K_j is PSD up to rounding; it is not validated again.
        inner = object.__new__(DiscriminationInstance)
        inner._hold(hermitize(vh @ instance.stack @ v))
        cert = _solve(inner, tol)
        elements, y, steps = v @ cert.povm.stack @ vh, v @ cert.dual_witness @ vh, cert.iterations
    else:  # every K_j is zero: F_0 = I and Y = 0, shifted below
        elements, y, steps = np.zeros((n, d, d), complex), np.zeros((d, d), complex), 0
    elements[0] += np.eye(d) - v @ vh
    y = hermitize(y)
    y += max(0.0, dual_feasibility_defect(instance, y)) * np.eye(d)
    return _certificate(instance, hermitize(elements), y, steps, tol)


def _solve(instance: DiscriminationInstance, tol: float) -> SolverCertificate:
    """optimal_discrimination on an instance taken as it stands: the d = 1,
    Helstrom and qubit shortcuts, else the barrier path."""
    n, d = len(instance), instance.dim
    if d == 1:
        top = int(np.argmax([k[0, 0].real for k in instance.operators]))
        elements = [np.eye(1) * float(j == top) for j in range(n)]
        return _certificate(instance, elements, None, 0, tol)
    if n == 2:
        cert = _certificate(instance, _helstrom(*instance.stack)[1], None, 0, tol)
        if cert.converged:
            return cert
    elif d == 2 and n <= _QUBIT_MAX_N:
        cert = _qubit_ball(instance, tol)
        if cert is not None and cert.converged:
            return cert
    return _barrier_path(instance, tol)


@lru_cache(maxsize=_QUBIT_MAX_N)
def _subsets(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every subset of 1 to 4 of range(n), smallest first, as a row of 4 indices padded by
    repeating its first, and a mask of the padded places among the last 3."""
    rows = [c for size in range(1, 5) for c in itertools.combinations(range(n), size)]
    idx = np.array([c + c[:1] * (4 - len(c)) for c in rows])
    pad = np.array([len(c) for c in rows])[:, None] <= np.arange(1, 4)
    idx.setflags(write=False)
    pad.setflags(write=False)
    return idx, pad


def _enclosing_ball(k: np.ndarray, r: np.ndarray, slack: float):
    """(R, c, S, coords) for the smallest ball B(c, R) enclosing every B(k_j, r_j) within
    `slack`, S the indices of the balls it touches and coords the affine coordinates of c on
    their centres; None if no candidate encloses them all. The ball touches at most 4 of
    them and its centre lies on the affine hull of theirs, so for each subset c is linear in
    R and one quadratic gives R; the smallest candidate that encloses every ball is the one."""
    idx, pad = _subsets(len(r))
    ks, rs = k[idx], r[idx]
    # Tangency to k_i and k_0 with c = k_0 + sum_i lambda_i a_i, a_i = k_i - k_0, is linear:
    # G lambda = b + R e, G the Gram matrix of the a_i, padded with the identity.
    a = ks[:, 1:] - ks[:, :1]
    e = rs[:, 1:] - rs[:, :1]
    b = ((a * a).sum(axis=2) - e * (rs[:, 1:] + rs[:, :1])) / 2.0
    # Products are einsums, and G^{-1} = adj(G) / det G with the rows of the symmetric G's
    # adjugate the cross products of its rows: the real BLAS and LAPACK routines that could
    # do this run nowhere else in a solve, and paging them in cost about 1 MB of memory.
    gram = np.einsum("mix,mjx->mij", a, a) + pad[:, :, None] * np.eye(3)
    adj = np.cross(gram[:, [1, 2, 0]], gram[:, [2, 0, 1]])
    det = (gram[:, 0] * adj[:, 0]).sum(axis=1)
    # Centres that are not affinely independent leave G singular; the smallest ball never
    # needs them (Caratheodory), so those subsets are skipped.
    usable = det > 1e-12 * np.prod(np.diagonal(gram, axis1=1, axis2=2), axis=1)
    lam = np.einsum("mij,mjs->mis", adj, np.stack([b, e], 2))
    lam /= np.where(usable, det, 1.0)[:, None, None]  # lambda = lam[..., 0] + R lam[..., 1]
    u, v = np.einsum("mis,mix->smx", lam, a)  # c = k_0 + u + R v
    # |c - k_0| = R - r_0 with c - k_0 = u + R v: alpha R^2 + 2 beta R + gamma = 0.
    r0 = rs[:, 0]
    alpha = (v * v).sum(axis=1) - 1.0
    beta = (u * v).sum(axis=1) + r0
    gamma = (u * u).sum(axis=1) - r0 * r0
    q = -(beta + np.copysign(np.sqrt(np.maximum(beta * beta - alpha * gamma, 0.0)), beta))
    with np.errstate(divide="ignore", invalid="ignore"):
        radius = np.stack([q / alpha, gamma / q], 1)
    # A ball that encloses them all is at least as large as the largest; only such
    # candidates are checked.
    sub, root = np.nonzero(usable[:, None] & np.isfinite(radius) & (radius >= r.max() - slack))
    radius = radius[sub, root]
    centre = ks[sub, 0] + u[sub] + radius[:, None] * v[sub]
    fits = radius >= (r + np.linalg.norm(centre[:, None] - k, axis=2)).max(axis=1) - slack
    if not fits.any():
        return None
    best = int(np.argmin(np.where(fits, radius, np.inf)))
    row, size = sub[best], 4 - int(pad[sub[best]].sum())
    coords = lam[row, :, 0] + radius[best] * lam[row, :, 1]
    return radius[best], centre[best], idx[row, :size], np.append(1.0 - coords.sum(), coords)[:size]


def _qubit_ball(instance: DiscriminationInstance, tol: float) -> SolverCertificate | None:
    """The closed form for d = 2. With K_j = r_j I + k_j.sigma and Y = R I + c.sigma,
    Y >= K_j exactly when the ball B(c, R) encloses B(k_j, r_j), so the dual is the smallest
    ball enclosing balls (_enclosing_ball). The POVM is F_j = w_j (I - n_j.sigma)/2 on the
    balls it touches, n_j the unit vector from k_j to c, with sum w_j = 2 and
    sum w_j n_j = 0 (complementary slackness); F_j = I when c = k_j. None if no ball is
    found or its POVM is degenerate."""
    ops = instance.stack
    r = ops.trace(axis1=1, axis2=2).real / 2.0
    k = np.stack([ops[:, 1, 0].real, ops[:, 1, 0].imag,
                  (ops[:, 0, 0] - ops[:, 1, 1]).real / 2.0], axis=1)
    # Tangent balls meet the candidate up to rounding; the dual shift below repairs that.
    slack = 1e-12 * r.max()
    found = _enclosing_ball(k, r, slack)
    if found is None:
        return None
    radius, c, touch, coords = found
    gap = c - k[touch]
    dist = np.linalg.norm(gap, axis=1)
    elements = np.zeros_like(ops)
    if dist.min() <= slack:  # B(k_j, r_j) encloses the rest: F_j = I
        elements[touch[np.argmin(dist)]] = np.eye(2)
    else:
        # sum_j w_j n_j = 0 puts c at sum_j (w_j/d_j) k_j / sum_j (w_j/d_j), d_j = |c - k_j|,
        # so w_j is proportional to coords_j d_j, and F_j to coords_j (d_j I - (c - k_j).sigma).
        elements[touch] = np.maximum(coords, 0.0)[:, None, None] * (
            dist[:, None, None] * np.eye(2) - np.einsum("ji,ikl->jkl", gap, _PAULI))
        # Renormalizing to sum_j F_j = I fixes the scale, and the rounding.
        vals, vecs = np.linalg.eigh(elements.sum(axis=0))
        if not vals.min() > 0.0:
            return None
        norm = (vecs / np.sqrt(vals)) @ vecs.conj().T
        elements = hermitize(norm @ elements @ norm)
    y = radius * np.eye(2) + np.einsum("i,ikl->kl", c, _PAULI)
    y += max(0.0, dual_feasibility_defect(instance, y)) * np.eye(2)
    return _certificate(instance, elements, y, 0, tol)


def _barrier_path(instance: DiscriminationInstance, tol: float) -> SolverCertificate:
    """The best certificate met on the central path, or the uniform POVM's
    when it suffices at once or beats them all."""
    ops = instance.stack
    n, d = ops.shape[0], ops.shape[1]
    eye = np.eye(d)
    y = ops.mean(axis=0)
    shift = max(0.0, float(np.max(max_eig(ops - y))))
    uniform_gap = d * shift

    def uniform():
        return _certificate(instance, [eye / n] * n, None, 0, tol)

    if uniform_gap <= max(tol, 0.0):
        cert = uniform()
        # A zero gap is the optimum, which no point on the path beats.
        if cert.converged or uniform_gap == 0.0:
            return cert

    def certify(y, mu, s_inv):
        f = mu * s_inv
        vals, vecs = np.linalg.eigh(f.sum(axis=0))
        norm = (vecs / np.sqrt(vals)) @ vecs.conj().T
        return _certificate(instance, hermitize(norm @ f @ norm), y, 0, tol)

    y = y + 2.0 * shift * eye
    mu = uniform_gap / (n * d * _MU_FACTOR)
    chol = _cholesky(y - ops)
    steps, last_gap, stalls, last_decrement = 0, np.inf, 0, np.inf
    certs = []
    pending = None  # the last centered point not certified, as (Y, mu, S^{-1})
    while steps < SOLVER_MAX_ITER and chol is not None:
        steps += 1
        inv_l, inv_lh, s_inv = _inverses(chol)
        grad = eye / mu - s_inv.sum(axis=0)
        step = _newton_solve(s_inv, -grad)
        decrement = float(-np.vdot(grad, step).real)  # squared Newton decrement
        if decrement >= last_decrement:
            # A step failed to shrink the decrement: the rounding floor.
            pending = (y, mu, s_inv)
            break
        trace = float(y.trace().real)
        floor = n * d * mu <= _GATE * 1e-10 * trace
        gated = floor or n * d * mu <= _GATE * tol
        t = 1.0
        if decrement > _FULL_STEP:
            t, drop = _line_search(inv_l, inv_lh, step, mu, decrement)
            if drop <= _ROUNDING * trace / mu:
                pending = (y, mu, s_inv)
                break
        y, chol = _feasible_step(y, t * step, ops)
        last_decrement = decrement if t == 1.0 or floor else np.inf
        if chol is None or decrement > (_CENTERED if gated else _FULL_STEP):
            continue
        s_inv = _inverses(chol)[2]
        pending = None if gated else (y, mu, s_inv)
        if gated:
            cert = certify(y, mu, s_inv)
            certs.append(cert)
            stalls = stalls + 1 if cert.gap >= last_gap else 0
            if cert.converged or stalls == _STALLS:
                break
            last_gap = cert.gap
        # Predictor: along the tangent dY/dmu = H^{-1}[I] / mu^2 to the next mu.
        tangent = _newton_solve(s_inv, eye)
        y, chol = _feasible_step(y, -(1.0 - 1.0 / _MU_FACTOR) / mu * tangent, ops)
        mu /= _MU_FACTOR
        last_decrement = np.inf
    if pending is not None:
        certs.append(certify(*pending))
    best = min(certs, key=lambda c: c.gap, default=None)
    if best is None or uniform_gap < best.gap:
        best = uniform()
    return replace(best, iterations=steps)


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

    def score_operators(self) -> DiscriminationInstance:
        return DiscriminationInstance(
            tuple(w * c.matrix for w, c in zip(self.weights, self.conditionals))
        )


def guessing_probability(cq: CqState, tol: float = SOLVER_TOL) -> SolverCertificate:
    """Best probability of guessing x from the B register, with certificate."""
    return optimal_discrimination(cq.score_operators(), tol=tol)
