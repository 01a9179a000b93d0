"""Dense Hermitian linear algebra used by every other module.

All functions take and return plain complex ndarrays. Densities, effects,
projectors, POVMs and general PSD operators pass one gate, check_operators:
finite, entries at most 1 in magnitude (but for general PSD), Hermitian, PSD
and the kind's condition, each within a tolerance; a failure raises
InputError rather than silently symmetrizing.
"""
from __future__ import annotations

import json

import numpy as np

from .config import DENSITY_HERM_TOL, EQ_TOL, HERM_TOL
from .errors import InputError


def as_complex_matrix(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InputError(f"{name} must be square 2-d, got shape {arr.shape}")
    # Every later tolerance test is False for NaN, so non-finite values stop here.
    if not np.isfinite(arr).all():
        raise InputError(f"{name} has a non-finite entry")
    return arr


def reject_first(bad, name, msg: str, vals=None) -> None:
    """Raise InputError for the first flagged matrix: `bad` flags one matrix, named `name`, or
    each element of a stack, named f"{name} {i}" (or name(i), if `name` is a function).
    msg.format(v) ends the message, v that matrix's value in `vals` (one, or one per element)."""
    if isinstance(bad, np.ndarray) and bad.ndim:
        if bad.any():
            i = int(bad.argmax())
            raise InputError(f"{name(i) if callable(name) else f'{name} {i}'} "
                             f"{msg.format(None if vals is None else vals[i])}")
    elif bad:
        raise InputError(f"{name} {msg.format(vals)}")


def herm_defect(m: np.ndarray) -> float | np.ndarray:
    """Largest entry of |M - M^dagger|; one per element of an (n, d, d) stack. A difference
    beyond the float range is an infinite defect, which every tolerance rejects."""
    with np.errstate(over="ignore"):
        out = np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)
    return float(out) if out.ndim == 0 else out


def as_complex_stack(ms, name: str = "matrix") -> np.ndarray:
    """Square matrices of one shape, a sequence or an (n, d, d) array, as one complex
    (n, d, d) array; its entries are left to check_operators."""
    try:
        arr = np.asarray(ms, dtype=complex)
    except ValueError:  # matrices of different shapes
        arr = None
    if arr is None or arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise InputError(f"each {name} must be a square matrix of one shared shape")
    return arr


def hermitize(m: np.ndarray) -> np.ndarray:
    """(M + M^dagger)/2 per matrix — used on results that are Hermitian in exact arithmetic.
    Halving first is exact, so the sum cannot overflow where the entries are finite."""
    half = m * 0.5
    return half + half.conj().swapaxes(-1, -2)


def tensor(*factors: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more matrices, in the given order."""
    if not factors:
        raise InputError("tensor needs at least one factor")
    out = np.asarray(factors[0], dtype=complex)
    for f in factors[1:]:
        out = np.kron(out, np.asarray(f, dtype=complex))
    return out


def min_eig(m: np.ndarray) -> float | np.ndarray:
    """Smallest eigenvalue (one per stack element) of the Hermitized input, unvalidated."""
    return _extreme_eig(m, 0)


def max_eig(m: np.ndarray) -> float | np.ndarray:
    return _extreme_eig(m, -1)


def _extreme_eig(m: np.ndarray, end: int) -> float | np.ndarray:
    out = np.linalg.eigvalsh(hermitize(m))[..., end] if m.shape[-1] else np.zeros(m.shape[:-2])
    return float(out) if out.ndim == 0 else out


def psd_by_cholesky(m: np.ndarray, tol: float, top: float) -> bool:
    """True only if min_eig would put every matrix of m (one, or an (n, d, d) stack) at
    -tol or above, shown by one stacked Cholesky factorization of M + (tol/2) I. Its success
    proves lambda_min(M) >= -tol/2 - d(d + 1) eps ||M|| (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 10), so it is tried only where that term and eigvalsh's own
    rounding, with ||M|| <= d max|M_ik| and `top` = max|M_ik| over m, stay below tol/2.
    False decides nothing: the caller then runs min_eig."""
    d = m.shape[-1]
    if not d or (d + 2) * d * d * np.finfo(float).eps * top > tol / 2:
        return False
    try:
        chol = np.linalg.cholesky(hermitize(m) + tol / 2 * np.eye(d))
    except np.linalg.LinAlgError:
        return False
    return bool(np.isfinite(chol).all())


# Per kind: magnitude tolerance (None: unbounded) and message, Hermiticity tolerance and message,
# PSD message. Densities keep DENSITY_HERM_TOL: HERM_TOL would accept state files the CLI refuses.
_GENERAL = (HERM_TOL, "not Hermitian: defect {:.3e} > 1.0e-10",
            "not PSD: min eigenvalue {:.3e} < -1.0e-10")
_KINDS = {
    "density": (1e-10, "entry of magnitude {:.3e} exceeds 1", DENSITY_HERM_TOL,
                "Hermiticity defect {:.3e}", "has eigenvalue {:.3e} < -1e-10"),
    "effect": (1e-9, "exceeds the identity or is not PSD: entry of magnitude {:.3e} > 1",
               *_GENERAL),
    "projector": (1e-9, "is not a projector: entry of magnitude {:.3e} > 1", *_GENERAL),
    "povm": (EQ_TOL, "exceeds the identity: entry of magnitude {:.3e} > 1", *_GENERAL),
    "psd": (None, "", *_GENERAL),
}


def check_operators(m, kind: str, name="matrix") -> np.ndarray:
    """The gate for operators of one `kind` of _KINDS: `m`, one square matrix or an (n, d, d)
    stack (for "povm", an (m, n, d, d) stack of m POVMs), returned as a complex array as given.
    Each step runs on every element before the next: finite; |X_ij| <= 1, as 0 <= X <= I
    implies (not for "psd"); Hermitian; PSD within HERM_TOL (one stacked Cholesky, else
    eigvalsh); the kind's condition: trace 1, X <= I, X^2 = X, or each POVM summing to I. One
    max|X_ij| serves the first two steps and the Cholesky bound. Errors name elements as
    reject_first does; element j of POVM k is f"{P} element {j}", P = name(k) (else `name`
    for one POVM, f"{name} {k}" for several)."""
    bound, big_msg, herm_tol, herm_msg, psd_msg = _KINDS[kind]
    arr = flat = np.asarray(m, dtype=complex)
    if kind == "povm":
        if arr.ndim != 4 or arr.shape[-1] != arr.shape[-2]:
            raise InputError(f"POVM stack must have shape (m, n, d, d), got {arr.shape}")
        count, n = arr.shape[:2]
        povm = name if callable(name) else (lambda k, s=name: s if count == 1 else f"{s} {k}")
        flat, name = arr.reshape(count * n, *arr.shape[2:]), (
            lambda i: f"{povm(i // n)} element {i % n}")
    elif arr.ndim not in (2, 3) or arr.shape[-1] != arr.shape[-2]:
        raise InputError(f"{name} must be a square matrix or a stack of them, got {arr.shape}")
    top = np.abs(flat).max(initial=0.0)  # NaN and inf carry through the max
    if not top < np.inf:  # so does an |X_ij| that overflows
        reject_first(~np.isfinite(flat).all(axis=(-2, -1)), name, "has a non-finite entry")
    if bound is not None and top > 1.0 + bound:
        big = np.abs(flat).max(axis=(-2, -1))
        reject_first(big > 1.0 + bound, name, big_msg, big)
    defect = herm_defect(flat)
    reject_first(defect > herm_tol, name, herm_msg, defect)
    if not psd_by_cholesky(flat, HERM_TOL, top):
        low = min_eig(flat)
        reject_first(~np.isfinite(low) | (low < -HERM_TOL), name, psd_msg, low)
    if kind == "density":
        tr = np.trace(flat, axis1=-2, axis2=-1).real
        reject_first(abs(tr - 1.0) > 1e-10, name, "trace {} is not 1 within 1e-10", tr)
    elif kind == "effect":
        reject_first(min_eig(np.eye(arr.shape[-1]) - hermitize(flat)) < -1e-9, name,
                     "exceeds the identity")
    elif kind == "projector":
        defect = np.abs(flat @ flat - flat).max(axis=(-2, -1), initial=0.0)
        reject_first(defect > 1e-9, name, "is not idempotent within 1e-09")
    elif kind == "povm":
        defect = np.abs(arr.sum(axis=1) - np.eye(arr.shape[-1])).max(axis=(1, 2), initial=0.0)
        reject_first(defect > EQ_TOL, povm, "elements do not sum to the identity within 1e-9: "
                     "defect {:.3e}", defect)
    return arr


def check_psd(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """check_operators for a general PSD operator or stack of them."""
    return check_operators(m, "psd", name)


def spectral_norm(m: np.ndarray) -> float | np.ndarray:
    """Largest singular value; one per element of an (n, d, d) stack."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim == 3:
        return np.linalg.norm(arr, 2, axis=(-2, -1))
    if arr.size == 0:
        return 0.0
    return float(np.linalg.norm(arr, 2))


def partial_trace_matrix(
    m: np.ndarray, dims: tuple[int, ...], keep: tuple[int, ...]
) -> np.ndarray:
    """Partial trace of a square matrix over the factors not listed in `keep`.

    `dims` are the tensor-factor dimensions in order; `keep` are factor indices
    to retain, and the result orders them as in `keep` (which must be ascending).
    Works on arbitrary matrices, not only density operators.
    """
    arr = as_complex_matrix(m)
    total = int(np.prod(dims))
    if arr.shape[0] != total:
        raise InputError(f"matrix dim {arr.shape[0]} != product of dims {dims}")
    if list(keep) != sorted(set(keep)):
        raise InputError("keep indices must be strictly ascending")
    if any(i < 0 or i >= len(dims) for i in keep):
        raise InputError(f"keep indices {keep} out of range for {len(dims)} factors")
    n = len(dims)
    # A traced factor's bra axis takes its ket axis's index, so einsum sums the pair.
    bras = [n + i if i in keep else i for i in range(n)]
    t = np.einsum(arr.reshape(dims + dims), list(range(n)) + bras,
                  list(keep) + [n + i for i in keep])
    kept_dim = int(np.prod([dims[i] for i in keep]))
    return t.reshape(kept_dim, kept_dim)


def apply_kraus(m: np.ndarray, kraus: list[np.ndarray]) -> np.ndarray:
    """sum_k K m K^dagger. Rectangular Kraus operators are allowed."""
    if not kraus:
        raise InputError("empty Kraus list")
    try:
        ops = np.asarray(kraus, dtype=complex)
    except ValueError:  # operators of different shapes
        ops = None
    if ops is None or ops.ndim != 3:
        raise InputError("Kraus operators must share one shape")
    adj = ops.conj().swapaxes(-1, -2)
    if np.max(np.abs((adj @ ops).sum(axis=0) - np.eye(ops.shape[2]))) > 1e-9:
        raise InputError("Kraus operators do not satisfy the completeness sum")
    return (ops @ m @ adj).sum(axis=0)


# --- JSON matrix blocks, shared by the state, family and scheme files --------


def matrix_to_json(m: np.ndarray) -> dict:
    return {"re": np.real(m).tolist(), "im": np.imag(m).tolist()}


def _json_numbers(rows, name: str) -> np.ndarray:
    """A nested list of JSON numbers as a float array. numpy would also turn
    strings such as "1" and booleans into numbers; they are rejected."""
    arr = np.asarray(rows, dtype=object)
    if not all(type(x) in (int, float) for x in arr.flat):
        raise InputError(f"{name} has an entry that is not a JSON number")
    return arr.astype(float)


def json_label(value) -> str:
    """A register, test or opening label of an input file, which must be a JSON string;
    load_json reports the TypeError as a malformed file."""
    if type(value) is not str:
        raise TypeError(f"label {value!r} is not a JSON string")
    return value


def matrix_from_json(block, name: str) -> np.ndarray:
    """Inverse of matrix_to_json; "im" may be omitted for a real matrix.

    Non-finite entries pass here and are rejected by check_operators when
    the matrix is validated. A block must be 2-d, because that gate also
    accepts (n, d, d) stacks.
    """
    try:
        re = _json_numbers(block["re"], name)
        im = _json_numbers(block["im"], name) if "im" in block else np.zeros_like(re)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed {name}: {exc}") from exc
    if re.shape != im.shape:
        raise InputError(f"{name}: re/im blocks have different shapes {re.shape} and {im.shape}")
    if re.ndim != 2:
        raise InputError(f"{name}: a matrix block must be 2-d, got shape {re.shape}")
    return re + 1j * im


def save_json(path: str, data) -> None:
    """Write `data` to a state, family or scheme file as one line of JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def load_json(path: str, kind: str, parse):
    """parse(contents) of a `kind` JSON input file. Bad JSON (also bad UTF-8, an
    integer of over 4300 digits or nesting too deep to decode), and a key or a
    type that `parse` finds missing or wrong, are InputErrors."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise InputError(f"{kind} file is not valid JSON: {exc}") from exc
    try:
        return parse(data)
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed {kind} file: {exc}") from exc
