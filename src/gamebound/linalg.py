"""Dense Hermitian linear algebra used by every other module.

All functions take and return plain complex ndarrays. Validation is explicit
and tolerance-driven; anything that fails a structural check raises InputError
rather than silently symmetrizing.
"""
from __future__ import annotations

import json

import numpy as np

from .config import HERM_TOL
from .errors import InputError


def as_complex_matrix(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InputError(f"{name} must be square 2-d, got shape {arr.shape}")
    # Every later tolerance test is False for NaN, so non-finite values stop here.
    if not np.isfinite(arr).all():
        raise InputError(f"{name} has a non-finite entry")
    return arr


def reject_first(bad, name, what) -> None:
    """Raise InputError for the first flagged matrix: `bad` flags one matrix, named `name`, or
    each element of a stack, named f"{name} {i}" (or name(i), if `name` is a function);
    what(i) ends the message."""
    if isinstance(bad, np.ndarray) and bad.ndim:
        if bad.any():
            i = int(bad.argmax())
            raise InputError(f"{name(i) if callable(name) else f'{name} {i}'} {what(i)}")
    elif bad:
        raise InputError(f"{name} {what(0)}")


def herm_defect(m: np.ndarray) -> float | np.ndarray:
    """Largest entry of |M - M^dagger|; one per element of an (n, d, d) stack. A difference
    beyond the float range is an infinite defect, which every tolerance rejects."""
    with np.errstate(over="ignore"):
        out = np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)
    return float(out) if out.ndim == 0 else out


def as_complex_stack(ms, name: str = "matrix", finite: bool = True) -> np.ndarray:
    """Square matrices of one shape, a sequence or an (n, d, d) array, as one finite complex
    (n, d, d) array. Errors name the first bad element as f"{name} {i}". With finite=False
    the entries are left to a later check (check_hermitian makes one)."""
    try:
        arr = np.asarray(ms, dtype=complex)
    except ValueError:  # matrices of different shapes
        arr = None
    if arr is None or arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise InputError(f"each {name} must be a square matrix of one shared shape")
    if finite and not np.isfinite(arr).all():
        reject_first(~np.isfinite(arr).all(axis=(1, 2)), name, lambda i: "has a non-finite entry")
    return arr


def check_hermitian(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """A square matrix, or each element of an (n, d, d) stack, as a finite complex array
    Hermitian within HERM_TOL; a stack's errors name its first bad element as f"{name} {i}", or
    as name(i) when `name` is a function."""
    arr = np.asarray(m, dtype=complex)
    arr = as_complex_stack(arr, name) if arr.ndim == 3 else as_complex_matrix(arr, name)
    defect = herm_defect(arr)
    reject_first(defect > HERM_TOL, name, lambda i: f"not Hermitian: defect "
                 f"{np.atleast_1d(defect)[i]:.3e} > {HERM_TOL:.1e}")
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


def psd_by_cholesky(m: np.ndarray, tol: float) -> bool:
    """True only if min_eig would put every matrix of m (one, or an (n, d, d) stack) at
    -tol or above, shown by one stacked Cholesky factorization of M + (tol/2) I. Its success
    proves lambda_min(M) >= -tol/2 - d(d + 1) eps ||M|| (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 10), so it is tried only where that term and eigvalsh's own
    rounding, with ||M|| <= d max|M_ik|, stay below tol/2. False decides nothing: the caller
    then runs min_eig."""
    d = m.shape[-1]
    if not d or (d + 2) * d * d * np.finfo(float).eps * np.abs(m).max(initial=0.0) > tol / 2:
        return False
    try:
        chol = np.linalg.cholesky(hermitize(m) + tol / 2 * np.eye(d))
    except np.linalg.LinAlgError:
        return False
    return bool(np.isfinite(chol).all())


def check_psd(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """check_hermitian, then PSD within HERM_TOL: one stacked Cholesky factorization accepts
    almost every input, and one eigvalsh for the stack decides and names the rest. A smallest
    eigenvalue that is not finite fails too: the spectrum lies beyond the float range."""
    arr = check_hermitian(m, name)
    if psd_by_cholesky(arr, HERM_TOL):
        return arr
    low = min_eig(arr)
    reject_first(~np.isfinite(low) | (low < -HERM_TOL), name, lambda i:
                 f"not PSD: min eigenvalue {np.atleast_1d(low)[i]:.3e} < -{HERM_TOL:.1e}")
    return arr


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

    Non-finite entries pass here and are rejected by as_complex_matrix when
    the matrix is validated. A block must be 2-d, because the checks that
    validate it also accept (n, d, d) stacks.
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
