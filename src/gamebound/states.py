"""Labeled density operators over named registers."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DENSITY_HERM_TOL, RANK_TOL
from .errors import InputError
from .linalg import (
    as_complex_matrix,
    as_complex_stack,
    herm_defect,
    hermitize,
    json_label,
    load_json,
    matrix_from_json,
    matrix_to_json,
    min_eig,
    partial_trace_matrix,
    psd_by_cholesky,
    reject_first,
    save_json,
)
from .registers import RegisterShape


def validate_densities(m: np.ndarray) -> np.ndarray:
    """A finite complex density matrix, or each element of an (n, d, d) stack, checked in one
    pass: entries at most 1 in magnitude, Hermitian within DENSITY_HERM_TOL, PSD within 1e-10
    (one stacked Cholesky gate, else one stacked eigvalsh) and of trace 1 within 1e-10.
    DensityOperator(...) runs it on its matrix and density_list on a whole stack; a stack's
    errors name its first bad element as f"density matrix {i}"."""
    name = "density matrix"
    # |rho_ij|^2 <= rho_ii rho_jj <= 1; a larger entry would overflow the gates below
    big = np.abs(m).max(axis=(-2, -1), initial=0.0)
    reject_first(big > 1.0 + 1e-10, name,
                 lambda i: f"entry of magnitude {np.atleast_1d(big)[i]:.3e} exceeds 1")
    defect = herm_defect(m)
    reject_first(defect > DENSITY_HERM_TOL, name,
                 lambda i: f"Hermiticity defect {np.atleast_1d(defect)[i]:.3e}")
    if not psd_by_cholesky(m, 1e-10):
        low = min_eig(m)
        reject_first(low < -1e-10, name,
                     lambda i: f"has eigenvalue {np.atleast_1d(low)[i]:.3e} < -1e-10")
    tr = np.trace(m, axis1=-2, axis2=-1).real
    reject_first(abs(tr - 1.0) > 1e-10, name,
                 lambda i: f"trace {float(np.atleast_1d(tr)[i])!r} is not 1 within 1e-10")
    return m


@dataclass(frozen=True)
class DensityOperator:
    """Trace-one PSD operator on the registers named by `shape`."""

    shape: RegisterShape
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        mat = as_complex_matrix(self.matrix, "density matrix")
        if mat.shape[0] != self.shape.dim:
            raise InputError(
                f"matrix dim {mat.shape[0]} != shape dimension {self.shape.dim}"
            )
        validate_densities(mat)
        self._hold(mat.copy())

    def _hold(self, mat: np.ndarray) -> None:
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.shape.dim


def density_from_matrix(shape: RegisterShape, matrix: np.ndarray) -> DensityOperator:
    """Build a DensityOperator, Hermitizing away float noise from construction."""
    return DensityOperator(shape, hermitize(np.asarray(matrix, dtype=complex)))


def density_list(shape: RegisterShape, stack) -> list[DensityOperator]:
    """density_from_matrix of each matrix of an (n, d, d) stack, all on `shape`, validated
    in one pass by validate_densities, the check each DensityOperator(...) runs on its own."""
    arr = as_complex_stack(stack, "density matrix")
    if arr.shape[1] != shape.dim:
        raise InputError(f"matrix dim {arr.shape[1]} != shape dimension {shape.dim}")
    arr = validate_densities(hermitize(arr))
    out = []
    for mat in arr:
        rho = object.__new__(DensityOperator)
        object.__setattr__(rho, "shape", shape)
        rho._hold(mat)
        out.append(rho)
    return out


def partial_trace(rho: DensityOperator, keep: tuple[str, ...]) -> DensityOperator:
    """Trace out all registers except `keep` (order preserved from the input shape)."""
    new_shape = rho.shape.keep(keep)
    idx = tuple(sorted(rho.shape.index_of(label) for label in keep))
    reduced = partial_trace_matrix(rho.matrix, rho.shape.dims, idx)
    return DensityOperator(new_shape, hermitize(reduced))


def zero_entropy(rho: DensityOperator, label: str) -> float:
    """lg rank of the reduced state on `label`.

    Eigenvalues within RANK_TOL of zero do not count toward the rank.
    """
    reduced = rho if rho.shape.labels == (label,) else partial_trace(rho, (label,))
    rank = int(np.sum(np.linalg.eigvalsh(reduced.matrix) > RANK_TOL))
    if rank == 0:
        raise InputError("reduced state has numerical rank 0")
    return float(np.log2(rank))


# --- state file format ----------------------------------------------------
#
# {"shape": [["A", 2], ["B", 2]], "re": [[...], ...], "im": [[...], ...]}
# "im" may be omitted for real matrices.


def _subsystem(pair) -> tuple[str, int]:
    """One [label, dimension] pair of a state file's shape. The label must be a JSON
    string and the dimension a JSON integer: numbers such as 2.5, strings and
    booleans are refused."""
    if len(pair) != 2 or type(pair[1]) is not int:
        raise TypeError(f"register {pair!r} is not a [label, integer dimension] pair")
    return json_label(pair[0]), pair[1]


def save_state(rho: DensityOperator, path: str) -> None:
    save_json(path, {"shape": [[label, d] for label, d in rho.shape.subsystems],
                     **matrix_to_json(rho.matrix)})


def load_state(path: str) -> DensityOperator:
    return load_json(path, "state", lambda data: DensityOperator(
        RegisterShape(tuple(map(_subsystem, data["shape"]))), matrix_from_json(data, "state file")))
