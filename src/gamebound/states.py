"""Labeled density operators over named registers."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DENSITY_HERM_TOL, RANK_TOL
from .errors import InputError
from .linalg import (
    as_complex_matrix,
    herm_defect,
    hermitize,
    load_json,
    matrix_from_json,
    matrix_to_json,
    min_eig,
    partial_trace_matrix,
    psd_by_cholesky,
    save_json,
)
from .registers import RegisterShape


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
        # |rho_ij|^2 <= rho_ii rho_jj <= 1; a larger entry would overflow the gates below
        if (big := np.abs(mat).max()) > 1.0 + 1e-10:
            raise InputError(f"density matrix entry of magnitude {big:.3e} exceeds 1")
        defect = herm_defect(mat)
        if defect > DENSITY_HERM_TOL:
            raise InputError(f"density matrix Hermiticity defect {defect:.3e}")
        if not psd_by_cholesky(mat, 1e-10) and (low := min_eig(mat)) < -1e-10:
            raise InputError(f"density matrix has eigenvalue {low:.3e} < -1e-10")
        tr = float(np.real(np.trace(mat)))
        if abs(tr - 1.0) > 1e-10:
            raise InputError(f"density matrix trace {tr!r} is not 1 within 1e-10")
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.shape.dim


def density_from_matrix(shape: RegisterShape, matrix: np.ndarray) -> DensityOperator:
    """Build a DensityOperator, Hermitizing away float noise from construction."""
    return DensityOperator(shape, hermitize(np.asarray(matrix, dtype=complex)))


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
    """One [label, dimension] pair of a state file's shape. The dimension must be
    a JSON integer: numbers such as 2.5, strings and booleans are refused."""
    if len(pair) != 2 or type(pair[1]) is not int:
        raise TypeError(f"register {pair!r} is not a [label, integer dimension] pair")
    return str(pair[0]), pair[1]


def save_state(rho: DensityOperator, path: str) -> None:
    save_json(path, {"shape": [[label, d] for label, d in rho.shape.subsystems],
                     **matrix_to_json(rho.matrix)})


def load_state(path: str) -> DensityOperator:
    return load_json(path, "state", lambda data: DensityOperator(
        RegisterShape(tuple(map(_subsystem, data["shape"]))), matrix_from_json(data, "state file")))
