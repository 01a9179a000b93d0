"""Labeled density operators over named registers."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import RANK_TOL
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
from .registers import RegisterShape


@dataclass(frozen=True)
class DensityOperator:
    """Trace-one PSD operator on the registers named by `shape`."""

    shape: RegisterShape
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        mat = check_operators(self.matrix, "density", "density matrix")
        if mat.shape != (self.shape.dim,) * 2:  # the gate also takes (n, d, d) stacks
            raise InputError(f"density matrix shape {mat.shape} != dimension {self.shape.dim}")
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
    in one pass by check_operators, the check each DensityOperator(...) runs on its own."""
    arr = as_complex_stack(stack, "density matrix")
    if arr.shape[1] != shape.dim:
        raise InputError(f"matrix dim {arr.shape[1]} != shape dimension {shape.dim}")
    arr = check_operators(hermitize(arr), "density", "density matrix")
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

    Eigenvalues within RANK_TOL of zero do not count toward the rank. The
    reduced matrix is traced from rho's, validated when rho was built, and is
    not validated again as a state.
    """
    reduced = partial_trace_matrix(rho.matrix, rho.shape.dims, (rho.shape.index_of(label),))
    rank = int(np.sum(np.linalg.eigvalsh(reduced) > RANK_TOL))
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
