from __future__ import annotations

from dataclasses import dataclass

from .config import DEFAULT_MAX_DIM
from .errors import CapExceededError, InputError


@dataclass(frozen=True)
class RegisterShape:
    """Ordered list of (label, dimension) pairs naming the tensor factors."""

    subsystems: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        if not self.subsystems:
            raise InputError("shape needs at least one subsystem")
        labels = [label for label, _ in self.subsystems]
        if len(set(labels)) != len(labels):
            raise InputError(f"duplicate register labels in {labels}")
        for label, d in self.subsystems:
            if not isinstance(d, int) or d < 1:
                raise InputError(f"register {label!r} has invalid dimension {d!r}")
        if self.dim > DEFAULT_MAX_DIM:
            raise CapExceededError(
                f"total dimension {self.dim} exceeds cap {DEFAULT_MAX_DIM}"
            )

    @property
    def dim(self) -> int:
        d = 1
        for _, k in self.subsystems:
            d *= k
        return d

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.subsystems)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.subsystems)

    def dim_of(self, label: str) -> int:
        return self.dims[self.index_of(label)]

    def index_of(self, label: str) -> int:
        for i, (name, _) in enumerate(self.subsystems):
            if name == label:
                return i
        raise InputError(f"no register labeled {label!r} in {self.labels}")

    def keep(self, labels: tuple[str, ...]) -> "RegisterShape":
        """Shape restricted to `labels`, preserving declaration order."""
        kept = tuple(
            (name, d) for name, d in self.subsystems if name in labels
        )
        missing = set(labels) - {name for name, _ in kept}
        if missing:
            raise InputError(f"labels {sorted(missing)} not present in {self.labels}")
        return RegisterShape(kept)


def shape(*subsystems: tuple[str, int]) -> RegisterShape:
    """Convenience constructor: shape(("A", 2), ("B", 4))."""
    return RegisterShape(tuple(subsystems))
