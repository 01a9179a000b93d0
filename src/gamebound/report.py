"""Machine-readable experiment records.

Serialization is stable: dictionary keys are sorted and floats keep their
shortest round-trip representation, so a report file parsed with json and
dumped back the same way gives the identical bytes.
"""
from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

SCHEMA_VERSION = 1
TOOL_VERSION = "0.1.0"


def jsonable(value):
    """Normalize to plain JSON types (tuples become lists, numpy unwraps)."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


def digest_inputs(obj) -> str:
    """Short content hash of the canonicalized inputs of a check."""
    blob = json.dumps(jsonable(obj), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


@dataclass
class CheckRecord:
    name: str
    passed: bool
    values: dict = field(default_factory=dict)
    bound: float | None = None
    slack: float | None = None
    provenance: str = "computed"
    inputs_digest: str = ""
    runtime_s: float = 0.0

    def __post_init__(self) -> None:
        self.values = jsonable(self.values)
        if self.bound is not None:
            self.bound = float(self.bound)
        if self.slack is not None:
            self.slack = float(self.slack)
        self.runtime_s = float(self.runtime_s)

    def to_dict(self) -> dict:
        return asdict(self)


def timed_record(name, passed, values, bound, slack, provenance, inputs, started) -> CheckRecord:
    """A check record timed from `started`, a time.perf_counter() reading."""
    return CheckRecord(
        name=name,
        passed=bool(passed),
        values=values,
        bound=bound,
        slack=slack,
        provenance=provenance,
        inputs_digest=digest_inputs(inputs),
        runtime_s=time.perf_counter() - started,
    )


@dataclass
class ExperimentReport:
    suite: str
    seed: int | str
    checks: list[CheckRecord] = field(default_factory=list)
    tool_version: str = TOOL_VERSION
    schema_version: int = SCHEMA_VERSION

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": jsonable(self.seed),
            "tool_version": self.tool_version,
            "schema_version": self.schema_version,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
