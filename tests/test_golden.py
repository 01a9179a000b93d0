"""Golden acceptance reports: `verify-all --seed 0` and `--seed 7` must
reproduce tests/golden/verify-all-{0,7}.json outside `runtime_s`.

Each float is compared within the tolerance its criterion is judged at in
acceptance.py; integers, booleans, strings and None are compared exactly.
A change that moves a value beyond its tolerance re-pins the fixture and
lists the moved value. To regenerate a fixture, write the report with
`gamebound verify-all --seed S --out report.json`, delete every record's
`runtime_s`, and dump it with sorted keys and an indent of 2.
"""
import copy
import json
from pathlib import Path

import pytest

from gamebound import acceptance
from gamebound.report import ExperimentReport

GOLDEN = Path(__file__).parent / "golden"

# Absolute float tolerance per criterion: the tolerance its headline value is
# judged at in acceptance.py. Criteria 10 and 11 count seeded Monte Carlo
# outcomes, whose frequencies and sigmas are closed forms of the counts.
TOLERANCE = {
    "01": 1e-9,   # error and certificate gap <= 1e-9
    "02": 1e-7,   # values and gap within 1e-7
    "03": 1e-6,   # bound check tol=1e-6
    "04": 1e-8,   # zero-entropy margin 1e-8
    "05": 1e-9,   # norm lemma tol=1e-9
    "06": 1e-7,   # second-projector slack 1e-7
    "07": 1e-9,   # lemma bound + 1e-9
    "08": 1e-9,   # pair bound + 1e-9
    "09": 1e-9,   # privacy_amp_check tol=1e-9
    "10": 1e-12,
    "11": 1e-12,
    "12": 1e-9,   # storage-reduction slack 1e-9
}


def _deterministic(report: ExperimentReport) -> dict:
    data = json.loads(report.to_json())
    for check in data["checks"]:
        del check["runtime_s"]
    return data


def _mismatches(actual, expected, tol: float, path: str) -> list[str]:
    if isinstance(expected, dict) and isinstance(actual, dict):
        if actual.keys() != expected.keys():
            return [f"{path}: keys {sorted(actual)} != {sorted(expected)}"]
        return [m for k in expected
                for m in _mismatches(actual[k], expected[k], tol, f"{path}.{k}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(actual) != len(expected):
            return [f"{path}: length {len(actual)} != {len(expected)}"]
        return [m for i, (a, e) in enumerate(zip(actual, expected))
                for m in _mismatches(a, e, tol, f"{path}[{i}]")]
    if type(actual) is float and type(expected) is float:
        if actual == expected or abs(actual - expected) <= tol:
            return []
        return [f"{path}: {actual!r} != {expected!r} (tol {tol:g})"]
    if type(actual) is not type(expected) or actual != expected:
        return [f"{path}: {actual!r} != {expected!r}"]
    return []


def _report_mismatches(actual: dict, expected: dict) -> list[str]:
    top = {k: v for k, v in expected.items() if k != "checks"}
    out = _mismatches({k: actual.get(k) for k in top}, top, 0.0, "report")
    names = [c["name"] for c in actual["checks"]]
    if names != [c["name"] for c in expected["checks"]]:
        return out + [f"report.checks: criteria {names}"]
    for got, want in zip(actual["checks"], expected["checks"]):
        out += _mismatches(got, want, TOLERANCE[want["name"][:2]], want["name"])
    return out


@pytest.mark.parametrize("seed", [0, 7])
def test_verify_all_matches_golden_report(seed, seed0_record):
    if seed == 0:
        report = ExperimentReport(
            "acceptance", 0, [seed0_record(fn) for fn in acceptance.ALL_CRITERIA])
    else:
        report = acceptance.run_all(seed=seed)
    expected = json.loads((GOLDEN / f"verify-all-{seed}.json").read_text())
    mismatches = _report_mismatches(_deterministic(report), expected)
    assert not mismatches, "\n".join(mismatches)


def test_golden_comparison_catches_a_moved_value():
    expected = json.loads((GOLDEN / "verify-all-0.json").read_text())
    assert _report_mismatches(expected, expected) == []
    moved = copy.deepcopy(expected)
    record = moved["checks"][4]  # criterion 05, judged at 1e-9
    record["values"]["worst_slack"] += 0.5e-9
    assert _report_mismatches(moved, expected) == []
    record["values"]["worst_slack"] += 1e-9
    assert _report_mismatches(moved, expected) == [
        f"05-norm-lemma.values.worst_slack: {record['values']['worst_slack']!r} != "
        f"{expected['checks'][4]['values']['worst_slack']!r} (tol 1e-09)"]
    moved["checks"][4]["values"]["pairs"] = 99
    assert any("pairs" in m for m in _report_mismatches(moved, expected))
