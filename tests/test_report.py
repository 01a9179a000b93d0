"""Byte stability of the experiment record serialization."""
import json

import numpy as np

from gamebound.report import (
    CheckRecord,
    ExperimentReport,
    digest_inputs,
    jsonable,
)


def test_jsonable_unwraps_numpy_and_tuples():
    value = {
        "int": np.int64(3),
        "float": np.float64(0.25),
        "arr": np.array([[1, 2], [3, 4]]),
        "tup": (1, (2, 3)),
        "none": None,
        7: "int key",
    }
    got = jsonable(value)
    assert got["int"] == 3 and isinstance(got["int"], int)
    assert got["float"] == 0.25 and isinstance(got["float"], float)
    assert got["arr"] == [[1, 2], [3, 4]]
    assert got["tup"] == [1, [2, 3]]
    assert got["none"] is None
    assert got["7"] == "int key"


def test_check_record_normalizes_on_construction():
    rec = CheckRecord(
        name="x",
        passed=True,
        values={"v": np.float64(1.5), "w": (np.int32(2),)},
        bound=np.float64(2.0),
        slack=np.float64(0.5),
        runtime_s=np.float64(0.01),
    )
    assert rec.values == {"v": 1.5, "w": [2]}
    assert isinstance(rec.bound, float) and isinstance(rec.slack, float)


def test_report_passed_property():
    good = CheckRecord(name="a", passed=True)
    bad = CheckRecord(name="b", passed=False)
    assert ExperimentReport("s", 0, [good]).passed
    assert not ExperimentReport("s", 0, [good, bad]).passed
    assert ExperimentReport("s", 0, []).passed


def test_json_round_trip_is_byte_identical():
    report = ExperimentReport(
        "demo",
        3,
        [
            CheckRecord(name="a", passed=True, values={"x": 0.1}, bound=1.0,
                        slack=0.9, provenance="closed-form",
                        inputs_digest=digest_inputs("a"), runtime_s=0.0),
            CheckRecord(name="b", passed=False, values={"table": [1, 2]}),
        ],
    )
    text = report.to_json()
    assert json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n" == text
    assert json.loads(text)["passed"] == report.passed


def test_save_load_round_trip(tmp_path):
    report = ExperimentReport("demo", (1, 2), [CheckRecord(name="a", passed=True)])
    path = tmp_path / "r.json"
    report.save(str(path))
    assert path.read_text() == report.to_json()
    loaded = json.loads(path.read_text())
    assert loaded["suite"] == "demo"
    assert loaded["seed"] == [1, 2]  # tuple seeds land as lists after the trip


def test_digest_is_stable_and_order_insensitive():
    a = digest_inputs({"x": 1, "y": (2, 3)})
    b = digest_inputs({"y": [2, 3], "x": np.int64(1)})
    assert a == b
    assert len(a) == 12
    assert digest_inputs({"x": 2, "y": (2, 3)}) != a
