"""The names and result keys that perfbench/ reads from gamebound.

The benchmark imports the program's public functions, wraps those listed in
tracing.SPANNED and tracing.COUNTED, and checks every result by key. These
tests run one operation of each workload part, the verify-all warm-up and a
tracer install, so that a renamed function, mode or result key fails here
rather than in a benchmark run."""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["certify", "open-bind"])
def test_first_operation_of_each_part_passes_its_check(name):
    ops = workloads.WORKLOADS[name](0).ops
    firsts = {}
    for op in ops:
        firsts.setdefault(op.part, op)
    assert len(firsts) == {"certify": 2, "open-bind": 3}[name]
    for part, op in firsts.items():
        items, _, problems = op.check(op.call())
        assert items > 0, part
        assert problems == [], part


def test_verify_all_warm_up_runs():
    code, text = workloads.verify_all_workload(0).warm_up()
    assert code == 0
    assert "PASS suite=acceptance" in text


def test_tracer_installs_and_restores_every_name():
    from gamebound import bcjl, linalg, ucsim

    originals = (bcjl.ball_verifier, linalg.spectral_norm, ucsim.qubit_state)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert bcjl.ball_verifier is not originals[0]
    finally:
        tracer.uninstall()
    assert (bcjl.ball_verifier, linalg.spectral_norm, ucsim.qubit_state) == originals
