"""The acceptance gate: one test per end-to-end criterion, each printing a
single pass/fail line with the headline numbers it was judged on."""
import pytest

from gamebound import acceptance


def _run(fn, seed0_record):
    rec = seed0_record(fn)
    status = "PASS" if rec.passed else "FAIL"
    headline = {
        k: v
        for k, v in rec.values.items()
        if isinstance(v, (int, float, bool, str))
    }
    print(f"{status} {rec.name} runtime={rec.runtime_s:.2f}s {headline}")
    assert rec.passed, f"{rec.name} failed: {rec.values}"
    return rec


def test_criterion_01_guessing_constant(seed0_record):
    rec = _run(acceptance.criterion_01_guessing_constant, seed0_record)
    assert rec.values["error"] <= 1e-9


def test_criterion_02_bell_counterexample(seed0_record):
    rec = _run(acceptance.criterion_02_bell_counterexample, seed0_record)
    assert rec.values["checks"]["violation_flagged"]


def test_criterion_03_random_games(seed0_record):
    rec = _run(acceptance.criterion_03_random_games, seed0_record)
    assert rec.values["games"] == 200


def test_criterion_04_measurement_domination(seed0_record):
    rec = _run(acceptance.criterion_04_measurement_domination, seed0_record)
    assert rec.values["states"] == 100


def test_criterion_05_norm_lemma(seed0_record):
    rec = _run(acceptance.criterion_05_norm_lemma, seed0_record)
    assert rec.values["pairs"] == 100


def test_criterion_06_cheat_state(seed0_record):
    rec = _run(acceptance.criterion_06_cheat_state, seed0_record)
    assert rec.values["instances"] == 50


def test_criterion_07_wrong_opening(seed0_record):
    rec = _run(acceptance.criterion_07_wrong_opening, seed0_record)
    assert rec.values["samples"] == 100


def test_criterion_08_ball_binding(seed0_record):
    rec = _run(acceptance.criterion_08_ball_binding, seed0_record)


def test_criterion_09_privacy_amplification(seed0_record):
    rec = _run(acceptance.criterion_09_privacy_amplification, seed0_record)
    assert rec.values["instances"] == 50


def test_criterion_10_commit_tails(seed0_record):
    rec = _run(acceptance.criterion_10_commit_tails, seed0_record)


def test_criterion_11_uc_demos(seed0_record):
    rec = _run(acceptance.criterion_11_uc_demos, seed0_record)


def test_criterion_12_storage_reduction(seed0_record):
    rec = _run(acceptance.criterion_12_storage_reduction, seed0_record)


def test_run_all_collects_every_criterion():
    report = acceptance.run_all(seed=0, only={1, 5, 6})
    assert report.suite == "acceptance"
    assert len(report.checks) == 3
    assert report.passed
