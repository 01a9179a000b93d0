"""Exit codes, report files, and argument plumbing for the console entry."""
import numpy as np
import pytest

from gamebound.cli import main
from gamebound.commitments import ProjectiveCommitmentScheme, save_scheme
from gamebound.games import bell_game, save_family
from gamebound.registers import shape
from gamebound.report import ExperimentReport
from gamebound.states import density_from_matrix, save_state

PLUS = np.full((2, 2), 0.5, dtype=complex)
Z0 = np.diag([1.0, 0.0]).astype(complex)
Z1 = np.diag([0.0, 1.0]).astype(complex)


def basis_reveal_scheme():
    return ProjectiveCommitmentScheme((("a", Z0), ("b", Z1)), (("c", PLUS),))


def copy_state():
    return density_from_matrix(
        shape(("A", 2), ("B", 2)),
        np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex),
    )


def test_game_bell_passes(capsys):
    assert main(["game", "--bell"]) == 0
    out = capsys.readouterr().out
    assert "PASS bell" in out
    assert "suite=game" in out


def test_game_random_writes_report(tmp_path, capsys):
    out_path = tmp_path / "games.json"
    rc = main([
        "game", "--random", "3", "--dim-a", "2", "--dim-b", "2",
        "--tests", "2", "--seed", "4", "--out", str(out_path),
    ])
    assert rc == 0
    report = ExperimentReport.load(str(out_path))
    assert report.suite == "game"
    assert [c.name for c in report.checks] == ["random-0", "random-1", "random-2"]
    assert report.passed
    # the saved file is exactly the serialized report
    assert out_path.read_text() == report.to_json()


def test_game_records_solve_time(tmp_path, monkeypatch, capsys):
    import time

    from gamebound import games

    solve = games.verify_main_theorem

    def slow_solve(*args, **kwargs):
        time.sleep(0.05)
        return solve(*args, **kwargs)

    monkeypatch.setattr(games, "verify_main_theorem", slow_solve)
    out_path = tmp_path / "game.json"
    assert main(["game", "--random", "1", "--out", str(out_path)]) == 0
    (chk,) = ExperimentReport.load(str(out_path)).checks
    assert chk.runtime_s >= 0.05


def test_unexpected_exception_is_internal_error(monkeypatch, capsys):
    import gamebound.cli as cli

    def crash(args):
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    monkeypatch.setattr(cli, "_cmd_game", crash)
    assert main(["game", "--bell"]) == 3
    err = capsys.readouterr().err
    assert err == "internal error: LinAlgError: eigenvalues did not converge\n"


def test_game_without_work_is_usage_error(capsys):
    assert main(["game"]) == 2
    assert "nothing to do" in capsys.readouterr().err


def test_game_from_state_and_family_files(tmp_path, capsys):
    game = bell_game()
    state_path = tmp_path / "state.json"
    family_path = tmp_path / "family.json"
    save_state(game.state, str(state_path))
    save_family(game.family, str(family_path))
    rc = main(["game", "--state", str(state_path), "--family", str(family_path)])
    assert rc == 0
    assert "PASS from-files" in capsys.readouterr().out


def test_missing_state_file_is_input_error(capsys):
    rc = main(["game", "--state", "/nonexistent/state.json",
               "--family", "/nonexistent/family.json"])
    assert rc == 2


def test_binding_scheme_and_storage(tmp_path, capsys):
    scheme_path = tmp_path / "scheme.json"
    save_scheme(basis_reveal_scheme(), str(scheme_path))
    state_path = tmp_path / "attack.json"
    save_state(copy_state(), str(state_path))
    rc = main([
        "binding", "--scheme", str(scheme_path), "--state", str(state_path),
        "--storage-q", "1", "--trials", "2",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "non-adaptive-epsilon" in out
    assert "adaptive-binding" in out
    assert "storage-reduction" in out


def test_binding_rejects_malformed_scheme_json(tmp_path, capsys):
    bad = tmp_path / "scheme.json"
    bad.write_text("{not json")
    assert main(["binding", "--scheme", str(bad)]) == 2


def test_onecc_guessing(capsys):
    assert main(["onecc", "--guessing"]) == 0
    assert "single-position-guessing" in capsys.readouterr().out


def test_bcjl_exhaustive_instance(tmp_path, capsys):
    out_path = tmp_path / "bcjl.json"
    rc = main([
        "bcjl", "--code", "rep31", "--delta", "0", "--hash-member", "1",
        "--syndrome", "0,0", "--masked-bit", "0", "--out", str(out_path),
    ])
    assert rc == 0
    report = ExperimentReport.load(str(out_path))
    (chk,) = report.checks
    assert chk.name == "binding"
    assert chk.values["exhaustive"]
    assert chk.slack == pytest.approx(0.0, abs=1e-9)


def test_uc_table_and_demo(capsys):
    assert main(["uc", "--table"]) == 0
    rc = main(["uc", "--demo", "sender", "--script", "honest",
               "--runs", "40", "--n", "6"])
    assert rc == 0
    assert "sender-demo-honest" in capsys.readouterr().out


def test_info_bounds(tmp_path, capsys):
    state_path = tmp_path / "state.json"
    save_state(copy_state(), str(state_path))
    rc = main(["info", "--state", str(state_path), "--budget", "16"])
    assert rc == 0
    assert "accessible-info-bounds" in capsys.readouterr().out


def test_verify_all_subset(tmp_path, capsys):
    out_path = tmp_path / "acc.json"
    rc = main(["verify-all", "--only", "1,5", "--out", str(out_path)])
    assert rc == 0
    report = ExperimentReport.load(str(out_path))
    assert report.suite == "acceptance"
    assert len(report.checks) == 2
    names = {c.name for c in report.checks}
    assert names == {"01-basis-guessing-constant", "05-norm-lemma"}


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
    assert "gamebound" in capsys.readouterr().out
