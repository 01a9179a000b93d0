"""Exit codes, report files, and argument plumbing for the console entry."""
import copy
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gamebound
from gamebound.cli import main
from gamebound.commitments import ProjectiveCommitmentScheme, save_scheme
from gamebound.errors import InputError
from gamebound.games import bell_game, random_game, save_family
from gamebound.registers import shape
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
    text = out_path.read_text()
    report = json.loads(text)
    assert report["suite"] == "game"
    assert [c["name"] for c in report["checks"]] == ["random-0", "random-1", "random-2"]
    assert report["passed"]
    # the saved file is exactly the serialized report
    assert json.dumps(report, sort_keys=True, indent=2) + "\n" == text


def test_game_records_solve_time(tmp_path, monkeypatch, capsys):
    from gamebound import games

    solve = games.verify_main_theorem

    def slow_solve(*args, **kwargs):
        time.sleep(0.05)
        return solve(*args, **kwargs)

    monkeypatch.setattr(games, "verify_main_theorem", slow_solve)
    out_path = tmp_path / "game.json"
    assert main(["game", "--random", "1", "--out", str(out_path)]) == 0
    (chk,) = json.loads(out_path.read_text())["checks"]
    assert chk["runtime_s"] >= 0.05


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


def set_entry(path, keys, value):
    """Set the entry at the key path `keys` in the JSON file at `path`."""
    data = json.loads(path.read_text())
    target = data
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    path.write_text(json.dumps(data))


def bell_files(tmp_path):
    game = bell_game()
    state_path = tmp_path / "state.json"
    family_path = tmp_path / "family.json"
    save_state(game.state, str(state_path))
    save_family(game.family, str(family_path))
    return state_path, family_path


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_state_is_input_error(tmp_path, capsys, value):
    state_path, family_path = bell_files(tmp_path)
    set_entry(state_path, ("re", 0, 0), value)
    assert main(["game", "--state", str(state_path), "--family", str(family_path)]) == 2
    info_path = tmp_path / "info.json"
    save_state(copy_state(), str(info_path))
    set_entry(info_path, ("re", 0, 0), value)
    assert main(["info", "--state", str(info_path), "--budget", "16"]) == 2
    assert capsys.readouterr().err.count("non-finite") == 2
    save_state(copy_state(), str(info_path))
    set_entry(info_path, ("shape", 0, 1), value)
    assert main(["info", "--state", str(info_path)]) == 2


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_family_is_input_error(tmp_path, capsys, value):
    state_path, family_path = bell_files(tmp_path)
    set_entry(family_path, ("effects", 0, "re", 1, 1), value)
    assert main(["game", "--state", str(state_path), "--family", str(family_path)]) == 2


def test_family_entry_near_the_float_limit_is_input_error(tmp_path, capsys):
    """A finite effect entry of 1e308 overflowed the family's PSD gate, and
    `game` exited 3 with LinAlgError; 0 <= E <= I bounds every entry by 1, so
    it is bad input. The weighted fuzz below does not reach this file within
    its examples."""
    state_path, family_path = bell_files(tmp_path)
    set_entry(family_path, ("effects", 0, "re", 1, 1), 1e308)
    assert main(["game", "--state", str(state_path), "--family", str(family_path)]) == 2
    assert "effect 'z=0' exceeds the identity or is not PSD" in capsys.readouterr().err


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_scheme_is_input_error(tmp_path, capsys, value):
    scheme_path = tmp_path / "scheme.json"
    save_scheme(basis_reveal_scheme(), str(scheme_path))
    set_entry(scheme_path, ("openings", "0", 0, "re", 1, 1), value)
    assert main(["binding", "--scheme", str(scheme_path)]) == 2


@pytest.mark.parametrize("keys, value", [
    (("re", 0, 0), "0.5"),
    (("re", 3, 3), " 0.5 "),
    (("im", 0, 1), False),
    (("im", 1, 0), None),
    (("re", 0, 0), 10**400),
], ids=["string", "padded-string", "boolean", "null", "huge-int"])
def test_non_number_state_entry_is_input_error(tmp_path, capsys, keys, value):
    """JSON strings, booleans and null are not numbers, even where numpy
    would convert them; an integer too large for a float is no number either."""
    save_state(copy_state(), str(tmp_path / "state.json"))
    set_entry(tmp_path / "state.json", keys, value)
    assert main(["info", "--state", str(tmp_path / "state.json")]) == 2
    assert "state file" in capsys.readouterr().err


@pytest.mark.parametrize("value", [2.5, True, "2"], ids=["fraction", "boolean", "string"])
def test_non_integer_state_dimension_is_malformed(tmp_path, capsys, value):
    """A register dimension must be a JSON integer: 2.5 is not read as 2, nor
    true as 1, nor "2" as 2."""
    state_path = tmp_path / "state.json"
    save_state(copy_state(), str(state_path))
    set_entry(state_path, ("shape", 0, 1), value)
    assert main(["info", "--state", str(state_path)]) == 2
    captured = capsys.readouterr()
    assert "malformed state file" in captured.err
    assert "PASS" not in captured.out


@pytest.mark.parametrize("kind, keys, value", [
    ("state", ("shape", 0, 0), [1, 2]),
    ("family", ("labels", 0), None),
    ("scheme", ("openings", "1", 0, "label"), True),
], ids=["state", "family", "scheme"])
def test_label_that_is_not_a_json_string_is_malformed(kind, keys, value, tmp_path, capsys):
    """Register, test and opening labels are JSON strings: [1, 2], null or true
    would run as the labels "[1, 2]", "None" or "True"."""
    state_path, family_path = bell_files(tmp_path)
    files = {"state": state_path, "family": family_path, "scheme": Path(_scheme_file(tmp_path))}
    set_entry(files[kind], keys, value)
    argv = (["binding", "--scheme", str(files["scheme"])] if kind == "scheme"
            else ["game", "--state", str(state_path), "--family", str(family_path)])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"malformed {kind} file: label {value!r} is not a JSON string" in captured.err
    assert "PASS" not in captured.out


@pytest.mark.parametrize("argv", [
    ["info", "--state", "STATE"],
    ["binding", "--scheme", "SCHEME", "--state", "STATE"],
])
def test_state_entry_above_one_is_input_error(argv, tmp_path, capsys):
    """A finite entry near the float limit would overflow the density-matrix
    gates (exit 3); every density matrix has |rho_ij| <= 1, so it is bad input."""
    state_path = tmp_path / "state.json"
    save_state(copy_state(), str(state_path))
    set_entry(state_path, ("re", 1, 1), 1e308)
    files = {"SCHEME": _scheme_file(tmp_path), "STATE": str(state_path)}
    assert main([files.get(a, a) for a in argv]) == 2
    assert "exceeds 1" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kind, keys", [
    ("state", ("re", 0, 3)),
    ("state", ("re", 1, 1)),
    ("family", ("effects", 0, "re", 0, 1)),
    ("family", ("effects", 0, "re", 1, 1)),
    ("scheme", ("openings", "0", 0, "re", 0, 1)),
    ("scheme", ("openings", "0", 0, "re", 1, 1)),
], ids=["state-off-diagonal", "state-diagonal", "family-off-diagonal", "family-diagonal",
        "scheme-off-diagonal", "scheme-diagonal"])
def test_entry_near_the_float_limit_is_refused_without_a_warning(kind, keys, tmp_path, capsys):
    """Densities, effects and projectors lie between 0 and I, so no entry exceeds 1 in
    magnitude, and each file's gate refuses a larger one before any arithmetic on it. With
    RuntimeWarning an error, an entry of 1e308 still exits 2: in a scheme it overflowed
    herm_defect's M - M^H off the diagonal, and the idempotency check's V V on it."""
    state_path, family_path = bell_files(tmp_path)
    files = {"state": state_path, "family": family_path, "scheme": Path(_scheme_file(tmp_path))}
    set_entry(files[kind], keys, 1e308)
    argv = {"state": ["info", "--state", str(state_path)],
            "family": ["game", "--state", str(state_path), "--family", str(family_path)],
            "scheme": ["binding", "--scheme", str(files["scheme"])]}[kind]
    assert main(argv) == 2
    assert "magnitude" in capsys.readouterr().err


def test_info_on_one_dimensional_measured_register_passes(tmp_path, capsys):
    """Every measurement of a one-dimensional register gives lambda = 0 = H0."""
    state_path, out_path = tmp_path / "state.json", tmp_path / "info.json"
    save_state(density_from_matrix(shape(("A", 1), ("B", 2)), np.diag([1.0, 0.0])),
               str(state_path))
    assert main(["info", "--state", str(state_path), "--out", str(out_path)]) == 0
    assert "PASS accessible-info-bounds" in capsys.readouterr().out
    (record,) = json.loads(out_path.read_text())["checks"]
    assert record["values"]["upper"] == 0.0
    assert abs(record["values"]["lower"]) < 1e-12


@pytest.mark.parametrize("argv", [
    ["info", "--state", "STATE", "--budget", "4"],
    ["verify-all", "--only", "4"],
])
def test_lower_bound_above_upper_bound_is_failed_check(argv, tmp_path, monkeypatch, capsys):
    """A certified lower bound above the rank upper bound is a failed check
    (exit 1 with a FAIL line), not bad input."""
    from gamebound import accessible

    state_path = tmp_path / "state.json"
    save_state(copy_state(), str(state_path))
    monkeypatch.setattr(accessible, "zero_entropy", lambda rho, label: -1.0)
    assert main([str(state_path) if a == "STATE" else a for a in argv]) == 1
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert "error" not in captured.err


@pytest.mark.parametrize("content", [
    b'{"shape": [["A", 2]], "x": "\xff"}',
    b'{"shape": [["A", ' + b"1" * 5000 + b"]]}",
    b"[" * 100000 + b"]" * 100000,
], ids=["bad-utf8", "5000-digit-integer", "deep-nesting"])
def test_undecodable_state_file_is_input_error(content, tmp_path, capsys):
    """Bytes json cannot decode, an integer past Python's 4300-digit
    conversion limit and nesting past the recursion limit are bad JSON (exit
    2), not a crash."""
    state_path = tmp_path / "state.json"
    state_path.write_bytes(content)
    assert main(["info", "--state", str(state_path)]) == 2
    assert "state file is not valid JSON" in capsys.readouterr().err


def test_directory_as_input_file_is_input_error(tmp_path, capsys):
    """A path the OS cannot read as a file is bad input (exit 2), as a missing one is."""
    assert main(["info", "--state", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_mismatched_im_shape_is_input_error(tmp_path, capsys):
    """A 1-row im block must not broadcast over a square re block."""
    state_path, family_path = bell_files(tmp_path)
    set_entry(family_path, ("effects", 0, "im"), [[0.0] * 4])
    assert main(["game", "--state", str(state_path), "--family", str(family_path)]) == 2
    scheme_path = tmp_path / "scheme.json"
    save_scheme(basis_reveal_scheme(), str(scheme_path))
    set_entry(scheme_path, ("openings", "0", 0, "im"), [[0.0, 0.0]])
    assert main(["binding", "--scheme", str(scheme_path)]) == 2
    assert capsys.readouterr().err.count("different shapes") == 2


def test_binding_times_each_check_from_its_own_start(tmp_path, monkeypatch, capsys):
    from gamebound import commitments

    exact = commitments.adaptive_binding
    calls = []

    def slow_first_call(*args, **kwargs):
        # Only the adaptive-binding check sleeps; the storage-reduction
        # check calls the same function and must not.
        if not calls:
            time.sleep(0.3)
        calls.append(1)
        return exact(*args, **kwargs)

    monkeypatch.setattr(commitments, "adaptive_binding", slow_first_call)
    scheme_path = tmp_path / "scheme.json"
    save_scheme(basis_reveal_scheme(), str(scheme_path))
    state_path = tmp_path / "attack.json"
    save_state(copy_state(), str(state_path))
    out_path = tmp_path / "binding.json"
    rc = main([
        "binding", "--scheme", str(scheme_path), "--state", str(state_path),
        "--storage-q", "1", "--trials", "1", "--out", str(out_path),
    ])
    assert rc == 0
    runtimes = {c["name"]: c["runtime_s"] for c in json.loads(out_path.read_text())["checks"]}
    assert runtimes["adaptive-binding"] >= 0.3
    assert runtimes["storage-reduction"] < 0.3


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
    (chk,) = json.loads(out_path.read_text())["checks"]
    assert chk["name"] == "binding"
    assert chk["values"]["exhaustive"]
    assert chk["slack"] == pytest.approx(0.0, abs=1e-9)


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
    report = json.loads(out_path.read_text())
    assert report["suite"] == "acceptance"
    assert len(report["checks"]) == 2
    names = {c["name"] for c in report["checks"]}
    assert names == {"01-basis-guessing-constant", "05-norm-lemma"}


@pytest.mark.parametrize("only", ["abc", "13", "0", ","])
def test_only_without_criterion_numbers_is_usage_error(only, capsys):
    """--only takes criterion numbers 1-12, at least one: a word would crash
    (exit 3) and a list naming no criterion would pass over zero checks."""
    assert main(["verify-all", "--only", only]) == 2
    captured = capsys.readouterr()
    assert "criterion numbers 1-12" in captured.err
    assert "PASS" not in captured.out


@pytest.mark.parametrize("registers, upper", [
    ((("X", 2), ("Y", 2)), 1.0),
    ((("X", 4), ("A", 2)), 2.0),
], ids=["no-A-register", "A-second"])
def test_info_bounds_by_the_measured_first_register(registers, upper, tmp_path, capsys):
    """info measures the first register, so its bound is that register's H0,
    whatever the registers are called."""
    dim = registers[0][1] * registers[1][1]
    state_path, out_path = tmp_path / "state.json", tmp_path / "info.json"
    save_state(density_from_matrix(shape(*registers), np.eye(dim) / dim), str(state_path))
    assert main(["info", "--state", str(state_path), "--budget", "8",
                 "--out", str(out_path)]) == 0
    (record,) = json.loads(out_path.read_text())["checks"]
    assert sorted(record["values"]) == ["lower", "searched", "upper"]
    assert record["values"]["upper"] == record["bound"] == upper
    assert record["slack"] == upper - record["values"]["lower"]


def test_negative_seed_is_usage_error(capsys):
    """numpy seeds only non-negative integers: the parser rejects the rest
    (exit 2) before any criterion runs, instead of a crash (exit 3)."""
    for bad in ("-1", "-7"):
        assert main(["verify-all", "--seed", bad, "--only", "4"]) == 2
        assert "non-negative integer" in capsys.readouterr().err
    for bad in ("1.5", "seven"):
        assert main(["verify-all", "--seed", bad, "--only", "4"]) == 2
        assert "argument --seed: invalid" in capsys.readouterr().err
    assert main(["uc", "--seed", "-2", "--runs", "4"]) == 2


@pytest.mark.parametrize("argv", [
    ["uc", "--demo", "sender"],
    ["uc", "--demo", "receiver"],
    ["uc", "--honest-ot"],
    ["onecc", "--commit-sim"],
])
@pytest.mark.parametrize("runs", ["0", "-5"])
def test_non_positive_run_count_is_usage_error(argv, runs, capsys):
    """Zero runs would pass a Monte-Carlo check vacuously: the parser rejects
    them (exit 2) instead of printing PASS."""
    assert main(argv + ["--runs", runs]) == 2
    captured = capsys.readouterr()
    assert "positive integer" in captured.err
    assert "PASS" not in captured.out


def test_game_record_lists_each_bound_check(tmp_path):
    out_path = tmp_path / "game.json"
    assert main(["game", "--bell", "--out", str(out_path)]) == 0
    (chk,) = json.loads(out_path.read_text())["checks"]
    assert [set(b) for b in chk["values"]["bounds"]] == [
        {"name", "lhs", "rhs", "passed", "expected_violation"}] * 2


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_module_entry_point_runs_the_cli():
    src = str(Path(gamebound.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-m", "gamebound", "verify-all", "--seed", "-1"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 2
    assert "usage: gamebound verify-all" in done.stderr


def test_importing_the_cli_does_not_load_numpy_random():
    """numpy.random costs start-up time; it loads only when a run draws."""
    src = str(Path(gamebound.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = "import sys, gamebound.cli; print('numpy.random' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
    assert "gamebound" in capsys.readouterr().out


def test_three_dimensional_block_is_input_error(tmp_path, capsys):
    """A matrix block is 2-d: the validators also take (n, d, d) stacks, so
    a stacked block in a file must stop at the file boundary."""
    state_path, family_path = bell_files(tmp_path)
    for part in ("re", "im"):
        set_entry(family_path, ("effects", 0, part), [np.eye(4).tolist()] * 4)
    assert main(["game", "--state", str(state_path), "--family", str(family_path)]) == 2
    scheme_path = tmp_path / "scheme.json"
    save_scheme(basis_reveal_scheme(), str(scheme_path))
    set_entry(scheme_path, ("openings", "0", 0, "re"), [np.eye(2).tolist()] * 2)
    set_entry(scheme_path, ("openings", "0", 0, "im"), [np.zeros((2, 2)).tolist()] * 2)
    assert main(["binding", "--scheme", str(scheme_path)]) == 2
    assert capsys.readouterr().err.count("must be 2-d") == 2


def _scheme_file(tmp_path):
    scheme_path = tmp_path / "scheme.json"
    save_scheme(basis_reveal_scheme(), str(scheme_path))
    return str(scheme_path)


BCJL_HAMMING74 = ["bcjl", "--code", "hamming74", "--delta", "1/7", "--hash-member", "5",
                  "--syndrome", "0,1,0", "--masked-bit", "1"]


def test_bcjl_fraction_delta_is_criterion_08_instance(tmp_path, capsys):
    """--delta 1/7 gives criterion 08's [7,4] instance, radius-1 balls searched
    exhaustively; 0.142857 would give radius floor(0.142857 * 7) = 0."""
    out_path = tmp_path / "bcjl.json"
    assert main(BCJL_HAMMING74 + ["--out", str(out_path)]) == 0
    (chk,) = json.loads(out_path.read_text())["checks"]
    assert chk["values"]["max_sum"] == 1.9659258262890682
    assert chk["bound"] == 13.481413749543734
    assert chk["values"]["pairs_evaluated"] == 1_048_576
    assert chk["values"]["exhaustive"]


@pytest.mark.parametrize("argv", [
    ["bcjl", "--delta", "1/0"],
    ["bcjl", "--delta", "nan"],
    ["onecc", "--wrong-opening", "--delta", "nan"],
    ["onecc", "--wrong-opening", "--delta", "inf"],
    ["onecc", "--wrong-opening", "--delta", "1e400"],
])
def test_delta_that_is_not_a_finite_fraction_is_usage_error(argv, capsys):
    """A zero denominator, NaN, infinity or a value past the float range is a
    usage error (exit 2), not a traceback."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "expected a finite fraction" in captured.err
    assert "PASS" not in captured.out


@pytest.mark.parametrize("argv", [
    ["bcjl", "--delta", "-1/7"],
    ["onecc", "--wrong-opening", "--delta", "-1/7"],
])
def test_negative_fraction_delta_reaches_the_range_check(argv, capsys):
    """argparse takes -1/7 for an option, as it is no plain negative number; the
    CLI gives it to --delta, whose range check refuses it (exit 2)."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "delta must be in [0, 1/2]" in captured.err
    assert "expected one argument" not in captured.err


@pytest.mark.parametrize("argv", [
    ["onecc", "--wrong-opening", "--samples", "0"],
    ["onecc", "--wrong-opening", "--samples", "-4"],
    ["binding", "--scheme", "SCHEME", "--storage-q", "1", "--trials", "0"],
    ["binding", "--scheme", "SCHEME", "--storage-q", "1", "--trials", "-2"],
    BCJL_HAMMING74 + ["--budget", "0"],
    BCJL_HAMMING74 + ["--budget", "-3"],
])
def test_non_positive_count_is_usage_error(argv, tmp_path, capsys):
    """Zero or negative samples, trials or pairs would pass vacuously: the
    parser rejects them (exit 2) instead of printing PASS."""
    argv = [_scheme_file(tmp_path) if a == "SCHEME" else a for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "positive integer" in captured.err
    assert "PASS" not in captured.out


@pytest.mark.parametrize("argv", [
    ["game", "--bell", "--random", "-3"],
    ["game", "--random", "1", "--dim-a", "-2"],
    ["game", "--random", "1", "--dim-b", "-2"],
    ["bcjl", "--hiding-n", "0"],
    ["bcjl", "--n", "0"],
])
def test_out_of_range_count_or_dimension_is_usage_error(argv, capsys):
    """A negative game count would run no games, a zero code length would
    skip its check and a negative dimension would crash: the parser rejects
    them (exit 2) instead."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "integer" in captured.err
    assert "PASS" not in captured.out


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
@pytest.mark.parametrize("argv", [
    ["game", "--bell"],
    ["onecc", "--guessing"],
    ["binding", "--scheme", "SCHEME"],
])
def test_non_positive_or_non_finite_tolerance_is_usage_error(argv, tol, tmp_path, capsys):
    """A negative, NaN or infinite tolerance would read as a PASS or a FAIL:
    the parser rejects it (exit 2) instead."""
    files = {"SCHEME": _scheme_file(tmp_path)}
    assert main([files.get(a, a) for a in argv] + ["--tol", tol]) == 2
    captured = capsys.readouterr()
    assert "positive finite number" in captured.err
    assert "PASS" not in captured.out


@pytest.mark.parametrize("argv", [
    ["onecc", "--guessing"],
    ["binding", "--scheme", "SCHEME", "--state", "STATE"],
])
def test_solver_tolerance_below_rounding_floor_is_usage_error(argv, tmp_path, monkeypatch,
                                                              capsys):
    """Below 1e-10, whether a solve reaches --tol is rounding luck: the parser refuses such a
    tolerance (exit 2) with a message naming the floor, before the valid scheme and state
    files are read or any solve runs; 1e-10 itself is accepted."""
    from gamebound import commitments, onecc

    state_path = tmp_path / "state.json"
    save_state(copy_state(), str(state_path))
    files = {"SCHEME": _scheme_file(tmp_path), "STATE": str(state_path)}
    argv = [files.get(a, a) for a in argv]
    calls = []
    for module, name in ((commitments, "load_scheme"), (onecc, "single_position_guessing")):
        monkeypatch.setattr(module, name, lambda *a, _f=getattr(module, name), **k:
                            calls.append(1) or _f(*a, **k))
    assert main(argv + ["--tol", "1e-12"]) == 2
    captured = capsys.readouterr()
    assert "at least 1e-10, the solver's rounding floor" in captured.err
    assert "PASS" not in captured.out and not calls
    assert main(argv + ["--tol", "1e-10"]) == 0
    assert calls


@pytest.mark.parametrize("argv, message", [
    (["--storage-q", "-1"], "non-negative integer"),
    (["--storage-q", "70"], "exceeds cap"),
    (["--mode", "bogus"], "invalid choice"),
])
def test_binding_out_of_range_option_is_usage_error(argv, message, tmp_path, capsys):
    """A negative stored register, one past the dimension cap (rejected
    before any state is drawn) or an unknown mode is a usage error (exit 2)."""
    assert main(["binding", "--scheme", _scheme_file(tmp_path)] + argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "PASS" not in captured.out


def test_library_rejects_non_positive_counts():
    from gamebound import bcjl, coding, commitments

    instance = bcjl.BcjlInstance(code=coding.named_code("hamming74"), delta=1.0 / 7.0,
                                 hash_member=5, syndrome_bits=(0, 1, 0), masked_bit=1)
    for budget in (0, -3):
        with pytest.raises(InputError):
            bcjl.na_binding(instance, budget=budget)
    for trials in (0, -2):
        with pytest.raises(InputError):
            commitments.storage_reduction_check(basis_reveal_scheme(), q=1, trials=trials)


@pytest.mark.parametrize("argv", [
    ["game", "--bell", "--budget", "3"],
    ["binding", "--scheme", "SCHEME", "--budget", "3"],
    ["onecc", "--guessing", "--budget", "3"],
    ["info", "--state", "state.json", "--tol", "1e-7"],
    ["bcjl", "--tol", "1"],
    ["uc", "--table", "--tol", "1"],
    ["uc", "--table", "--budget", "5"],
    ["verify-all", "--only", "1", "--tol", "5"],
    ["verify-all", "--only", "1", "--budget", "3"],
])
def test_flag_a_subcommand_does_not_read_is_usage_error(argv, tmp_path, capsys):
    argv = [_scheme_file(tmp_path) if a == "SCHEME" else a for a in argv]
    assert main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["uc", "--table", "--script", "bogus"], "--script is read only with --demo"),
    (["uc", "--honest-ot", "--runs", "4", "--script", "fixed-state"],
     "--script is read only with --demo"),
    (["uc", "--table", "--runs", "3"], "--runs is read only with --honest-ot or --demo"),
    (["uc", "--table", "--n", "5"], "--n is read only with --honest-ot or --demo"),
    (["onecc", "--guessing", "--code", "bogus"], "--code is read only with --wrong-opening"),
    (["onecc", "--guessing", "--samples", "5"], "--samples is read only with --wrong-opening"),
    (["onecc", "--commit-sim", "--delta", "0.5"], "--delta is read only with --wrong-opening"),
    (["onecc", "--guessing", "--big-n", "7", "--q", "0.3", "--runs", "5"],
     "--big-n is read only with --commit-sim"),
    (["onecc", "--guessing", "--q", "0.3"], "--q is read only with --commit-sim"),
    (["onecc", "--wrong-opening", "--runs", "5"], "--runs is read only with --commit-sim"),
])
def test_flag_the_chosen_checks_do_not_read_is_usage_error(argv, message, capsys):
    """A flag that the subcommand takes but none of the chosen checks reads
    is a usage error (exit 2), not a PASS that ignored it."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "PASS" not in captured.out


def test_onecc_flags_read_by_their_checks_still_run(capsys):
    # the same flags are taken when the check that reads them runs
    assert main(["onecc", "--commit-sim", "--big-n", "7", "--q", "0.3", "--runs", "5"]) == 0
    assert main(["onecc", "--wrong-opening", "--samples", "2", "--delta", "0.1"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_commit_sim_fails_when_its_size_aborts_leave_the_exact_tail(monkeypatch, tmp_path, capsys):
    """The commit simulation's size-abort count is judged by an exact binomial
    test against its tail: every run aborted fails the check (exit 1)."""
    from gamebound import onecc

    def all_aborted(big_n, q, runs, seed):
        return {"runs": runs, "aborts_size": runs, "size_counts": [0] * big_n + [runs],
                "size_abort_bound": 1.0}

    monkeypatch.setattr(onecc, "simulate_commit", all_aborted)
    out = tmp_path / "report.json"
    assert main(["onecc", "--commit-sim", "--runs", "200", "--out", str(out)]) == 1
    assert "FAIL" in capsys.readouterr().out
    test = json.loads(out.read_text())["checks"][0]["values"]["test"]
    assert test["sides"] == 2 and not test["pass"]


@pytest.mark.parametrize("q", ["0", "1"])
def test_commit_sim_at_certain_check_coins_passes(q, capsys):
    """At q = 0 no position is checked and at q = 1 every one is, so no run
    size-aborts and the exact tail is 0: the count matches it."""
    assert main(["onecc", "--commit-sim", "--q", q, "--big-n", "7", "--runs", "50"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_commit_sim_above_the_n_cap_is_input_error(monkeypatch, capsys):
    """N or a run count one past its cap is an input error (exit 2), raised
    before any draw: the simulation's tally and the criterion's binomial
    tails grow with N, and its exact test with the run count."""
    from gamebound import onecc

    def no_draw(seed):
        raise AssertionError("drew past the cap")

    monkeypatch.setattr(onecc, "rng_from_seed", no_draw)
    for flags, message in (
            (["--big-n", str(onecc.COMMIT_SIM_MAX_N + 1), "--runs", "5"],
             f"N must be in 1..{onecc.COMMIT_SIM_MAX_N}"),
            (["--runs", str(onecc.COMMIT_SIM_MAX_RUNS + 1)],
             f"runs must be in 1..{onecc.COMMIT_SIM_MAX_RUNS}")):
        assert main(["onecc", "--commit-sim", *flags]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "PASS" not in captured.out


def test_state_without_family_is_usage_error(tmp_path, capsys):
    state_path, family_path = bell_files(tmp_path)
    assert main(["game", "--bell", "--state", str(state_path)]) == 2
    assert main(["game", "--bell", "--family", str(family_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("--state and --family must be given together") == 2


# The JSON atoms the file fuzz puts in place of a node, and the runs it makes:
# each names the valid files (keys of valid_files) that it reads.
FUZZ_ATOMS = (True, None, 2.5, "1", 1e308, 10**20, [], [[1]])
FUZZ_RUNS = (
    ("info", "--state", "ab", "--budget", "4"),
    ("info", "--state", "a1b", "--budget", "4"),
    ("game", "--state", "game", "--family", "family"),
    ("binding", "--scheme", "scheme", "--state", "ab"),
    ("binding", "--scheme", "scheme", "--state", "a1b"),
)


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """The parsed contents of valid state, family and scheme files, and a folder
    to write their mutants to."""
    folder = tmp_path_factory.mktemp("fuzz")
    game = random_game(2, 2, 2, seed=3)
    writes = {
        "ab": (save_state, copy_state()),
        "a1b": (save_state, density_from_matrix(shape(("A", 1), ("B", 2)), np.diag([1.0, 0.0]))),
        "game": (save_state, game.state),
        "family": (save_family, game.family),
        "scheme": (save_scheme, basis_reveal_scheme()),
    }
    for name, (save, obj) in writes.items():
        save(obj, str(folder / name))
    return folder, {name: json.loads((folder / name).read_text()) for name in writes}


def _node_paths(node, path=()):
    """The key path of each node strictly below `node`."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield path + (key,)
        yield from _node_paths(child, path + (key,))


def _at(node, keys):
    for key in keys:
        node = node[key]
    return node


def _mutate(data, node) -> None:
    """Replace one node below `node` by a JSON atom, delete it or, in a list,
    duplicate it."""
    *keys, key = data.draw(st.sampled_from(list(_node_paths(node))))
    parent = _at(node, keys)
    ops = ("replace", "delete") + (("duplicate",) if isinstance(parent, list) else ())
    op = data.draw(st.sampled_from(ops))
    if op == "replace":
        parent[key] = copy.deepcopy(data.draw(st.sampled_from(FUZZ_ATOMS)))
    elif op == "delete":
        del parent[key]
    else:
        parent.insert(key, copy.deepcopy(parent[key]))


def _value_fault(data, node, diagonal: bool) -> None:
    """Put a number of FUZZ_ATOMS in one numeric leaf below `node`, or in one real
    diagonal entry of a matrix block."""
    leaves = [p for p in _node_paths(node) if type(_at(node, p)) in (int, float)]
    if diagonal:
        leaves = [p for p in leaves if len(p) > 2 and p[-3] == "re" and p[-2] == p[-1]]
    *keys, key = data.draw(st.sampled_from(leaves))
    _at(node, keys)[key] = data.draw(st.sampled_from([a for a in FUZZ_ATOMS if type(a) in (int, float)]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_input_files_never_reach_internal_error(valid_files, data):
    """Valid state, family and scheme files with nodes replaced by JSON atoms,
    deleted or duplicated: info, game and binding read them and exit 0, 1 or
    2, never 3 (a crash). Value faults hide in a few leaves among many nodes,
    where a uniform pick rarely lands (the overflowing diagonal entry 1e308 came
    up about once in 1,500 examples), so the examples are split among one number
    put in a numeric leaf, one put in a real diagonal entry, and up to three
    mutations of any node."""
    folder, contents = valid_files
    argv = data.draw(st.sampled_from(FUZZ_RUNS))
    target = data.draw(st.sampled_from([a for a in argv if a in contents]))
    node = copy.deepcopy(contents[target])
    kind = data.draw(st.sampled_from(("diagonal", "numeric", "nodes")))
    if kind != "nodes":
        _value_fault(data, node, kind == "diagonal")
    else:
        for _ in range(data.draw(st.integers(0, 3))):
            if node:
                _mutate(data, node)
    (folder / "mutant").write_text(json.dumps(node))
    assert main([str(folder / ("mutant" if a == target else a)) if a in contents else a
                 for a in argv]) in (0, 1, 2)
