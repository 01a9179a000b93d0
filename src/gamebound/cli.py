"""Command line entry point.

Every subcommand assembles an ExperimentReport, prints one line per check
to standard output, and optionally writes the full JSON report to --out.
Exit codes: 0 all checks passed, 1 at least one failed, 2 usage or input
error, 3 internal error (an unexpected exception, reported on one line).
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time

from . import accessible, acceptance, bcjl, coding, commitments, games, onecc, ucsim
from .config import DEFAULT_SEARCH_BUDGET
from .errors import CapExceededError, InputError
from .report import CheckRecord, ExperimentReport, timed_record
from .states import load_state


def _int_at_least(lo: int, what: str):
    """An argparse type for integers of at least `lo`; `what` names them in
    the usage error."""
    def integer(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as an invalid value
        if value < lo:
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value
    return integer


# numpy seeds only non-negative integers, and no count is negative; a check
# over no runs, or on an empty register, passes vacuously
nonneg_int = _int_at_least(0, "a non-negative integer")
runs_int = _int_at_least(1, "a positive integer")


def positive_float(text: str) -> float:
    """An argparse type for tolerances: finite floats above zero."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text!r}")
    return value


def _parse_bits(text: str) -> tuple[int, ...]:
    try:
        bits = tuple(int(tok) for tok in text.replace(",", " ").split())
    except ValueError as exc:
        raise InputError(f"expected a bit list like '0,1,0': {text!r}") from exc
    if any(b not in (0, 1) for b in bits):
        raise InputError(f"bits must be 0 or 1: {text!r}")
    return bits


def _unread(flag: str, value, reader: str) -> None:
    """A flag that none of the chosen checks reads is a usage error."""
    if value is not None:
        raise InputError(f"{flag} is read only with {reader}")


def _emit(report: ExperimentReport, out: str | None) -> int:
    for chk in report.checks:
        status = "PASS" if chk.passed else "FAIL"
        print(f"{status} {chk.name} ({chk.runtime_s:.2f}s)")
    print(f"{'PASS' if report.passed else 'FAIL'} suite={report.suite} "
          f"seed={report.seed} checks={len(report.checks)}")
    if out:
        report.save(out)
        print(f"report written to {out}")
    return 0 if report.passed else 1


def _game_record(tag: str, res: games.GameResult, started: float) -> CheckRecord:
    values = {
        "non_adaptive": res.non_adaptive,
        "semi_adaptive": res.semi_adaptive,
        "adaptive": res.adaptive,
        "zero_entropy_a": res.zero_entropy_a,
        "certificate_gap": res.adaptive_cert.gap,
        "bounds": [
            {"name": c.name, "lhs": c.lhs, "rhs": c.rhs, "passed": c.passed,
             "expected_violation": c.expected_violation}
            for c in res.bound_checks
        ],
    }
    return timed_record(tag, res.ok, values, None, None, "solver-certificate", tag, started)


def _cmd_game(args) -> int:
    if (args.state is None) != (args.family is None):
        raise InputError("--state and --family must be given together")
    games_to_run = []
    if args.bell:
        games_to_run.append(("bell", games.bell_game()))
    for k in range(args.random):
        games_to_run.append((f"random-{k}", games.random_game(
            args.dim_a, args.dim_b, args.tests, seed=(args.seed, k))))
    if args.state:
        games_to_run.append(("from-files", games.AttackGame(
            load_state(args.state), games.load_family(args.family))))
    checks = []
    for tag, game in games_to_run:
        started = time.perf_counter()
        res = games.verify_main_theorem(game, tol=args.tol)
        checks.append(_game_record(tag, res, started))
    if not checks:
        raise InputError("nothing to do: pass --bell, --random N, or --state/--family")
    return _emit(ExperimentReport("game", args.seed, checks), args.out)


def _cmd_binding(args) -> int:
    started = time.perf_counter()
    scheme = commitments.load_scheme(args.scheme)
    checks = [timed_record(
        "non-adaptive-epsilon", True, {"epsilon": commitments.scheme_epsilon_na(scheme)},
        None, None, "closed-form", args.scheme, started,
    )]
    if args.state:
        started = time.perf_counter()
        rho = load_state(args.state)
        report = commitments.adaptive_binding(scheme, rho, mode=args.mode,
                                              tol=args.tol)
        checks.append(timed_record(
            "adaptive-binding", True,
            {"p0": report.p0, "p1": report.p1, "epsilon": report.epsilon,
             "mode": report.mode},
            None, None,
            "closed-form" if args.mode == "projective-bruteforce" else "solver-certificate",
            args.state, started,
        ))
    if args.storage_q is not None:
        started = time.perf_counter()
        rows = commitments.storage_reduction_check(
            scheme, q=args.storage_q, trials=args.trials, seed=args.seed
        )
        checks.append(timed_record(
            "storage-reduction", all(row["pass"] for row in rows), {"rows": rows},
            None, None, "closed-form", args.scheme, started,
        ))
    return _emit(ExperimentReport("binding", args.seed, checks), args.out)


def _cmd_onecc(args) -> int:
    if not args.wrong_opening:
        for flag, value in (("--code", args.code), ("--delta", args.delta),
                            ("--samples", args.samples)):
            _unread(flag, value, "--wrong-opening")
    if not args.commit_sim:
        for flag, value in (("--big-n", args.big_n), ("--q", args.q), ("--runs", args.runs)):
            _unread(flag, value, "--commit-sim")
    checks = []
    if args.guessing:
        started = time.perf_counter()
        cert = onecc.single_position_guessing(tol=args.tol)
        checks.append(timed_record(
            "single-position-guessing", cert.gap <= args.tol,
            {"value": cert.primal_value, "gap": cert.gap}, None, None,
            "solver-certificate", "guessing", started,
        ))
    if args.commit_sim:
        started = time.perf_counter()
        big_n = 40 if args.big_n is None else args.big_n
        q = 0.1 if args.q is None else args.q
        runs = args.runs or 200
        sim = onecc.simulate_commit(big_n, q, runs=runs, seed=args.seed)
        # criterion 10's exact test of the size-abort count against its binomial tail
        exact = acceptance.binomial_tail(big_n, q, math.floor(2.0 * q * big_n) + 1, True)
        test = acceptance.binomial_test(sim["aborts_size"], runs, exact, True)
        checks.append(timed_record(
            "commit-simulation", test["pass"], {**sim, "exact_tail": exact, "test": test},
            None, None, "monte-carlo", [big_n, q], started,
        ))
    if args.wrong_opening:
        started = time.perf_counter()
        code_name = args.code or "rep31"
        code = coding.named_code(code_name)
        delta, samples = args.delta or 0.0, args.samples or 10
        worst = 0.0
        all_ok = True
        bound = None
        import numpy as np
        from .rand import rng_from_seed
        rng = rng_from_seed((args.seed, 71))
        for k in range(samples):
            theta = rng.integers(0, 2, size=code.n).astype(np.uint8)
            s = rng.integers(0, 2, size=code.n - code.k).astype(np.uint8)
            state = onecc.sample_smallsup_state(theta, delta, 2, seed=(args.seed, 71, k))
            chk = onecc.wrong_opening_bound_check(state, code, s, tol=args.tol)
            worst = max(worst, chk["worst_value"])
            bound = chk["bound"]
            all_ok = all_ok and chk["pass"]
        checks.append(timed_record(
            "wrong-opening", all_ok, {"worst_value": worst, "samples": samples},
            bound, None if bound is None else bound - worst, "sampled-search",
            [code_name, delta], started,
        ))
    if not checks:
        raise InputError(
            "nothing to do: pass --guessing, --commit-sim, or --wrong-opening"
        )
    return _emit(ExperimentReport("onecc", args.seed, checks), args.out)


def _cmd_bcjl(args) -> int:
    checks = []
    started = time.perf_counter()
    code = coding.named_code(args.code)
    if args.n is not None and args.n != code.n:
        raise InputError(f"--n {args.n} does not match code length {code.n}")
    syndrome = _parse_bits(args.syndrome) if args.syndrome else tuple(
        [0] * (code.n - code.k)
    )
    instance = bcjl.BcjlInstance(
        code=code, delta=args.delta, hash_member=args.hash_member,
        syndrome_bits=syndrome, masked_bit=args.masked_bit,
    )
    result = bcjl.na_binding(instance, budget=args.budget, seed=args.seed)
    if "note" in result:
        checks.append(timed_record(
            "binding", True, result, None, None, "enumeration",
            [args.code, args.delta], started,
        ))
    else:
        checks.append(timed_record(
            "binding", result["pass"] and result["overlap_bound_ok"],
            {k: result[k] for k in
             ("max_sum", "pairs_evaluated", "exhaustive", "overlap_bound_ok")},
            result["bound"], result["bound"] - result["max_sum"], "enumeration",
            [args.code, args.delta, args.hash_member], started,
        ))
    if args.hiding_n is not None:
        started = time.perf_counter()
        hide = bcjl.hiding_distance_exact(args.hiding_n, coding.named_code(args.code))
        checks.append(timed_record(
            "hiding", hide["pass"], hide, None, None, "enumeration", args.hiding_n, started,
        ))
    return _emit(ExperimentReport("bcjl", args.seed, checks), args.out)


def _cmd_uc(args) -> int:
    if not args.demo:
        _unread("--script", args.script, "--demo")
    if not (args.honest_ot or args.demo):
        _unread("--runs", args.runs, "--honest-ot or --demo")
        _unread("--n", args.n, "--honest-ot or --demo")
    script = args.script or "honest"
    runs = args.runs or 200
    n = 8 if args.n is None else args.n
    checks = []
    if args.table:
        started = time.perf_counter()
        checks.append(timed_record(
            "one-cc-table", True, {"table": ucsim.one_cc_table()}, None, None,
            "enumeration", "table", started,
        ))
    if args.honest_ot:
        started = time.perf_counter()
        ot = ucsim.honest_ot_completeness(runs, n, args.seed)
        checks.append(timed_record(
            "honest-ot", ot["completed"] > 0 and ot["correct"] == ot["completed"], ot,
            None, None, "monte-carlo", n, started,
        ))
    if args.demo:
        started = time.perf_counter()
        demo = ucsim.run_simulator_demo(
            args.demo, script=script, runs=runs, n=n, seed=args.seed,
        )
        checks.append(timed_record(
            f"{args.demo}-demo-{script}", demo["pass"], demo, None, None,
            "monte-carlo", [args.demo, script], started,
        ))
    if not checks:
        raise InputError("nothing to do: pass --table, --honest-ot, or --demo")
    return _emit(ExperimentReport("uc", args.seed, checks), args.out)


def _cmd_info(args) -> int:
    started = time.perf_counter()
    rho = load_state(args.state)
    est = accessible.imax_acc_bounds(rho, budget=args.budget, seed=args.seed)
    h0 = accessible.zero_entropy(rho, "A")
    checks = [timed_record(
        "accessible-info-bounds", est.lower <= est.upper + args.tol,
        {"lower": est.lower, "upper": est.upper, "searched": est.searched,
         "zero_entropy_a": h0},
        h0, h0 - est.lower, "sampled-search", args.state, started,
    )]
    return _emit(ExperimentReport("info", args.seed, checks), args.out)


def _cmd_verify_all(args) -> int:
    only = None
    if args.only:
        only = {int(tok) for tok in args.only.replace(",", " ").split()}
    report = acceptance.run_all(seed=args.seed, only=only)
    return _emit(report, args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gamebound",
        description="Adaptive-versus-non-adaptive game bounds and the "
                    "commitment analyses built on them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=nonneg_int, default=0)
        p.add_argument("--out", type=str, default=None,
                       help="write the full JSON report here")

    def tol(p):
        p.add_argument("--tol", type=positive_float, default=1e-7)

    def budget(p, text):
        p.add_argument("--budget", type=runs_int, default=None, help=text)

    p = sub.add_parser("game", help="attack game values and bound checks")
    common(p)
    tol(p)
    p.add_argument("--bell", action="store_true")
    p.add_argument("--random", type=nonneg_int, default=0, metavar="N")
    p.add_argument("--dim-a", type=runs_int, default=2)
    p.add_argument("--dim-b", type=runs_int, default=2)
    p.add_argument("--tests", type=runs_int, default=2)
    p.add_argument("--state", type=str, default=None, help="joint state JSON")
    p.add_argument("--family", type=str, default=None, help="test family JSON")
    p.set_defaults(func=_cmd_game)

    p = sub.add_parser("binding", help="commitment binding analyses")
    common(p)
    tol(p)
    p.add_argument("--scheme", type=str, required=True, help="scheme JSON")
    p.add_argument("--state", type=str, default=None, help="attack state JSON")
    p.add_argument("--mode", type=str, default="povm-relaxation",
                   choices=("povm-relaxation", "projective-bruteforce"))
    p.add_argument("--storage-q", type=nonneg_int, default=None, metavar="Q")
    p.add_argument("--trials", type=runs_int, default=3)
    p.set_defaults(func=_cmd_binding)

    p = sub.add_parser("onecc", help="commit-from-choice protocol checks")
    common(p)
    tol(p)
    p.add_argument("--guessing", action="store_true")
    p.add_argument("--commit-sim", action="store_true")
    p.add_argument("--big-n", type=int, default=None, help="qubits (default 40)")
    p.add_argument("--q", type=float, default=None, help="check probability (default 0.1)")
    p.add_argument("--runs", type=runs_int, default=None, help="runs (default 200)")
    p.add_argument("--wrong-opening", action="store_true")
    p.add_argument("--code", type=str, default=None, help="code name (default rep31)")
    p.add_argument("--delta", type=float, default=None, help="ball radius (default 0)")
    p.add_argument("--samples", type=runs_int, default=None, help="samples (default 10)")
    p.set_defaults(func=_cmd_onecc)

    p = sub.add_parser("bcjl", help="ball-verifier commitment checks")
    common(p)
    budget(p, "sampled opening pairs (default: exhaustive)")
    p.add_argument("--code", type=str, default="rep31")
    p.add_argument("--n", type=runs_int, default=None)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--hash-member", type=int, default=1)
    p.add_argument("--syndrome", type=str, default=None, help="bits like 0,1,0")
    p.add_argument("--masked-bit", type=int, default=0)
    p.add_argument("--hiding-n", type=runs_int, default=None)
    p.set_defaults(func=_cmd_bcjl)

    p = sub.add_parser("uc", help="composable protocol demos")
    common(p)
    p.add_argument("--table", action="store_true")
    p.add_argument("--honest-ot", action="store_true")
    p.add_argument("--demo", type=str, choices=("sender", "receiver"), default=None)
    p.add_argument("--script", type=str, default=None, help="adversary script (default honest)")
    p.add_argument("--runs", type=runs_int, default=None, help="runs (default 200)")
    p.add_argument("--n", type=int, default=None, help="positions (default 8)")
    p.set_defaults(func=_cmd_uc)

    p = sub.add_parser("info", help="accessible-information bounds")
    common(p)
    tol(p)
    budget(p, f"searched measurements (default {DEFAULT_SEARCH_BUDGET})")
    p.add_argument("--state", type=str, required=True, help="joint state JSON")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("verify-all", help="run the full acceptance suite")
    common(p)
    p.add_argument("--only", type=str, default=None,
                   help="criterion numbers like 1,2,5")
    p.set_defaults(func=_cmd_verify_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (InputError, CapExceededError, FileNotFoundError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a crash must not read as a failed check (exit 1)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
