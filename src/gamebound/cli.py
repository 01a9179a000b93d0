"""Command line entry point.

Every subcommand assembles an ExperimentReport, prints one line per check
to standard output, and optionally writes the full JSON report to --out.
Exit codes: 0 all checks passed, 1 at least one failed, 2 usage or input
error, 3 internal error (an unexpected exception, reported on one line).
"""
from __future__ import annotations

import argparse
import json
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


# numpy seeds only non-negative integers; a check over no runs passes vacuously
seed_int = _int_at_least(0, "a non-negative integer")
runs_int = _int_at_least(1, "a positive integer")


def _parse_bits(text: str) -> tuple[int, ...]:
    try:
        bits = tuple(int(tok) for tok in text.replace(",", " ").split())
    except ValueError as exc:
        raise InputError(f"expected a bit list like '0,1,0': {text!r}") from exc
    if any(b not in (0, 1) for b in bits):
        raise InputError(f"bits must be 0 or 1: {text!r}")
    return bits


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
        ok = all(row["pass"] is not False for row in rows)
        checks.append(timed_record(
            "storage-reduction", ok, {"rows": rows}, None, None, "closed-form",
            args.scheme, started,
        ))
    return _emit(ExperimentReport("binding", args.seed, checks), args.out)


def _cmd_onecc(args) -> int:
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
        instance = onecc.OneCcInstance(args.big_n, args.q, coding.named_code(args.code))
        sim = onecc.simulate_commit(instance, args.bit, runs=args.runs, seed=args.seed)
        sim.pop("last_view", None)
        checks.append(timed_record(
            "commit-simulation", sim["aborts_check"] == 0, sim, None, None, "monte-carlo",
            [args.big_n, args.q, args.code], started,
        ))
    if args.wrong_opening:
        started = time.perf_counter()
        code = coding.named_code(args.code)
        worst = 0.0
        all_ok = True
        bound = None
        import numpy as np
        from .rand import rng_from_seed
        rng = rng_from_seed((args.seed, 71))
        for k in range(args.samples):
            theta = rng.integers(0, 2, size=code.n).astype(np.uint8)
            s = rng.integers(0, 2, size=code.n - code.k).astype(np.uint8)
            state = onecc.sample_smallsup_state(theta, args.delta, 2,
                                                seed=(args.seed, 71, k))
            chk = onecc.wrong_opening_bound_check(state, code, s, tol=args.tol)
            worst = max(worst, chk["worst_value"])
            bound = chk["bound"]
            all_ok = all_ok and chk["pass"]
        checks.append(timed_record(
            "wrong-opening", all_ok, {"worst_value": worst, "samples": args.samples},
            bound, None if bound is None else bound - worst, "sampled-search",
            [args.code, args.delta], started,
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
    if args.n and args.n != code.n:
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
    if args.hiding_n:
        started = time.perf_counter()
        hide = bcjl.hiding_distance_exact(args.hiding_n, coding.named_code(args.code))
        checks.append(timed_record(
            "hiding", hide["pass"], hide, None, None, "enumeration", args.hiding_n, started,
        ))
    return _emit(ExperimentReport("bcjl", args.seed, checks), args.out)


def _cmd_uc(args) -> int:
    checks = []
    if args.table:
        started = time.perf_counter()
        checks.append(timed_record(
            "one-cc-table", True, {"table": ucsim.one_cc_table()}, None, None,
            "enumeration", "table", started,
        ))
    if args.honest_ot:
        started = time.perf_counter()
        correct = completed = 0
        for k in range(args.runs):
            c = k % 2
            tr = ucsim.run_ot_protocol((0,), (1,), c, args.n, seed=(args.seed, k))
            if tr.aborted:
                continue
            completed += 1
            correct += tr.outputs["bob"] == (c,)
        checks.append(timed_record(
            "honest-ot", completed > 0 and correct == completed,
            {"runs": args.runs, "completed": completed, "correct": correct}, None, None,
            "monte-carlo", args.n, started,
        ))
    if args.demo:
        started = time.perf_counter()
        demo = ucsim.run_simulator_demo(
            args.demo, script=args.script, runs=args.runs, n=args.n,
            seed=args.seed,
        )
        values = {k: demo[k] for k in demo if k not in ("real", "ideal")}
        checks.append(timed_record(
            f"{args.demo}-demo-{args.script}", demo["pass"], values, None, None,
            "monte-carlo", [args.demo, args.script], started,
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
        p.add_argument("--seed", type=seed_int, default=0)
        p.add_argument("--out", type=str, default=None,
                       help="write the full JSON report here")

    def tol(p):
        p.add_argument("--tol", type=float, default=1e-7)

    def budget(p, text):
        p.add_argument("--budget", type=runs_int, default=None, help=text)

    p = sub.add_parser("game", help="attack game values and bound checks")
    common(p)
    tol(p)
    p.add_argument("--bell", action="store_true")
    p.add_argument("--random", type=int, default=0, metavar="N")
    p.add_argument("--dim-a", type=int, default=2)
    p.add_argument("--dim-b", type=int, default=2)
    p.add_argument("--tests", type=int, default=2)
    p.add_argument("--state", type=str, default=None, help="joint state JSON")
    p.add_argument("--family", type=str, default=None, help="test family JSON")
    p.set_defaults(func=_cmd_game)

    p = sub.add_parser("binding", help="commitment binding analyses")
    common(p)
    tol(p)
    p.add_argument("--scheme", type=str, required=True, help="scheme JSON")
    p.add_argument("--state", type=str, default=None, help="attack state JSON")
    p.add_argument("--mode", type=str, default="povm-relaxation")
    p.add_argument("--storage-q", type=int, default=None, metavar="Q")
    p.add_argument("--trials", type=runs_int, default=3)
    p.set_defaults(func=_cmd_binding)

    p = sub.add_parser("onecc", help="commit-from-choice protocol checks")
    common(p)
    tol(p)
    p.add_argument("--guessing", action="store_true")
    p.add_argument("--commit-sim", action="store_true")
    p.add_argument("--big-n", type=int, default=40)
    p.add_argument("--q", type=float, default=0.1)
    p.add_argument("--bit", type=int, default=0)
    p.add_argument("--runs", type=runs_int, default=200)
    p.add_argument("--wrong-opening", action="store_true")
    p.add_argument("--code", type=str, default="rep31")
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--samples", type=runs_int, default=10)
    p.set_defaults(func=_cmd_onecc)

    p = sub.add_parser("bcjl", help="ball-verifier commitment checks")
    common(p)
    budget(p, "sampled opening pairs (default: exhaustive)")
    p.add_argument("--code", type=str, default="rep31")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--hash-member", type=int, default=1)
    p.add_argument("--syndrome", type=str, default=None, help="bits like 0,1,0")
    p.add_argument("--masked-bit", type=int, default=0)
    p.add_argument("--hiding-n", type=int, default=None)
    p.set_defaults(func=_cmd_bcjl)

    p = sub.add_parser("uc", help="composable protocol demos")
    common(p)
    p.add_argument("--table", action="store_true")
    p.add_argument("--honest-ot", action="store_true")
    p.add_argument("--demo", type=str, choices=("sender", "receiver"), default=None)
    p.add_argument("--script", type=str, default="honest")
    p.add_argument("--runs", type=runs_int, default=200)
    p.add_argument("--n", type=int, default=8)
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
