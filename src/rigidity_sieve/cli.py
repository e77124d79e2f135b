"""Command-line interface.

Four subcommands: `query` (invariant panel and sieve verdict for one
(d, g, r)), `sweep` (one row per (d, g) over a degree range, CSV or
JSON), `verify` (the named verification suite, exit code 1 when
violations are found), and `split` (stable-split certificate for a
divisor class on a ruled surface).

Exit codes: 0 success / nothing to report, 1 violations or failed
preconditions, 2 usage errors or malformed input.  JSON payloads are
byte-stable for fixed inputs except for the elapsed-time metadata field,
which CSV output omits entirely.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import os
import sys
import time

from . import bounds, sieve, surfaces, verify
from .surfaces import DivisorClass

SCHEMA = "rigidity-sieve/1"
MAX_INPUT = 2**63 - 1

def bounded_int(text: str) -> int:
    """Integer argument type accepting magnitudes up to 2^63 - 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if abs(value) > MAX_INPUT:
        raise argparse.ArgumentTypeError(f"magnitude exceeds 2^63 - 1: {text}")
    return value


def positive_int(text: str) -> int:
    """bounded_int restricted to values >= 1."""
    value = bounded_int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1: {text}")
    return value


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _check_ambient_dimension(r: int) -> None:
    """Refuse r < 3, for query and sweep alike."""
    if r < 3:
        raise ValueError(f"ambient dimension must be >= 3, got {r}")


# ---------------------------------------------------------------- query


def build_query_report(d: int, g: int, r: int) -> dict:
    """The full invariant panel for one (d, g, r); keys are present
    exactly when the corresponding quantity is defined.  The verdict is
    a sieve.Verdict; for r >= 4 its witnesses are a sieve.WitnessStream,
    which the writers below consume one witness at a time.  Refuses
    d < 1, then g < 0, then r < 3, before any invariant is read."""
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    if g < 0:
        raise ValueError(f"genus must be >= 0, got {g}")
    _check_ambient_dimension(r)
    invariants = {"rho": bounds.brill_noether(d, g, r), "lambda": bounds.euler_normal(d, g, r)}
    if d >= r:
        invariants["pi"] = bounds.max_genus_pi(d, r)
    if d >= r + 2:
        profile = bounds.castelnuovo_profile(d, r)
        invariants["pi1"] = profile.pi1
        invariants["pi2"] = profile.pi2
    invariants["embed_cap"] = sieve.embed_dim_cap(d, g)
    report = {
        "schema": SCHEMA,
        "command": "query",
        "input": {"d": d, "g": g, "r": r},
        "invariants": invariants,
    }
    if r == 3:
        if g >= 5 and d <= g:
            report["verdict"] = sieve.r3_sieve(d, g)
        outcome = sieve.r3_classify(d, g)
        r3_outcome = {"kind": outcome.kind, "rendered": outcome.render()}
        if outcome.image_dim is not None:
            r3_outcome["image_dim"] = outcome.image_dim
        report["r3_outcome"] = r3_outcome
    else:
        report["verdict"] = sieve.scan_streamed(d, g, r)
        if g >= 1:
            report["range_thm41"] = sieve.range_thm41(d, g, r)
    return report


def _write_query_text(report: dict, write) -> None:
    inp = report["input"]
    write(f"input: d={inp['d']} g={inp['g']} r={inp['r']}\n")
    for key, value in report["invariants"].items():
        write(f"{key}: {value}\n")
    if "range_thm41" in report:
        write("range_thm41: " + ("in-range" if report["range_thm41"] else "out-of-range") + "\n")
    if "verdict" in report:
        verdict = report["verdict"]
        write(f"verdict: {verdict.outcome}\n")
        for reason in verdict.reasons:
            write(f"  reason: {reason}\n")
        for w in verdict.witnesses:
            if isinstance(w, sieve.SieveWitness):
                write(
                    f"  witness: alpha={w.alpha} case={w.case.value}"
                    f" slack={w.slack} i={w.i} j={w.j}\n"
                )
            else:
                write(f"  witness: alpha={w.alpha} branch={w.branch} slack={w.slack}\n")
    if "r3_outcome" in report:
        write(f"classification: {report['r3_outcome']['rendered']}\n")


# Stands in for the witness list while the rest of a query report is
# dumped; the list is then written where it stood, a batch at a time.
_WITNESS_SLOT = "\0witnesses"
_WITNESS_BATCH = 512


def _write_query_json(report: dict, write) -> None:
    """Write json.dumps(report, indent=2) with the verdict as its
    outcome, its witnesses' to_dict() and its reasons, without ever
    holding the witness list."""
    if "verdict" not in report:
        write(_dump_json(report))
        return
    verdict = report["verdict"]
    shape = {"outcome": verdict.outcome, "witnesses": _WITNESS_SLOT, "reasons": list(verdict.reasons)}
    before, after = _dump_json({**report, "verdict": shape}).split(json.dumps(_WITNESS_SLOT))
    write(before)
    witnesses = iter(verdict.witnesses)
    separator = "["
    while batch := [w.to_dict() for w in itertools.islice(witnesses, _WITNESS_BATCH)]:
        # The batch is dumped as a list of its own, two levels above
        # where the witness list sits in the report: drop its brackets
        # and indent its lines by 4 more.
        write(separator + json.dumps(batch, indent=2)[1:-2].replace("\n", "\n    "))
        separator = ","
    write(("[]" if separator == "[" else "\n    ]") + after)


def cmd_query(args: argparse.Namespace) -> int:
    report = build_query_report(args.d, args.g, args.r)
    if args.format == "json":
        _write_query_json(report, sys.stdout.write)
    else:
        _write_query_text(report, sys.stdout.write)
    return 0


# ---------------------------------------------------------------- sweep


def _sweep_row(d: int, g: int, r: int, alpha_list: list, in_range) -> dict:
    """One sweep row; alpha_list holds the alpha of each witness, and
    in_range is the in-range genera of degree d, or None for r = 3,
    where the range column is empty."""
    return {
        "d": d,
        "g": g,
        "r": r,
        "verdict": "survivor" if alpha_list else "excluded",
        "witnesses": len(alpha_list),
        "alpha_list": alpha_list,
        "range_thm41": None if in_range is None else g in in_range,
    }


def run_sweep(r: int, d_max: int, g_max: int = None, in_range_only: bool = False) -> list:
    """All sweep rows, ordered by (d, g), with g cut at g_max when given.

    For r >= 4 the genus range is 1..g_max (default 2d) per degree, or
    the in-range genera when filtering to the hypothesis range; for
    r = 3 it is the reduced grid sieve.r3_genera, which starts at g >= d,
    so no degree above g_max is walked.  The r = 3 chain reads no g on
    that grid (see verify.verify_thm_r3): one verdict serves each degree.
    """
    rows = []
    if r == 3 and g_max is not None:
        d_max = min(d_max, g_max)
    for d in range(1, d_max + 1):
        if r == 3:
            in_range = None
            genera = sieve.r3_genera(d)
            alphas = [w.alpha for w in sieve.r3_sieve(d, genera[0]).witnesses] if genera else []
        else:
            in_range = sieve.range_genera(d, r)
            genera = in_range if in_range_only else range(1, (g_max or 2 * d) + 1)
            top = genera[-1] if genera else 0
            witnesses = sieve.witnesses_by_genus(d, r, top if g_max is None else min(top, g_max))
        for g in genera:
            if g_max is not None and g > g_max:
                break
            if r == 3:
                alpha_list = list(alphas)
            else:
                alpha_list = [alpha for alpha, _ in witnesses.get(g, ())]
            rows.append(_sweep_row(d, g, r, alpha_list, in_range))
    return rows


CSV_COLUMNS = ["d", "g", "r", "verdict", "witnesses", "alpha_list", "range_thm41"]


def render_sweep_csv(rows: list) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        if row["range_thm41"] is None:
            range_label = ""
        else:
            range_label = "in-range" if row["range_thm41"] else "out-of-range"
        writer.writerow(
            [
                row["d"],
                row["g"],
                row["r"],
                row["verdict"],
                row["witnesses"],
                ",".join(str(a) for a in row["alpha_list"]),
                range_label,
            ]
        )
    return buffer.getvalue()


def cmd_sweep(args: argparse.Namespace) -> int:
    _check_ambient_dimension(args.r)
    if args.r == 3 and args.in_range_only:
        raise ValueError("--in-range-only requires r >= 4")
    started = time.monotonic()
    rows = run_sweep(args.r, args.d_max, args.g_max, args.in_range_only)
    if args.r == 3 and not rows:
        raise ValueError("the r = 3 reduced grid is empty within --d-max and --g-max")
    if args.format == "csv":
        sys.stdout.write(render_sweep_csv(rows))
    else:
        payload = {
            "schema": SCHEMA,
            "command": "sweep",
            "params": {
                "r": args.r,
                "d_max": args.d_max,
                "g_max": args.g_max,
                "in_range_only": args.in_range_only,
            },
            "rows": rows,
            "metadata": {"elapsed_s": round(time.monotonic() - started, 3)},
        }
        sys.stdout.write(_dump_json(payload))
    return 0


# ---------------------------------------------------------------- verify

SUITES = ("spots", "r3", "thm41", "derived", "case34", "r11", "r5window", "splits", "all")


# Default --d-max of each suite that takes one; `verify all` keeps r3 at 200.
_D_MAX_DEFAULT = {"r3": 200, "thm41": 500, "case34": 400, "r11": 400}
# The r values `verify all` runs for each suite that needs --r on its own.
_ALL_R = {"thm41": range(4, 11), "derived": range(4, 11), "r11": (11, 12)}


def _run_suite(args: argparse.Namespace) -> list:
    in_all = args.suite == "all"

    def d_max(suite: str) -> int:
        return _D_MAX_DEFAULT[suite] if args.d_max is None else args.d_max

    thm41 = functools.partial(verify.verify_thm41, honor_exception=in_all or not args.no_exception)
    # suite -> r -> (the check of the suite's bounds, the suite, the bounds).
    suites = {
        "spots": lambda r: (None, verify.verify_spot_values, ()),
        "r3": lambda r: (verify.check_r3_args, verify.verify_thm_r3, (_D_MAX_DEFAULT["r3"] if in_all else d_max("r3"),)),
        "thm41": lambda r: (verify.check_thm41_args, thm41, (r, d_max("thm41"))),
        "derived": lambda r: (verify.check_derived_args, verify.verify_derived_claims, (r, args.alpha_max)),
        "case34": lambda r: (
            verify.check_case34_args,
            verify.verify_case34_never,
            (args.r_lo, args.r_hi, d_max("case34")),
        ),
        "r11": lambda r: (verify.check_r11_args, verify.verify_r_ge_11, (r, d_max("r11"))),
        "r5window": lambda r: (verify.check_r5window_args, verify.verify_r5_window, (args.d_lo, args.d_hi)),
        "splits": lambda r: (verify.check_splits_args, verify.verify_splits, (args.a_max, args.b_max, args.e_max)),
    }
    if in_all:
        calls = [suites[suite](r) for suite in suites for r in _ALL_R.get(suite, (None,))]
    elif args.suite in _ALL_R and args.r is None:
        raise ValueError(f"verify {args.suite} requires --r")
    else:
        calls = [suites[args.suite](args.r)]
    # Every suite's bounds are checked before any suite runs, so that
    # `verify all` refuses a bad bound at once.
    for check, _, params in calls:
        if check is not None:
            check(*params)
    return [run(*params) for _, run, params in calls]


def cmd_verify(args: argparse.Namespace) -> int:
    started = time.monotonic()
    reports = _run_suite(args)
    all_ok = all(rep.ok for rep in reports)
    if args.format == "json":
        payload = {
            "schema": SCHEMA,
            "command": "verify",
            "suite": args.suite,
            "ok": all_ok,
            "reports": [rep.to_dict() for rep in reports],
            "metadata": {"elapsed_s": round(time.monotonic() - started, 3)},
        }
        sys.stdout.write(_dump_json(payload))
    else:
        for rep in reports:
            sys.stdout.write(
                f"suite={rep.suite} ok={rep.ok} checked={rep.checked}"
                f" violations={len(rep.violations)}\n"
            )
            for violation in rep.violations:
                sys.stdout.write("  " + json.dumps(violation, sort_keys=True) + "\n")
        sys.stdout.write(("PASS" if all_ok else "FAIL") + "\n")
    return 0 if all_ok else 1


# ---------------------------------------------------------------- split


def cmd_split(args: argparse.Namespace) -> int:
    divisor = DivisorClass(args.a, args.b, args.e)
    payload = {"schema": SCHEMA, "command": "split", "input": {"a": args.a, "b": args.b, "e": args.e}}
    try:
        cert = surfaces.find_stable_split(divisor)
    except ValueError as exc:
        code, text = 1, f"no certificate: {exc}\n"
        payload.update(certificate=None, diagnostic=str(exc))
    else:
        code, text = 0, f"{cert.d1.as_tuple()} + {cert.d2.as_tuple()} intersection {cert.intersection}\n"
        payload["certificate"] = cert.to_dict()
    sys.stdout.write(_dump_json(payload) if args.format == "json" else text)
    return code


# ----------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rigidity-sieve",
        description="Exact-integer sieve and invariants for space-curve moduli.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_query = sub.add_parser("query", help="invariant panel and verdict for one (d, g, r)")
    p_query.add_argument("--d", type=bounded_int, required=True)
    p_query.add_argument("--g", type=bounded_int, required=True)
    p_query.add_argument("--r", type=bounded_int, required=True)
    p_query.add_argument("--format", choices=("text", "json"), default="text")
    p_query.set_defaults(func=cmd_query)

    p_sweep = sub.add_parser("sweep", help="verdict table over a degree range")
    p_sweep.add_argument("--r", type=bounded_int, required=True)
    p_sweep.add_argument("--d-max", type=positive_int, required=True)
    p_sweep.add_argument("--g-max", type=positive_int, default=None)
    p_sweep.add_argument("--in-range-only", action="store_true")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=SUITES)
    p_verify.add_argument("--r", type=bounded_int, default=None)
    p_verify.add_argument("--d-max", type=bounded_int, default=None)
    p_verify.add_argument("--alpha-max", type=bounded_int, default=60)
    p_verify.add_argument("--no-exception", action="store_true")
    p_verify.add_argument("--r-lo", type=bounded_int, default=4)
    p_verify.add_argument("--r-hi", type=bounded_int, default=10)
    p_verify.add_argument("--d-lo", type=bounded_int, default=verify.R5_WINDOW[0])
    p_verify.add_argument("--d-hi", type=bounded_int, default=verify.R5_WINDOW[1])
    p_verify.add_argument("--a-max", type=bounded_int, default=verify.SPLITS_GRID[0])
    p_verify.add_argument("--b-max", type=bounded_int, default=verify.SPLITS_GRID[1])
    p_verify.add_argument("--e-max", type=bounded_int, default=verify.SPLITS_GRID[2])
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.set_defaults(func=cmd_verify)

    p_split = sub.add_parser("split", help="stable-split certificate for a divisor class")
    p_split.add_argument("--a", type=bounded_int, required=True)
    p_split.add_argument("--b", type=bounded_int, required=True)
    p_split.add_argument("--e", type=bounded_int, required=True)
    p_split.add_argument("--format", choices=("text", "json"), default="text")
    p_split.set_defaults(func=cmd_split)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except BrokenPipeError:
        # The reader of stdout has gone (`| head`): the output stops
        # there, which is no failure.  Point stdout at the null device,
        # so that flushing what is still buffered at exit cannot fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    return code


if __name__ == "__main__":
    sys.exit(main())
