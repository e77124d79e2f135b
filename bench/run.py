"""Layered benchmark of the rigidity-sieve CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is one `rigidity-sieve` command (see workloads.py), run in
a fresh process from the source tree under `src/`, so caches start cold
as they do for a user.  Runs are sequential, and the benchmark itself
is one single-threaded process.

--trace 0 measures the end-to-end metrics: it repeats the command at
all CPUs for about S seconds, timing fresh interpreters that import the
CLI (setup_s) between repeats, and reports medians of wall time, CPU
time of the process tree, peak RSS of its largest process and set-up
time.

--trace 1 measures the per-layer metrics: one untraced run at 1 worker,
one at all CPUs, and one traced in-process pass at 1 worker (tracer.py).
The three outputs must give the same digest.

Every output is checked against the reference digest recorded for that
workload and input in references.json; a run that exits unexpectedly,
prints a traceback or gives another digest counts as failed.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.

`--workload all` runs every workload, both passes, one after another and
prints every metric.  `--smoke` swaps in tiny universes for the
benchmark's own tests; smoke results cannot be recorded.
`--record FILE` appends the run record and metrics to FILE as one JSON
line.  `--write-references` recomputes references.json.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from tracer import PER_LAYER_METRICS, Tracer, layer_metrics
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCES = BENCH / "references.json"

THREADS_ENV = "RIGIDITY_SIEVE_THREADS"
SETUP_CODE = "import rigidity_sieve.cli as cli; cli.build_parser()"
SETUP_REPEATS = 15
SETUP_MIN_PER_RUN = 2
INVOCATION_TIMEOUT_S = 150.0

END_TO_END_METRICS = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]


def affinity_cpus() -> int:
    """CPUs this process may run on; os.cpu_count() can exceed it."""
    return len(os.sched_getaffinity(0))


def _child_env(workers=None) -> dict:
    """Environment of every program process: the checkout's sources, and
    bytecode cached under OUT (as an installed package has it) whatever
    the caller's PYTHONDONTWRITEBYTECODE says."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(OUT / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if workers is not None:
        env[THREADS_ENV] = str(workers)
    return env


@dataclass
class Invocation:
    """One CLI process: its outputs and the resources of its tree."""

    exit_code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def _kill_tree(proc: subprocess.Popen) -> None:
    """Kill the CLI process and its pool workers (its own session)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _drain(proc: subprocess.Popen, deadline: float) -> tuple:
    """Read stdout and stderr to EOF without threads; kill the process
    tree if the deadline passes first."""
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for stream in chunks:
            sel.register(stream, selectors.EVENT_READ)
        while sel.get_map():
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                _kill_tree(proc)
                break
            for key, _ in sel.select(remaining):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    proc.stdout.close()
    proc.stderr.close()
    return b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr])


def run_cli(argv: list, workers: int) -> Invocation:
    """Run `rigidity-sieve argv` with `workers` workers and wait for it.

    wait4 reports the rusage of the process and every descendant it
    reaped (the pool workers), so CPU time covers the whole tree and
    ru_maxrss is the largest RSS of any process in it."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "rigidity_sieve.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(workers),
        cwd=ROOT,
        start_new_session=True,
    )
    try:
        stdout, stderr = _drain(proc, start + INVOCATION_TIMEOUT_S)
    except BaseException:
        _kill_tree(proc)
        proc.wait()
        raise
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(
        exit_code=proc.returncode,
        stdout=stdout,
        stderr=stderr,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024,
    )


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


def check_output(workload, universe, exit_code, stdout, stderr, references):
    """(digest, problem): problem is None when the output is correct."""
    if exit_code != 0:
        return None, f"exit code {exit_code}"
    if b"Traceback (most recent call last)" in stderr:
        return None, "traceback on stderr"
    try:
        digest = workload.digest(stdout)
    except ValueError as exc:
        return None, f"unparseable output: {exc}"
    want = references.get(workload.reference_key(universe))
    if want is None:
        return digest, f"no reference digest for {workload.reference_key(universe)}"
    if digest != want:
        return digest, f"digest {digest[:12]} != reference {want[:12]}"
    return digest, None


def measure_setup(repeats: int) -> list:
    """Wall times of fresh interpreters importing the CLI and building
    its parser."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=_child_env(), cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return times


def traced_pass(workload, universe, spans_path: Path) -> dict:
    """Run the workload in this process at 1 worker with every public
    function of the five layers wrapped; returns the traced wall time,
    the output and the per-layer metrics."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from rigidity_sieve import bounds, cli, sieve, surfaces, verify

    modules = {"cli": cli, "verify": verify, "sieve": sieve, "surfaces": surfaces, "bounds": bounds}
    cached = {f"bounds.{name}": getattr(bounds, name) for name in ("castelnuovo_profile", "max_genus_pi")}
    for fn in cached.values():
        fn.cache_clear()
    tracer = Tracer(modules)
    tracer.calibrate()
    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.get(THREADS_ENV)
    os.environ[THREADS_ENV] = "1"
    exit_code = None
    try:
        with tracer, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                exit_code = cli.main(workload.argv(universe))
            except Exception:
                traceback.print_exc()
            wall = time.perf_counter() - start
        tracer.calibrate()
    finally:
        if saved is None:
            del os.environ[THREADS_ENV]
        else:
            os.environ[THREADS_ENV] = saved
    cache_info = {key: fn.cache_info() for key, fn in cached.items()}
    for fn in cached.values():
        fn.cache_clear()
    tracer.write_spans(spans_path)
    stdout = out.getvalue().encode()
    return {
        "exit_code": exit_code,
        "stdout": stdout,
        "stderr": err.getvalue().encode(),
        "wall_s": wall,
        "metrics": layer_metrics(tracer, cache_info, len(workload.canonical(stdout))),
    }


def git_revision() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return result.stdout.strip()


def run_record(workload, universe, seed: int, workers: int, trace: bool) -> dict:
    return {
        "workload": workload.name,
        "seed": seed,
        "seed_use": workload.seed_use,
        "universe": universe,
        "trace": trace,
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "affinity_cpus": affinity_cpus(),
        "workers": workers,
    }


def measure(workload, seed: int, seconds: int, trace: bool, smoke: bool) -> dict:
    """One benchmark run; returns the result object plus its record."""
    references = load_references()
    universe = workload.universe(seed, smoke)
    argv = workload.argv(universe)
    workers = affinity_cpus()
    problems = []
    attempted = failed = 0

    def check(label, exit_code, stdout, stderr):
        nonlocal attempted, failed
        attempted += 1
        digest, problem = check_output(workload, universe, exit_code, stdout, stderr, references)
        if problem is not None:
            failed += 1
            problems.append(f"{label}: {problem}")
        return digest

    if trace:
        one = run_cli(argv, 1)
        many = run_cli(argv, workers)
        suffix = "-smoke" if smoke else ""
        traced = traced_pass(workload, universe, OUT / f"spans-{workload.name}-seed{seed}{suffix}.json")
        digests = {
            check("1 worker", one.exit_code, one.stdout, one.stderr),
            check(f"{workers} workers", many.exit_code, many.stdout, many.stderr),
            check("traced", traced["exit_code"], traced["stdout"], traced["stderr"]),
        }
        if len(digests) != 1:
            problems.append(f"outputs differ across worker counts and tracing: {sorted(map(str, digests))}")
        metrics = traced["metrics"]
        metrics["executor.speedup"] = one.wall_s / many.wall_s
        metrics["executor.cpu_utilisation"] = many.cpu_s / (many.wall_s * workers)
        metrics["trace.overhead_ratio"] = traced["wall_s"] / one.wall_s
        units = dict(PER_LAYER_METRICS)
        samples = {}
    else:
        # Set-up is timed between the workload's invocations, not in one
        # burst, so that its median covers the same stretch of the
        # host's speed as the workload's.
        setup = []
        runs = []
        start = time.perf_counter()
        while True:
            inv = run_cli(argv, workers)
            runs.append(inv)
            check(f"run {len(runs)}", inv.exit_code, inv.stdout, inv.stderr)
            per_run = max(SETUP_MIN_PER_RUN, -(-SETUP_REPEATS * inv.wall_s // seconds))
            setup += measure_setup(int(per_run))
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(r.wall_s for r in runs) > seconds:
                break
        if len(setup) < SETUP_REPEATS:
            setup += measure_setup(SETUP_REPEATS - len(setup))
        samples = {
            "wall_s": [r.wall_s for r in runs],
            "setup_s": setup,
        }
        metrics = {
            "wall_s": statistics.median(r.wall_s for r in runs),
            "cpu_s": statistics.median(r.cpu_s for r in runs),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
            "setup_s": statistics.median(setup),
        }
        units = dict(END_TO_END_METRICS)
    return {
        "result": {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        },
        "record": run_record(workload, universe, seed, workers, trace),
        "samples": samples,
        "problems": problems,
    }


def _print_run(name: str, run: dict) -> None:
    result = run["result"]
    for metric, entry in result["metrics"].items():
        print(f"{name} {metric} {entry['value']} {entry['unit']}")
    print(f"{name} error_rate {result['failed'] / result['attempted']} ratio")
    for metric, values in run["samples"].items():
        print(f"{name} samples {metric} n={len(values)} {[round(v, 4) for v in values]}")
    print(f"{name} record {json.dumps(run['record'], sort_keys=True)}")
    for problem in run["problems"]:
        print(f"{name} problem {problem}", file=sys.stderr)


def write_references() -> None:
    """Recompute the digest of every input any seed can select, full and
    smoke, at all CPUs."""
    references = {}
    for workload in WORKLOADS.values():
        for smoke in (True, False):
            for universe in workload.universes(smoke):
                inv = run_cli(workload.argv(universe), affinity_cpus())
                if inv.exit_code != 0 or b"Traceback" in inv.stderr:
                    raise SystemExit(f"{workload.name} {universe}: exit {inv.exit_code}\n{inv.stderr.decode()}")
                key = workload.reference_key(universe)
                references[key] = workload.digest(inv.stdout)
                print(key, references[key], f"{inv.wall_s:.2f}s", flush=True)
    REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record", type=Path)
    parser.add_argument("--write-references", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "rigidity_sieve" / "cli.py").is_file():
        print(f"error: no rigidity_sieve sources under {SRC}", file=sys.stderr)
        return 2
    if args.record and args.smoke:
        parser.error("smoke results are not recorded")
    # An untimed import first, so that compiling bytecode in a fresh
    # checkout is not counted as set-up time.
    subprocess.run([sys.executable, "-c", SETUP_CODE], env=_child_env(), cwd=ROOT, check=True)
    if args.write_references:
        write_references()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    passes = (False, True) if args.workload == "all" else (bool(args.trace),)
    runs = []
    for name in names:
        for trace in passes:
            run = measure(WORKLOADS[name], args.seed, args.seconds, trace, args.smoke)
            _print_run(name, run)
            runs.append((name, run))
            if args.record:
                with args.record.open("a") as f:
                    line = {**run["record"], **run["result"], "samples": run["samples"]}
                    f.write(json.dumps(line, sort_keys=True) + "\n")
    if len(runs) == 1:
        final = runs[0][1]["result"]
    else:
        final = {
            "correct": all(run["result"]["correct"] for _, run in runs),
            "attempted": sum(run["result"]["attempted"] for _, run in runs),
            "failed": sum(run["result"]["failed"] for _, run in runs),
            "metrics": {
                f"{name}/{metric}": entry for name, run in runs for metric, entry in run["result"]["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
