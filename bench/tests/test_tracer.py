"""Tests of the benchmark's tracer and of its smoke mode.

Run with `python3 -m pytest bench/tests`.  Smoke runs use tiny universes
and finish in seconds; their numbers are never recorded.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import tracer
from rigidity_sieve import bounds, cli, sieve, surfaces, verify
from rigidity_sieve.surfaces import DivisorClass
from workloads import WORKLOADS

MODULES = {"cli": cli, "verify": verify, "sieve": sieve, "surfaces": surfaces, "bounds": bounds}
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _calls():
    return [
        (sieve, "scan", (30, 34, 9)),
        (sieve, "scan", (30, 33, 9)),
        (sieve, "genus_caps_ok", (30, 34, 9)),
        (sieve, "range_thm41", (30, 34, 9)),
        (sieve, "r3_sieve", (8, 9)),
        (bounds, "castelnuovo_profile", (30, 9)),
        (bounds, "max_genus_pi", (9, 3)),
        (surfaces, "find_stable_split", (DivisorClass(4, 9, 2),)),
        (cli, "build_query_report", (30, 34, 9)),
        (cli, "run_sweep", (9, 20)),
    ]


def test_wrappers_return_results_unchanged_and_restore_originals():
    originals = {(m.__name__, name): getattr(m, name) for m, name, _ in _calls()}
    expected = [getattr(m, name)(*args) for m, name, args in _calls()]
    with tracer.Tracer(MODULES) as t:
        for m, name, _ in _calls():
            assert getattr(m, name) is not originals[(m.__name__, name)]
        got = [getattr(m, name)(*args) for m, name, args in _calls()]
    assert got == expected
    for m, name, _ in _calls():
        assert getattr(m, name) is originals[(m.__name__, name)]


def test_counters_and_net_times():
    with tracer.Tracer(MODULES) as t:
        sieve.scan(30, 34, 9)
        sieve.scan(30, 33, 9)
    scan = t.stat("sieve.scan")
    assert (scan.calls, scan.hits) == (2, 1)
    assert scan.items == len(sieve.scan(30, 34, 9).witnesses)
    caps = t.stat("sieve.genus_caps_ok")
    assert scan.nested >= caps.calls > 0
    assert t.net_inclusive_ns("sieve.scan") == scan.ns
    assert t.stat("sieve.no_such_function").calls == 0


def test_cache_info_stays_readable():
    bounds.castelnuovo_profile.cache_clear()
    with tracer.Tracer(MODULES) as t:
        bounds.castelnuovo_profile(40, 9)
        bounds.castelnuovo_profile(40, 9)
        via_original = bounds.castelnuovo_profile.__wrapped__.cache_info()
        via_module = bounds.castelnuovo_profile.cache_info()
    assert (via_original.hits, via_original.misses) == (1, 1)
    assert via_module == via_original
    assert t.stat("bounds.castelnuovo_profile").calls == 2


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_trace_matches_untraced_and_emits_every_per_layer_metric(name, tmp_path):
    workload = WORKLOADS[name]
    universe = workload.universe(3, smoke=True)
    untraced = run.run_cli(workload.argv(universe), 1)
    traced = run.traced_pass(workload, universe, tmp_path / "spans.json")
    assert untraced.exit_code == 0 and traced["exit_code"] == 0
    assert workload.digest(traced["stdout"]) == workload.digest(untraced.stdout)

    result = run.measure(workload, 3, 1, trace=True, smoke=True)["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 3
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    for entry in BENCHMARK["per_layer"]:
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]


def test_count_metrics_repeat_exactly(tmp_path):
    workload = WORKLOADS["verify-all"]
    universe = workload.universe(0, smoke=True)
    first, second = (run.traced_pass(workload, universe, tmp_path / f"{i}.json")["metrics"] for i in range(2))
    counts = [name for name, unit in tracer.PER_LAYER_METRICS if unit in ("count", "bytes") and name in first]
    assert counts and all(first[name] == second[name] for name in counts)
    assert first["sieve.scan.calls"] > 0 and first["verify.thm41.checked"] > 0


def test_spans_nest_under_the_command(tmp_path):
    workload = WORKLOADS["sweep-r9"]
    path = tmp_path / "spans.json"
    run.traced_pass(workload, workload.universe(0, smoke=True), path)
    spans = json.loads(path.read_text())["spans"]
    names = [s["name"] for s in spans]
    assert names[0] == "cli.main" and spans[0]["parent"] == -1
    assert {"cli.cmd_sweep", "cli.run_sweep", "cli.render_sweep_csv"} <= set(names)
    for span in spans[1:]:
        parent = spans[span["parent"]]
        assert parent["start_ns"] <= span["start_ns"] <= span["end_ns"] <= parent["end_ns"]


def test_smoke_end_to_end_run_reports_every_metric():
    result = run.measure(WORKLOADS["sweep-r9"], 0, 1, trace=False, smoke=True)["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_wrong_output_counts_as_failed():
    workload = WORKLOADS["sweep-r9"]
    universe = workload.universe(0, smoke=True)
    references = run.load_references()
    _, problem = run.check_output(workload, universe, 0, b"d,g\n", b"", references)
    assert problem is not None
    _, problem = run.check_output(workload, universe, 0, b"", b"Traceback (most recent call last):\n", references)
    assert problem == "traceback on stderr"
    _, problem = run.check_output(workload, universe, 1, b"", b"", references)
    assert problem == "exit code 1"


def test_fails_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep-r9", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_smoke_results_cannot_be_recorded(tmp_path):
    with pytest.raises(SystemExit):
        run.main(["--workload", "sweep-r9", "--smoke", "--record", str(tmp_path / "r.jsonl")])
