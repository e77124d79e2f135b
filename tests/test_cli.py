"""End-to-end tests of the command-line interface: exit codes, output
formats, byte stability of JSON payloads, and the CSV row contract."""

import hashlib
import io
import json
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest

from rigidity_sieve import bounds, cli, sieve, surfaces, verify

SRC = Path(cli.__file__).resolve().parents[1]


def benchmark_reference(key):
    """The recorded digest of `key` in bench/references.json, read and
    never written."""
    references = json.loads((SRC.parent / "bench" / "references.json").read_text(encoding="utf-8"))
    return references[key]


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def materialised_query_report(d, g, r):
    """The query report with its verdict held whole, as a dict of its
    outcome, its witnesses' to_dict() and its reasons."""
    report = cli.build_query_report(d, g, r)
    if "verdict" in report:
        verdict = sieve.r3_sieve(d, g) if r == 3 else sieve.scan(d, g, r)
        report["verdict"] = {
            "outcome": verdict.outcome,
            "witnesses": [w.to_dict() for w in verdict.witnesses],
            "reasons": list(verdict.reasons),
        }
    return report


def render_query_text(report):
    """Reference text rendering of a materialised query report."""
    lines = []
    inp = report["input"]
    lines.append(f"input: d={inp['d']} g={inp['g']} r={inp['r']}")
    for key, value in report["invariants"].items():
        lines.append(f"{key}: {value}")
    if "range_thm41" in report:
        lines.append("range_thm41: " + ("in-range" if report["range_thm41"] else "out-of-range"))
    if "verdict" in report:
        verdict = report["verdict"]
        lines.append(f"verdict: {verdict['outcome']}")
        for reason in verdict["reasons"]:
            lines.append(f"  reason: {reason}")
        for w in verdict["witnesses"]:
            if "case" in w:
                lines.append(
                    f"  witness: alpha={w['alpha']} case={w['case']}"
                    f" slack={w['slack']} i={w['i']} j={w['j']}"
                )
            else:
                lines.append(f"  witness: alpha={w['alpha']} branch={w['branch']} slack={w['slack']}")
    if "r3_outcome" in report:
        lines.append(f"classification: {report['r3_outcome']['rendered']}")
    return "\n".join(lines) + "\n"


class _Discard(io.TextIOBase):
    def write(self, text):
        return len(text)


def _read_head_and_close(seconds, *argv):
    """Run the CLI, read the first 100 bytes of its output and close the
    pipe; returns (exit code, those bytes, stderr).  A watchdog kills the
    process if it has not ended after `seconds`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(
        [sys.executable, "-m", "rigidity_sieve.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    watchdog = threading.Timer(seconds, proc.kill)
    watchdog.start()
    try:
        head = proc.stdout.read(100)
        proc.stdout.close()
        code = proc.wait()
        stderr = proc.stderr.read()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
        proc.stderr.close()
    return code, head, stderr


class TestQuery:
    @pytest.mark.parametrize(
        "d,g,r",
        [
            (30, 34, 9),  # survivors
            (30, 14, 5),  # non-special
            (10, 9, 9),  # no alpha
            (30, 33, 9),  # all cases infeasible
            (12, 0, 4),  # genus zero
            (9, 12, 3),  # r = 3 with a sieve verdict
            (7, 6, 3),  # r = 3, classification only
            (6000, 6001, 20),  # 1,859 witnesses: the JSON list spans several batches
        ],
    )
    def test_streamed_output_matches_materialised_rendering(self, capsys, d, g, r):
        report = materialised_query_report(d, g, r)
        argv = ("query", "--d", str(d), "--g", str(g), "--r", str(r))
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == render_query_text(report)
        code, out, err = run(capsys, *argv, "--format", "json")
        assert (code, err) == (0, "")
        assert out == json.dumps(report, indent=2) + "\n"

    def test_memory_does_not_grow_with_the_witness_list(self, monkeypatch):
        # At D = 20000 the verdict has 11,930 witnesses.  Holding them as
        # objects, dicts and text lines peaks at about 13.5 MiB; streamed,
        # the peak is the bounds caches, about 3.2 MiB.
        d = 20000
        for fn in (bounds.castelnuovo_profile, bounds.max_genus_pi):
            fn.cache_clear()
        monkeypatch.setattr(sys, "stdout", _Discard())
        tracemalloc.start()
        try:
            code = cli.main(["query", "--d", str(d), "--g", str(d + 1), "--r", "100"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            for fn in (bounds.castelnuovo_profile, bounds.max_genus_pi):
                fn.cache_clear()
        assert code == 0
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_closed_pipe_stops_quietly(self, fmt):
        # The full run at D = 2,000,000 takes about 9 s (text) or 23 s
        # (JSON); a reader that leaves after 100 bytes must end it within
        # the 4 s the watchdog allows.
        d = 2_000_000
        code, head, stderr = _read_head_and_close(
            4, "query", "--d", str(d), "--g", str(d + 1), "--r", "100", "--format", fmt
        )
        assert len(head) == 100
        assert code == 0
        assert b"Traceback" not in stderr

    def test_text_panel_survivor(self, capsys):
        code, out, err = run(capsys, "query", "--d", "30", "--g", "34", "--r", "9")
        assert code == 0 and err == ""
        assert "rho: -96" in out
        assert "lambda: 102" in out
        assert "pi: 39" in out
        assert "range_thm41: out-of-range" in out
        assert "verdict: survivors" in out
        assert "witness: alpha=9 case=case2 slack=1 i=4 j=3" in out

    def test_json_is_byte_stable_and_round_trips(self, capsys):
        code, out1, _ = run(
            capsys, "query", "--d", "30", "--g", "34", "--r", "9", "--format", "json"
        )
        assert code == 0
        code, out2, _ = run(
            capsys, "query", "--d", "30", "--g", "34", "--r", "9", "--format", "json"
        )
        assert out1 == out2
        obj = json.loads(out1)
        assert json.dumps(obj, indent=2) + "\n" == out1
        assert obj["schema"] == "rigidity-sieve/1"
        assert obj["invariants"]["pi1"] == 36
        assert obj["verdict"]["witnesses"][0]["alpha"] == 9
        assert "metadata" not in obj

    def test_r3_fields(self, capsys):
        code, out, _ = run(
            capsys, "query", "--d", "7", "--g", "6", "--r", "3", "--format", "json"
        )
        obj = json.loads(out)
        # outside the reduced sieve range (d > g): classification only
        assert "verdict" not in obj
        assert "range_thm41" not in obj
        assert obj["r3_outcome"] == {
            "kind": "exact-image",
            "rendered": "exact-image(13)",
            "image_dim": 13,
        }

    def test_r3_in_sieve_domain(self, capsys):
        code, out, _ = run(
            capsys, "query", "--d", "8", "--g", "8", "--r", "3", "--format", "json"
        )
        obj = json.loads(out)
        assert obj["verdict"]["outcome"] == "survivors"
        assert obj["verdict"]["witnesses"] == [
            {"alpha": 3, "branch": "dim-w-0", "slack": 5}
        ]

    def test_fields_present_exactly_when_defined(self, capsys):
        _, out, _ = run(capsys, "query", "--d", "4", "--g", "2", "--r", "3", "--format", "json")
        inv = json.loads(out)["invariants"]
        assert "pi" in inv and "pi1" not in inv and "pi2" not in inv
        _, out, _ = run(capsys, "query", "--d", "2", "--g", "3", "--r", "3", "--format", "json")
        inv = json.loads(out)["invariants"]
        assert "pi" not in inv
        _, out, _ = run(capsys, "query", "--d", "12", "--g", "0", "--r", "4", "--format", "json")
        obj = json.loads(out)
        assert "range_thm41" not in obj
        assert obj["verdict"]["outcome"] == "out-of-scope"

    # (d, g, r) -> the refusal of query: the first of d < 1, g < 0 and
    # r < 3 that holds, in that order.
    REFUSALS = {
        (0, 5, 3): "degree must be >= 1, got 0",
        (0, 5, 4): "degree must be >= 1, got 0",
        (-1, 5, 4): "degree must be >= 1, got -1",
        (5, -1, 4): "genus must be >= 0, got -1",
        (5, 5, 2): "ambient dimension must be >= 3, got 2",
        (0, -1, 2): "degree must be >= 1, got 0",
        (5, -1, 2): "genus must be >= 0, got -1",
    }

    @pytest.mark.parametrize("d,g,r", list(REFUSALS))
    def test_rejects_out_of_domain(self, capsys, d, g, r):
        code, out, err = run(capsys, "query", "--d", str(d), "--g", str(g), "--r", str(r))
        assert (code, out, err) == (2, "", f"error: {self.REFUSALS[d, g, r]}\n")

    def test_accepts_the_least_class(self, capsys):
        code, out, err = run(capsys, "query", "--d", "1", "--g", "0", "--r", "3")
        assert (code, err) == (0, "")
        assert out.startswith("input: d=1 g=0 r=3\n")

    @pytest.mark.parametrize("d", range(980, 1001, 5))
    def test_deep_smoke_matches_the_benchmark_reference(self, capsys, d):
        # The recorded query-deep smoke digests (the text as printed): a
        # survivor whose case-1 and case-2 windows share a long alpha
        # run, which iter_witnesses walks.
        code, out, _ = run(capsys, "query", "--r", "100", "--d", str(d), "--g", str(d + 1))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == benchmark_reference(f"query-deep/smoke/d={d}")

    def test_oversized_input_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["query", "--d", str(2**63), "--g", "1", "--r", "4"])
        assert exc.value.code == 2

    def test_huge_but_allowed_input_works(self, capsys):
        big = str(2**63 - 1)
        code, out, _ = run(capsys, "query", "--d", big, "--g", "1", "--r", "4")
        assert code == 0
        assert "verdict: excluded" in out


class TestSweep:
    def test_r9_smoke_matches_the_benchmark_reference(self, capsys):
        # The recorded sweep-r9 smoke digest (the CSV bytes as printed).
        # Its rows read sieve.genus_intervals.
        code, out, _ = run(capsys, "sweep", "--r", "9", "--d-max", "40")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == benchmark_reference("sweep-r9/smoke")

    def test_csv_contract(self, capsys):
        code, out, _ = run(capsys, "sweep", "--r", "9", "--d-max", "31")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "d,g,r,verdict,witnesses,alpha_list,range_thm41"
        assert "30,34,9,survivor,1,9,out-of-range" in lines
        assert "30,33,9,excluded,0,,in-range" in lines

    def test_r3_survivor_rows(self, capsys):
        code, out, _ = run(capsys, "sweep", "--r", "3", "--d-max", "9")
        rows = [line for line in out.splitlines() if ",survivor," in line]
        assert rows == [
            "8,8,3,survivor,1,3,",
            "8,9,3,survivor,1,3,",
            '9,9,3,survivor,2,"3,3",',
            '9,10,3,survivor,2,"3,3",',
            '9,11,3,survivor,2,"3,3",',
            '9,12,3,survivor,2,"3,3",',
        ]

    def test_json_stable_modulo_metadata(self, capsys):
        args = ("sweep", "--r", "5", "--d-max", "20", "--format", "json")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        a, b = json.loads(out1), json.loads(out2)
        assert "elapsed_s" in a.pop("metadata")
        b.pop("metadata")
        assert a == b
        assert a["schema"] == "rigidity-sieve/1"
        assert all(row["verdict"] in ("survivor", "excluded", "out-of-scope") for row in a["rows"])

    def test_rows_sorted(self, capsys):
        _, out, _ = run(capsys, "sweep", "--r", "4", "--d-max", "12", "--format", "json")
        rows = json.loads(out)["rows"]
        keys = [(row["d"], row["g"]) for row in rows]
        assert keys == sorted(keys)

    def test_in_range_only_filters(self, capsys):
        _, out, _ = run(
            capsys, "sweep", "--r", "4", "--d-max", "40", "--in-range-only", "--format", "json"
        )
        rows = json.loads(out)["rows"]
        assert rows and all(row["range_thm41"] is True for row in rows)
        assert not any(row["verdict"] == "survivor" for row in rows)

    def test_in_range_only_rejected_for_r3(self, capsys):
        code, _, err = run(capsys, "sweep", "--r", "3", "--d-max", "9", "--in-range-only")
        assert code == 2
        assert "requires r >= 4" in err

    def test_g_max_truncates(self, capsys):
        _, out, _ = run(capsys, "sweep", "--r", "4", "--d-max", "6", "--g-max", "3", "--format", "json")
        rows = json.loads(out)["rows"]
        assert rows and all(row["g"] <= 3 for row in rows)

    def test_g_max_extends_past_2d(self, capsys):
        _, out, _ = run(capsys, "sweep", "--r", "4", "--d-max", "6", "--g-max", "20", "--format", "json")
        rows = json.loads(out)["rows"]
        for d in range(1, 7):
            assert [row["g"] for row in rows if row["d"] == d] == list(range(1, 21))

    def test_in_range_only_g_max_truncates(self, capsys):
        argv = ("sweep", "--r", "4", "--d-max", "40", "--in-range-only", "--format", "json")
        _, out, _ = run(capsys, *argv)
        full = json.loads(out)["rows"]
        _, out, _ = run(capsys, *argv, "--g-max", "10")
        cut = json.loads(out)["rows"]
        assert cut == [row for row in full if row["g"] <= 10]
        assert len(cut) < len(full)

    @pytest.mark.parametrize(
        "bounds",
        [
            ("--d-max", "7"),
            ("--d-max", "100", "--g-max", "7"),
            ("--d-max", str(2**63 - 1), "--g-max", "7"),
        ],
    )
    def test_empty_r3_grid_exits_2(self, capsys, bounds):
        code, out, err = run(capsys, "sweep", "--r", "3", *bounds)
        assert code == 2
        assert out == "" and "error:" in err

    def test_r_below_3_exits_2(self, capsys):
        code, out, err = run(capsys, "sweep", "--r", "2", "--d-max", "5")
        assert code == 2
        assert out == "" and err == "error: ambient dimension must be >= 3, got 2\n"

    def test_negative_d_max_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--r", "4", "--d-max", "-5"])
        assert exc.value.code == 2

    def test_negative_g_max_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--r", "4", "--d-max", "10", "--g-max", "-3"])
        assert exc.value.code == 2

    def test_closed_pipe_exits_quietly(self):
        code, head, stderr = _read_head_and_close(60, "sweep", "--r", "9", "--d-max", "100")
        assert len(head) == 100
        assert code == 0
        assert b"Traceback" not in stderr

    @pytest.mark.parametrize(
        "g_max,in_range_only,r",
        [
            (g_max, in_range_only, r)
            for r in (4, 9, 20)
            for g_max, in_range_only in ((None, False), (150, False), (None, True), (40, True))
        ]
        + [(g_max, False, 3) for g_max in (None, 8, 30)],
    )
    def test_rows_match_per_point_scan(self, r, g_max, in_range_only):
        assert cli.run_sweep(r, 60, g_max, in_range_only) == naive_sweep_rows(r, 60, g_max, in_range_only)

    def test_r3_sweep_walks_only_degrees_up_to_g_max(self):
        # r3_genera(d) starts at g >= d, so a g_max of 10 bounds the
        # degrees, however large --d-max is.
        argv = [sys.executable, "-m", "rigidity_sieve.cli", "sweep", "--r", "3", "--g-max", "10", "--d-max"]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        huge = subprocess.run([*argv, str(2**63 - 1)], env=env, capture_output=True, timeout=10)
        small = subprocess.run([*argv, "10"], env=env, capture_output=True, timeout=10)
        assert huge.returncode == 0
        assert huge.stdout == small.stdout
        assert huge.stdout.count(b"\n") == 1 + 5


def naive_sweep_rows(r, d_max, g_max, in_range_only):
    """The sweep rows from one scan (r >= 4) or one r3_sieve (r = 3)
    per (d, g)."""
    labels = {sieve.SURVIVORS: "survivor", sieve.EXCLUDED: "excluded", sieve.OUT_OF_SCOPE: "out-of-scope"}
    rows = []
    for d in range(1, d_max + 1):
        if r == 3:
            in_range = None
            genera = sieve.r3_genera(d)
        else:
            in_range = sieve.range_genera(d, r)
            genera = in_range if in_range_only else range(1, (g_max or 2 * d) + 1)
        for g in genera:
            if g_max is not None and g > g_max:
                break
            verdict = sieve.r3_sieve(d, g) if r == 3 else sieve.scan(d, g, r)
            rows.append(
                {
                    "d": d,
                    "g": g,
                    "r": r,
                    "verdict": labels[verdict.outcome],
                    "witnesses": len(verdict.witnesses),
                    "alpha_list": [w.alpha for w in verdict.witnesses],
                    "range_thm41": None if in_range is None else g in in_range,
                }
            )
    return rows


class TestVerify:
    def test_pass_exit_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "spots")
        assert code == 0
        assert "suite=spots ok=True" in out
        assert out.rstrip().endswith("PASS")

    def test_violation_exit_one(self, capsys):
        code, out, _ = run(
            capsys, "verify", "thm41", "--r", "9", "--d-max", "40", "--no-exception"
        )
        assert code == 1
        assert '"d": 30' in out and '"g": 34' in out
        assert out.rstrip().endswith("FAIL")

    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys, "verify", "r3", "--d-max", "30", "--format", "json"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["ok"] is True
        assert obj["reports"][0]["suite"] == "r3"
        assert "elapsed_s" in obj["metadata"]

    def test_all_matches_the_benchmark_reference(self, capsys):
        # The recorded verify-all digest (JSON without metadata, as
        # bench/workloads.py canonicalises it).
        code, out, _ = run(capsys, "verify", "all", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        payload.pop("metadata")
        canonical = (json.dumps(payload, indent=2) + "\n").encode()
        assert hashlib.sha256(canonical).hexdigest() == benchmark_reference("verify-all")

    def test_suite_requires_r(self, capsys):
        code, _, err = run(capsys, "verify", "thm41")
        assert code == 2
        assert "requires --r" in err

    def test_unknown_suite_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "nonsense"])
        assert exc.value.code == 2

    def test_domain_error_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "derived", "--r", "11")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("r3",),
            ("thm41", "--r", "4"),
            ("case34",),
            ("r11", "--r", "11"),
        ],
    )
    def test_zero_d_max_exits_2(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv, "--d-max", "0")
        assert code == 2
        assert out == "" and "error:" in err

    def test_case34_without_a_genus_exits_2(self, capsys):
        # g runs over 2..d, so --d-max 1 leaves nothing to check.
        code, out, err = run(capsys, "verify", "case34", "--d-max", "1")
        assert code == 2
        assert out == "" and "need d_max >= 2" in err

    @pytest.mark.parametrize("d_max", ["0", "11"])
    def test_all_checks_every_bound_before_running(self, capsys, monkeypatch, d_max):
        # --d-max 11 suits thm41 at r = 4..9 but not at r = 10.
        def must_not_run():
            raise AssertionError("a suite ran before the bounds were checked")

        monkeypatch.setattr(verify, "verify_spot_values", must_not_run)
        code, out, err = run(capsys, "verify", "all", "--d-max", d_max)
        assert code == 2
        assert out == "" and err.startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [
            ("derived", "--r", "10", "--alpha-max", "9"),
            ("derived", "--r", "9", "--alpha-max", "8"),
            ("all", "--alpha-max", "9"),
        ],
    )
    def test_empty_derived_alpha_range_exits_2(self, capsys, argv):
        # The derived suite starts at alpha = max(8, r).
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2
        assert out == "" and "error:" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("splits", "--a-max", "1"),
            ("splits", "--b-max", "1"),
            ("splits", "--a-max", "2", "--b-max", "2"),
            ("all", "--a-max", "1"),
        ],
    )
    def test_empty_splits_grid_exits_2(self, capsys, monkeypatch, argv):
        # No class of genus >= 2: only the canonical splits would be checked.
        def must_not_run():
            raise AssertionError("a suite ran before the bounds were checked")

        monkeypatch.setattr(verify, "verify_spot_values", must_not_run)
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2
        assert out == "" and "no class of genus >= 2" in err

    def test_splits_past_every_class_of_the_grid_ends_at_once(self):
        # For e >= 1 a class with a >= 2 is smooth only with b >= ae >= 2e,
        # so the grid b <= 3 holds no class past e = 1.
        argv = [sys.executable, "-m", "rigidity_sieve.cli", "verify", "splits", "--a-max", "2", "--b-max", "3", "--e-max"]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        huge = subprocess.run([*argv, str(2**63 - 1)], env=env, capture_output=True, timeout=10)
        small = subprocess.run([*argv, "1"], env=env, capture_output=True, timeout=10)
        assert (huge.returncode, huge.stderr) == (0, b"")
        assert huge.stdout == small.stdout

    def test_splits_reports_a_failed_construction_as_a_violation(self, capsys, monkeypatch):
        # The suite guards the construction it tests: a split that raises
        # on one class of the grid is one error violation, not a traceback.
        real = surfaces.find_stable_split

        def failing(divisor):
            if divisor.as_tuple() == (3, 5, 1):
                raise ValueError("injected failure")
            return real(divisor)

        monkeypatch.setattr(surfaces, "find_stable_split", failing)
        code, out, err = run(capsys, "verify", "splits", "--format", "json")
        assert (code, err) == (1, "")
        (report,) = json.loads(out)["reports"]
        assert report["violations"] == [{"a": 3, "b": 5, "e": 1, "error": "injected failure"}]
        assert report["checked"] == verify.verify_splits().checked

    def test_empty_r5_window_exits_2(self, capsys):
        code, out, err = run(capsys, "verify", "r5window", "--d-lo", "113", "--d-hi", "101")
        assert code == 2
        assert out == "" and "error:" in err

    def test_no_exception_json_lists_the_r9_exception(self, capsys):
        argv = ("verify", "thm41", "--r", "9", "--d-max", "200", "--no-exception", "--format", "json")
        code, out, _ = run(capsys, *argv)
        assert code == 1
        violations = json.loads(out)["reports"][0]["violations"]
        assert [(v["d"], v["g"]) for v in violations] == [(30, 34)]


class TestSingleProcess:
    def test_import_leaves_multiprocessing_out(self):
        # Every command runs in one process; importing the pool machinery
        # would cost start-up time and memory on every run.
        probe = "import sys, rigidity_sieve.cli; print('multiprocessing' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout == "False\n"


class TestSplit:
    def test_certificate(self, capsys):
        code, out, _ = run(capsys, "split", "--a", "4", "--b", "9", "--e", "2")
        assert code == 0
        assert out == "(4, 8, 2) + (0, 1, 2) intersection 4\n"

    def test_certificate_json(self, capsys):
        code, out, _ = run(
            capsys, "split", "--a", "2", "--b", "5", "--e", "1", "--format", "json"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["certificate"] == {"d1": [1, 0, 1], "d2": [1, 5, 1], "intersection": 4}
        assert out == (
            '{\n  "schema": "rigidity-sieve/1",\n  "command": "split",\n'
            '  "input": {\n    "a": 2,\n    "b": 5,\n    "e": 1\n  },\n'
            '  "certificate": {\n    "d1": [\n      1,\n      0,\n      1\n    ],\n'
            '    "d2": [\n      1,\n      5,\n      1\n    ],\n'
            '    "intersection": 4\n  }\n}\n'
        )

    def test_failed_precondition_exit_one(self, capsys):
        code, out, _ = run(capsys, "split", "--a", "3", "--b", "3", "--e", "1")
        assert code == 1
        assert "no certificate: genus 1 below stability threshold" in out

    def test_failed_precondition_json(self, capsys):
        code, out, _ = run(
            capsys, "split", "--a", "3", "--b", "2", "--e", "1", "--format", "json"
        )
        assert code == 1
        obj = json.loads(out)
        assert obj["certificate"] is None
        assert "diagnostic" in obj
        assert out == (
            '{\n  "schema": "rigidity-sieve/1",\n  "command": "split",\n'
            '  "input": {\n    "a": 3,\n    "b": 2,\n    "e": 1\n  },\n'
            '  "certificate": null,\n'
            '  "diagnostic": "no smooth irreducible curve in class DivisorClass(a=3, b=2, e=1)"\n}\n'
        )

    def test_input_ceiling(self, capsys):
        # The largest class the CLI accepts, b = ae on X_1, splits at once.
        top = 2**63 - 1
        argv = ("split", "--a", str(top), "--b", str(top), "--e", "1")
        d1, d2, n = [1, 1, 1], [top - 1, top - 1, 1], top - 1
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == f"{tuple(d1)} + {tuple(d2)} intersection {n}\n"
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        assert json.loads(out)["certificate"] == {"d1": d1, "d2": d2, "intersection": n}

    def test_invalid_class_exits_2(self, capsys):
        code, _, err = run(capsys, "split", "--a", "-1", "--b", "3", "--e", "1")
        assert code == 2
        assert "error:" in err
