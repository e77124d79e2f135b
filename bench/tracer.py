"""Per-layer tracing for the benchmark's in-process pass.

A `Tracer` replaces every public function of the five layers (`cli`,
`verify`, `sieve`, `surfaces`, `bounds`) with a timing wrapper, by
setting module attributes; the program's own files are not touched.
Calls between layers go through module attributes (`bounds.
castelnuovo_profile(...)`, `sieve.scan(...)`), so the wrappers see them.

Two kinds of record are kept, both in memory until the pass ends:

- spans (name, start, end, parent) at the coarse boundaries named in
  `SPAN_FUNCTIONS`: the command, each `cmd_*` and `verify_*` call,
  `run_sweep`, rendering, and `find_stable_split`;
- for every wrapped function, aggregate counters only: calls, inclusive
  and self time, and how many wrapped calls it made.  The kernels are
  called millions of times per run, so per-call spans would be far too
  many.

Times are net of the wrappers' own cost, which `calibrate` measures in
the same process on a no-op function.  The cost splits in two: the part
inside a call's own timed window (`inner_ns`), and the rest, which lands
in the caller's window (`outer_ns`).
"""

from __future__ import annotations

import functools
import json
import statistics
import time
import types
from dataclasses import dataclass, field
from pathlib import Path

# verify suite name -> the function that runs it.
SUITE_FUNCTIONS = {
    "spots": "verify_spot_values",
    "r3": "verify_thm_r3",
    "thm41": "verify_thm41",
    "derived": "verify_derived_claims",
    "case34": "verify_case34_never",
    "r11": "verify_r_ge_11",
    "r5window": "verify_r5_window",
    "splits": "verify_splits",
}

SPAN_FUNCTIONS = {
    "cli": {
        "main",
        "cmd_query",
        "cmd_sweep",
        "cmd_verify",
        "cmd_split",
        "run_sweep",
        "render_sweep_csv",
        "build_query_report",
    },
    "verify": set(SUITE_FUNCTIONS.values()),
    "surfaces": {"find_stable_split"},
}


@dataclass
class Stat:
    """Aggregate counters of one wrapped function.

    `hits` counts calls whose result passed (a true predicate, a survivor
    verdict); `items` sums a size read off the result (witnesses, items
    checked, sweep rows)."""

    layer: str
    name: str
    calls: int = 0
    ns: int = 0
    self_ns: int = 0
    direct: int = 0
    nested: int = 0
    hits: int = 0
    items: int = 0


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int


def _observe_predicate(stat: Stat, result) -> None:
    if result:
        stat.hits += 1


def _observe_verdict(stat: Stat, result) -> None:
    if result.is_survivor:
        stat.hits += 1
        stat.items += len(result.witnesses)


def _observe_report(stat: Stat, result) -> None:
    stat.items += result.checked


def _observe_rows(stat: Stat, result) -> None:
    stat.items += len(result)


OBSERVERS = {
    "sieve.scan": _observe_verdict,
    "sieve.genus_caps_ok": _observe_predicate,
    "sieve.range_thm41": _observe_predicate,
    "cli.run_sweep": _observe_rows,
    **{f"verify.{fn}": _observe_report for fn in SUITE_FUNCTIONS.values()},
}


def _noop(x):
    return x


def public_functions(module: types.ModuleType) -> dict:
    """Public callables defined in `module` itself (lru_cache wrappers
    included; classes and imported names excluded)."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and callable(obj)
        and not isinstance(obj, type)
        and getattr(obj, "__module__", None) == module.__name__
    }


@dataclass
class Tracer:
    """Wraps the public functions of `modules` (layer name -> module).

    Use as a context manager: entering installs the wrappers, leaving
    restores the original functions."""

    modules: dict
    stats: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    inner_ns: float = 0.0
    outer_ns: float = 0.0
    _originals: dict = field(default_factory=dict)
    # One entry per active wrapped call: the time spent in its wrapped
    # callees and how many it made.  Plain ints, so that the wrapper
    # allocates nothing the garbage collector tracks; the root entry
    # collects what no wrapped function encloses.
    _child_ns: list = field(default_factory=lambda: [0])
    _child_calls: list = field(default_factory=lambda: [0])
    _span_stack: list = field(default_factory=lambda: [-1])
    _tally: list = field(default_factory=lambda: [0])
    _rounds: list = field(default_factory=list)

    def _wrap(self, fn, stat: Stat, observe, span_name):
        child_ns = self._child_ns
        child_calls = self._child_calls
        tally = self._tally
        spans = self.spans
        span_stack = self._span_stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            child_calls[-1] += 1
            child_calls.append(0)
            child_ns.append(0)
            tally[0] += 1
            first = tally[0]
            if span_name is not None:
                span_id = len(spans)
                spans.append(Span(span_name, 0, 0, span_stack[-1]))
                span_stack.append(span_id)
            start = clock()
            try:
                # Without keywords, call without building a new dict
                # inside the timed window.
                result = fn(*args, **kwargs) if kwargs else fn(*args)
            finally:
                elapsed = clock() - start
                callee_ns = child_ns.pop()
                child_ns[-1] += elapsed
                stat.calls += 1
                stat.ns += elapsed
                stat.self_ns += elapsed - callee_ns
                stat.direct += child_calls.pop()
                stat.nested += tally[0] - first
                if span_name is not None:
                    span_stack.pop()
                    spans[span_id].start_ns = start
                    spans[span_id].end_ns = start + elapsed
            if observe is not None:
                observe(stat, result)
            return result

        functools.update_wrapper(wrapper, fn)
        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def calibrate(self, calls: int = 50_000, rounds: int = 9) -> None:
        """Measure the wrapper's own per-call cost on a no-op function.

        `outer_ns` is the total cost a wrapped call adds for its caller,
        minus `inner_ns`, the part the wrapper records as the call's own
        time beyond what a bare call costs.  Each call adds `rounds`
        rounds and the estimate is the median over every round so far,
        so calibrating both before and after a pass covers the noise of
        a shared host during it."""
        clock = time.perf_counter_ns
        for _ in range(rounds):
            stat = Stat("probe", "noop")
            wrapped = self._wrap(_noop, stat, None, None)
            start = clock()
            for i in range(calls):
                _noop(i)
            bare = clock() - start
            start = clock()
            for i in range(calls):
                wrapped(i)
            traced = clock() - start
            self._rounds.append(((traced - bare) / calls, (stat.ns - bare) / calls))
        self._child_ns[0] = self._child_calls[0] = self._tally[0] = 0
        total = max(statistics.median(t for t, _ in self._rounds), 0.0)
        self.inner_ns = min(max(statistics.median(i for _, i in self._rounds), 0.0), total)
        self.outer_ns = total - self.inner_ns

    def __enter__(self) -> "Tracer":
        for layer, module in self.modules.items():
            for name, fn in public_functions(module).items():
                key = f"{layer}.{name}"
                stat = self.stats.setdefault(key, Stat(layer, name))
                span_name = key if name in SPAN_FUNCTIONS.get(layer, ()) else None
                self._originals[key] = (module, name, fn)
                setattr(module, name, self._wrap(fn, stat, OBSERVERS.get(key), span_name))
        return self

    def __exit__(self, *exc) -> None:
        for module, name, fn in self._originals.values():
            setattr(module, name, fn)
        self._originals.clear()

    def stat(self, key: str) -> Stat:
        return self.stats.get(key) or Stat(*key.split(".", 1))

    def net_inclusive_ns(self, key: str) -> float:
        """Time inside the function and everything it called, less the
        cost of its own wrapper and of every wrapped call beneath it."""
        s = self.stat(key)
        return s.ns - s.calls * self.inner_ns - s.nested * (self.inner_ns + self.outer_ns)

    def net_self_ns(self, key: str) -> float:
        """Time inside the function but outside wrapped callees, less
        the wrapper cost that lands in that window."""
        s = self.stat(key)
        return s.self_ns - s.calls * self.inner_ns - s.direct * self.outer_ns

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "calibration": {"inner_ns": self.inner_ns, "outer_ns": self.outer_ns},
            "spans": [
                {"id": i, "name": s.name, "start_ns": s.start_ns, "end_ns": s.end_ns, "parent": s.parent}
                for i, s in enumerate(self.spans)
            ],
        }
        path.write_text(json.dumps(payload) + "\n")


# Per-layer metrics, in the order they are printed: (name, unit).
PER_LAYER_METRICS = [
    ("bounds.castelnuovo_profile.calls", "count"),
    ("bounds.castelnuovo_profile.ns_per_call", "ns"),
    ("bounds.castelnuovo_profile.cache_hit_ratio", "ratio"),
    ("bounds.max_genus_pi.calls", "count"),
    ("bounds.max_genus_pi.cache_hit_ratio", "ratio"),
    ("bounds.cache_entries", "count"),
    ("bounds.self_s", "s"),
    ("sieve.scan.calls", "count"),
    ("sieve.scan.us_per_call", "us"),
    ("sieve.scan.survivor_ratio", "ratio"),
    ("sieve.witnesses_built", "count"),
    ("sieve.genus_caps_ok.calls", "count"),
    ("sieve.genus_caps_ok.ns_per_call", "ns"),
    ("sieve.genus_caps_ok.pass_ratio", "ratio"),
    ("sieve.case_slack.calls", "count"),
    ("sieve.case_slack.ns_per_call", "ns"),
    ("sieve.range_thm41.calls", "count"),
    ("sieve.range_thm41.ns_per_call", "ns"),
    ("sieve.range_thm41.in_range_ratio", "ratio"),
    ("sieve.r3_sieve.calls", "count"),
    ("sieve.r3_sieve.us_per_call", "us"),
    ("sieve.derived_slack.calls", "count"),
    ("sieve.self_s", "s"),
    ("surfaces.find_stable_split.calls", "count"),
    ("surfaces.find_stable_split.us_per_call", "us"),
    ("surfaces.self_s", "s"),
    ("surfaces.wall_share", "ratio"),
    *[
        (f"verify.{suite}.{part}", unit)
        for suite in SUITE_FUNCTIONS
        for part, unit in (("s", "s"), ("checked", "count"), ("us_per_item", "us"))
    ],
    ("cli.run_sweep.s", "s"),
    ("cli.render_sweep_csv.s", "s"),
    ("cli.build_query_report.s", "s"),
    ("cli.render_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("cli.sweep_rows", "count"),
    ("executor.speedup", "ratio"),
    ("executor.cpu_utilisation", "ratio"),
    ("trace.overhead_ratio", "ratio"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, cache_info: dict, output_bytes: int) -> dict:
    """Every per-layer metric the trace yields (executor and tracer
    metrics come from the untraced runs and are added by the caller).

    `cache_info` maps "layer.name" to the `cache_info()` of each cached
    function, read after the pass."""
    m = {}

    def per_call(key: str, scale: float) -> float:
        return _ratio(tracer.net_inclusive_ns(key), tracer.stat(key).calls) / scale

    def layer_self_s(layer: str) -> float:
        return sum(tracer.net_self_ns(k) for k, s in tracer.stats.items() if s.layer == layer) / 1e9

    for name in ("castelnuovo_profile", "max_genus_pi"):
        info = cache_info[f"bounds.{name}"]
        m[f"bounds.{name}.calls"] = tracer.stat(f"bounds.{name}").calls
        m[f"bounds.{name}.cache_hit_ratio"] = _ratio(info.hits, info.hits + info.misses)
    m["bounds.castelnuovo_profile.ns_per_call"] = per_call("bounds.castelnuovo_profile", 1)
    m["bounds.cache_entries"] = sum(info.currsize for info in cache_info.values())
    m["bounds.self_s"] = layer_self_s("bounds")

    scan = tracer.stat("sieve.scan")
    m["sieve.scan.calls"] = scan.calls
    m["sieve.scan.us_per_call"] = per_call("sieve.scan", 1e3)
    m["sieve.scan.survivor_ratio"] = _ratio(scan.hits, scan.calls)
    m["sieve.witnesses_built"] = scan.items
    caps = tracer.stat("sieve.genus_caps_ok")
    m["sieve.genus_caps_ok.calls"] = caps.calls
    m["sieve.genus_caps_ok.ns_per_call"] = per_call("sieve.genus_caps_ok", 1)
    m["sieve.genus_caps_ok.pass_ratio"] = _ratio(caps.hits, caps.calls)
    m["sieve.case_slack.calls"] = tracer.stat("sieve.case_slack").calls
    m["sieve.case_slack.ns_per_call"] = per_call("sieve.case_slack", 1)
    in_range = tracer.stat("sieve.range_thm41")
    m["sieve.range_thm41.calls"] = in_range.calls
    m["sieve.range_thm41.ns_per_call"] = per_call("sieve.range_thm41", 1)
    m["sieve.range_thm41.in_range_ratio"] = _ratio(in_range.hits, in_range.calls)
    m["sieve.r3_sieve.calls"] = tracer.stat("sieve.r3_sieve").calls
    m["sieve.r3_sieve.us_per_call"] = per_call("sieve.r3_sieve", 1e3)
    m["sieve.derived_slack.calls"] = tracer.stat("sieve.derived_slack").calls
    m["sieve.self_s"] = layer_self_s("sieve")

    m["surfaces.find_stable_split.calls"] = tracer.stat("surfaces.find_stable_split").calls
    m["surfaces.find_stable_split.us_per_call"] = per_call("surfaces.find_stable_split", 1e3)
    m["surfaces.self_s"] = layer_self_s("surfaces")
    m["surfaces.wall_share"] = _ratio(
        m["surfaces.self_s"], tracer.net_inclusive_ns("cli.main") / 1e9
    )

    for suite, fn in SUITE_FUNCTIONS.items():
        key = f"verify.{fn}"
        seconds = tracer.net_inclusive_ns(key) / 1e9
        checked = tracer.stat(key).items
        m[f"verify.{suite}.s"] = seconds
        m[f"verify.{suite}.checked"] = checked
        m[f"verify.{suite}.us_per_item"] = _ratio(seconds * 1e6, checked)

    for fn in ("run_sweep", "render_sweep_csv", "build_query_report"):
        m[f"cli.{fn}.s"] = tracer.net_inclusive_ns(f"cli.{fn}") / 1e9
    m["cli.render_s"] = (
        sum(tracer.net_self_ns(k) for k, s in tracer.stats.items() if s.layer == "cli" and s.name.startswith("cmd_"))
        / 1e9
    )
    m["cli.output_bytes"] = output_bytes
    m["cli.sweep_rows"] = tracer.stat("cli.run_sweep").items
    return m
