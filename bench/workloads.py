"""The benchmark's workloads: the CLI arguments each one runs, the
universe it covers, and how its output is reduced to a digest that is
compared against `references.json`.

Every workload is one `rigidity-sieve` command.  The full sizes are the
ones users wait on; `smoke=True` selects tiny universes of the same
shape, used only by the benchmark's own tests.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

# query-deep draws its degree D from the seed among these values and
# asks for genus D + 1 in P^100.  Work is linear in D, so every seed
# costs about the same; the reference digest of each is recorded.
QUERY_R = 100
QUERY_DEGREES = range(980_000, 1_000_001, 625)
SMOKE_QUERY_DEGREES = range(980, 1_001, 5)

# Default bounds of `verify all` (the argparse defaults in cli.py and
# the fixed r3 bound in its suite dispatch); recorded with each result.
VERIFY_ALL_UNIVERSE = {
    "spots": {"grid_max": 50},
    "r3": {"d_max": 200},
    "thm41": {"r": "4..10", "d_max": 500},
    "derived": {"r": "4..10", "alpha_max": 60, "m_max": 20},
    "case34": {"r": "4..10", "d_max": 400},
    "r11": {"r": "11..12", "d_max": 400},
    "r5window": {"d": "101..113"},
    "splits": {"a_max": 12, "b_max": 60, "e_max": 4},
}
SMOKE_VERIFY_ARGS = ["--d-max", "24", "--alpha-max", "12", "--a-max", "5", "--b-max", "12", "--e-max", "1"]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.  A universe is the dict of inputs one run
    uses; `universes` lists every one the seed can select."""

    name: str
    why: str
    # Why the seed does or does not change the inputs.
    seed_use: str

    def universes(self, smoke: bool) -> list:
        raise NotImplementedError

    def universe(self, seed: int, smoke: bool) -> dict:
        return self.universes(smoke)[0]

    def argv(self, universe: dict) -> list:
        raise NotImplementedError

    def reference_key(self, universe: dict) -> str:
        return self.name + ("/smoke" if universe["smoke"] else "")

    def canonical(self, stdout: bytes) -> bytes:
        """The part of the output that must repeat byte for byte."""
        return stdout

    def digest(self, stdout: bytes) -> str:
        return _sha256(self.canonical(stdout))


class VerifyAll(Workload):
    def universes(self, smoke):
        if smoke:
            return [{"smoke": True, "args": SMOKE_VERIFY_ARGS}]
        return [{"smoke": False, **VERIFY_ALL_UNIVERSE}]

    def argv(self, universe):
        extra = universe["args"] if universe["smoke"] else []
        return ["verify", "all", *extra, "--format", "json"]

    def canonical(self, stdout):
        """The JSON payload as the CLI prints it, without `metadata`,
        which holds the elapsed time."""
        payload = json.loads(stdout)
        payload.pop("metadata", None)
        return (json.dumps(payload, indent=2) + "\n").encode()


class SweepR9(Workload):
    def universes(self, smoke):
        return [{"smoke": smoke, "r": 9, "d_max": 40 if smoke else 300, "g": "1..2d", "format": "csv"}]

    def argv(self, universe):
        return ["sweep", "--r", "9", "--d-max", str(universe["d_max"])]


class QueryDeep(Workload):
    def universes(self, smoke):
        degrees = SMOKE_QUERY_DEGREES if smoke else QUERY_DEGREES
        return [{"smoke": smoke, "r": QUERY_R, "d": d, "g": d + 1, "format": "text"} for d in degrees]

    def universe(self, seed, smoke):
        return random.Random(seed).choice(self.universes(smoke))

    def argv(self, universe):
        return ["query", "--r", str(universe["r"]), "--d", str(universe["d"]), "--g", str(universe["g"])]

    def reference_key(self, universe):
        return f"{super().reference_key(universe)}/d={universe['d']}"


WORKLOADS = {
    w.name: w
    for w in (
        VerifyAll(
            "verify-all",
            "paper-reproduction path: 2.1 M exclusion scans, serial suites and the thm41 pool; executor and kernel work show here",
            "ignored: the default bounds of `verify all` are the paper's fixed universe",
        ),
        SweepR9(
            "sweep-r9",
            "survivor-dominated: 90,300 CSV rows and 2.2 M witnesses through the sweep pool; witness building and output show here",
            "ignored: r = 9, d <= 300 is a fixed universe of the paper's range sweep",
        ),
        QueryDeep(
            "query-deep",
            "one verdict with ~596 k distinct-alpha witnesses: the memory workload, bypasses the executor and defeats the caches",
            "picks D from 33 recorded degrees in [980000, 1000000]",
        ),
    )
}
