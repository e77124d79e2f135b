"""Tests for the brute-force verification sweeps.

The mutation tests corrupt the genus-cap profile via monkeypatching and
assert the sweeps detect the corruption; every sweep runs in this
process, so the patched function is the one the sweep actually calls.
"""

from collections import Counter
from functools import partial
from itertools import count

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rigidity_sieve import bounds, cli, sieve, surfaces, verify
from rigidity_sieve.sieve import Ineq, SieveCase
from rigidity_sieve.surfaces import DivisorClass
from test_sieve import naive_alpha_window, uncapped_intervals

REAL_PROFILE = bounds.castelnuovo_profile


def pi1_off_by_one(d, alpha):
    prof = REAL_PROFILE(d, alpha)
    return prof._replace(pi1=prof.pi1 + 1)


def drop_mu2_case(d, alpha):
    prof = REAL_PROFILE(d, alpha)
    if prof.mu2 == 0:
        return prof._replace(mu2=1, pi2=prof.pi2 + 1)
    return prof


def caps_raised_by_40(d, alpha):
    prof = REAL_PROFILE(d, alpha)
    return prof._replace(pi1=prof.pi1 + 40, pi2=prof.pi2 + 40)


def pi2_raised_by_1(d, alpha):
    prof = REAL_PROFILE(d, alpha)
    return prof._replace(pi2=prof.pi2 + 1)


def pi2_raised_by_40(d, alpha):
    prof = REAL_PROFILE(d, alpha)
    return prof._replace(pi2=prof.pi2 + 40)


def pi1_lowered_by_1(d, alpha):
    prof = REAL_PROFILE(d, alpha)
    return prof._replace(pi1=prof.pi1 - 1)


def pi2_lowered_by_1(d, alpha):
    prof = REAL_PROFILE(d, alpha)
    return prof._replace(pi2=prof.pi2 - 1)


def caps_lowered_by_5(d, alpha):
    prof = REAL_PROFILE(d, alpha)
    return prof._replace(pi1=prof.pi1 - 5, pi2=prof.pi2 - 5)


# Every suite that reads the genus caps, on a small universe: label -> run.
MATRIX_SUITES = {
    "spots": verify.verify_spot_values,
    **{f"thm41 r={r}": partial(verify.verify_thm41, r, 200) for r in range(4, 11)},
    **{f"derived r={r}": partial(verify.verify_derived_claims, r, 30) for r in range(4, 11)},
    "case34": partial(verify.verify_case34_never, 4, 10, 150),
    **{f"r11 r={r}": partial(verify.verify_r_ge_11, r, 150) for r in (11, 12)},
    "r5window": verify.verify_r5_window,
}

# The pinned mutation matrix: each profile mutation with the suites of
# MATRIX_SUITES it fails (the real profile fails none).  A lowered cap
# only removes survivors, so the grid suites' one-sided claims miss it.
# A change to a row is a change of mutation reach, to be recorded with
# its reason.
MUTATION_MATRIX = {
    REAL_PROFILE: set(),
    pi1_off_by_one: {"spots", "thm41 r=7"},
    pi1_lowered_by_1: {"spots"},
    drop_mu2_case: {
        "thm41 r=5", "thm41 r=8", "thm41 r=9",
        "derived r=4", "derived r=5", "derived r=10",
        "r11 r=11", "r11 r=12",
    },
    pi2_raised_by_1: {
        "thm41 r=5", "thm41 r=6", "thm41 r=8", "thm41 r=9", "thm41 r=10",
        "derived r=9",
        "r11 r=11", "r11 r=12",
    },
    pi2_lowered_by_1: {"derived r=9"},
}


# ------------------------------------------------------------- oracles
#
# The per-point loops the suites ran before they read genus intervals:
# one scan (or one alpha walk) per (d, g).  Each returns
# (checked, violations, audit).


def naive_thm41(r, d_max, honor_exception=True):
    checked, violations = 0, []
    for d in range(1, d_max + 1):
        for g in sieve.range_genera(d, r, honor_exception=honor_exception):
            checked += 1
            verdict = sieve.scan(d, g, r)
            if verdict.is_survivor:
                violations.append({"d": d, "g": g, "witnesses": [w.to_dict() for w in verdict.witnesses]})
    return checked, violations, {}


def naive_case34(r_lo, r_hi, d_max):
    checked, violations = 0, []
    for r in range(r_lo, r_hi + 1):
        for d in range(1, d_max + 1):
            for g in range(2, d + 1):
                checked += 1
                for w in sieve.scan(d, g, r).witnesses:
                    violations.append(
                        {"r": r, "d": d, "g": g, "alpha": w.alpha, "case": w.case.value, "slack": w.slack}
                    )
    return checked, violations, {}


def r11_case_bounds(r):
    """Step (b)'s per-case degree bounds of the r11 suite, literally."""
    return {
        SieveCase.CASE1: lambda d, g: 2 * (r + 1) * d <= 3 * (r - 3) * g - r + 8,
        SieveCase.CASE2: lambda d, g: 2 * (r + 1) * d <= 3 * (r - 3) * g - r + 14,
        SieveCase.CASE3: lambda d, g: (r + 1) * d <= 2 * (r - 5) * g - r + 8,
        SieveCase.CASE4: lambda d, g: (r + 1) * d <= 2 * (r - 5) * g - r + 14,
    }


def naive_r11(r, d_max):
    case_bounds = r11_case_bounds(r)
    checked, violations, survivors = 0, [], 0
    for d in range(1, d_max + 1):
        in_range = sieve.range_genera(d, r)
        for g in range(2, 2 * d + 1):
            if d > 2 * g - 2:
                continue
            checked += 1
            if d < g:
                cases = ((SieveCase.CASE1, -(-d // 3)), (SieveCase.CASE2, -(-d // 3)))
            else:
                boundary = -(-(2 * d - g) // 3)
                cases = ((SieveCase.CASE3, boundary), (SieveCase.CASE4, boundary))
            is_survivor = False
            for case, boundary_lo in cases:
                window = naive_alpha_window(case, d, g, r)
                for alpha in window:
                    if alpha < boundary_lo:
                        continue
                    prof = bounds.castelnuovo_profile(d, alpha)
                    pi2_cap = d if case in (SieveCase.CASE1, SieveCase.CASE2) else g - 1
                    shape_ok = (
                        prof.m2 == 2
                        and prof.mu2 == 0
                        and prof.pi2 <= pi2_cap
                        and not sieve.genus_caps_ok(d, g, alpha)
                    )
                    if not shape_ok:
                        violations.append(
                            {
                                "part": "a",
                                "d": d,
                                "g": g,
                                "alpha": alpha,
                                "case": case.value,
                                "m2": prof.m2,
                                "mu2": prof.mu2,
                                "pi2": prof.pi2,
                            }
                        )
                if any(sieve.genus_caps_ok(d, g, alpha) for alpha in window):
                    is_survivor = True
                    if not case_bounds[case](d, g):
                        violations.append({"part": "b", "d": d, "g": g, "case": case.value})
            if is_survivor:
                survivors += 1
                if g in in_range:
                    violations.append({"part": "c", "d": d, "g": g})
    return checked, violations, {"survivors": survivors}


def interval_walk_r11(r, d_max):
    """verify_r_ge_11 as it ran before the certified runs:
    every (alpha, case) window interval is walked, with genus_cap read
    once per alpha.  naive_r11 walks every (d, g) and stops at small d;
    this oracle reaches the degrees where the certified runs are long."""
    checked, violations, survivors = 0, [], 0
    for d in range(1, d_max + 1):
        below_top = sieve.cap_numerator(SieveCase.CASE2, d, 0)
        above_top = sieve.cap_numerator(SieveCase.CASE4, d, 0)
        checked += len(range(sieve.least_special_genus(d), 2 * d + 1))
        found = []
        fired = {case.index: [] for case in SieveCase}
        cap_alpha = cap = None
        for alpha, case, g_lo, g_hi in uncapped_intervals(d, r, 2 * d):
            if alpha != cap_alpha:
                cap_alpha, cap = alpha, sieve.genus_cap(d, alpha)
            if g_lo <= cap:
                fired[case.index].append((g_lo, min(g_hi, cap)))
            if case.below:
                a_lo = g_lo if 3 * alpha >= below_top else g_hi + 1
            else:
                a_lo = max(g_lo, above_top - 3 * alpha)
            if a_lo > g_hi:
                continue
            prof = bounds.castelnuovo_profile(d, alpha)
            if prof.m2 != 2 or prof.mu2 != 0:
                a_hi = g_hi
            elif case.below:
                a_hi = g_hi if prof.pi2 > d else min(g_hi, cap)
            else:
                a_hi = min(g_hi, max(prof.pi2, cap))
            for g in range(a_lo, a_hi + 1):
                violation = {
                    "part": "a",
                    "d": d,
                    "g": g,
                    "alpha": alpha,
                    "case": case.value,
                    "m2": prof.m2,
                    "mu2": prof.mu2,
                    "pi2": prof.pi2,
                }
                found.append(((g, case.index, 0, alpha), violation))
        surviving = []
        for case in SieveCase:
            merged = verify._merged(fired[case.index])
            surviving.extend(merged)
            least = verify.r11_least_genus(case, d, r)
            for g_lo, g_hi in merged:
                for g in range(g_lo, min(g_hi, least - 1) + 1):
                    found.append(((g, case.index, 1, 0), {"part": "b", "d": d, "g": g, "case": case.value}))
        limit = sieve.range_g_limit(d, r)
        for g_lo, g_hi in verify._merged(surviving):
            survivors += g_hi - g_lo + 1
            for g in range(g_lo, min(g_hi, limit) + 1):
                found.append(((g, len(SieveCase) + 1, 2, 0), {"part": "c", "d": d, "g": g}))
        found.sort(key=lambda entry: entry[0])
        violations.extend(violation for _, violation in found)
    return checked, violations, {"survivors": survivors}


def naive_thm_r3(d_max):
    """Parts (a) and (b) of verify_thm_r3 from one r3_sieve per (d, g)."""
    checked, violations, survivors = 0, [], []
    for d in range(3, d_max + 1):
        for g in sieve.r3_genera(d):
            checked += 1
            if sieve.r3_sieve(d, g).is_survivor:
                survivors.append((d, g))
                if d >= 10:
                    violations.append({"part": "a", "d": d, "g": g})
                elif (d, g) not in verify._R3_ALLOWED:
                    violations.append({"part": "b", "d": d, "g": g})
    return checked, violations, {"survivors": survivors}


def thm_r3_grid_parts(report):
    """checked, violations and audit of verify_thm_r3's grid parts (a)
    and (b): the table parts (c) and (d) add len(_R3_EXPECTED) + 1
    checks."""
    checked = report.checked - len(verify._R3_EXPECTED) - 1
    return checked, [v for v in report.violations if v["part"] in ("a", "b")], report.audit


# The claims of the derived suite written out literally:
# r -> (inequality, the report's claim text, predicate on
# (alpha, m, eps, mu, i, j)).  verify._DERIVED_CLAIMS holds each as a
# tuple; the tests below check that its rendering and its evaluator
# reproduce these.
LITERAL_CLAIMS = {
    4: [
        (Ineq.INEQ7, "m1 >= 9 and i >= 7a+1", lambda a, m, e, mu, i, j: m >= 9 and i >= 7 * a + 1),
        (Ineq.INEQ9, "m1 >= 8 and 2j >= 11a-2", lambda a, m, e, mu, i, j: m >= 8 and 2 * j >= 11 * a - 2),
        (Ineq.INEQ10, "m2 >= 8 and 2j >= 11a+12", lambda a, m, e, mu, i, j: m >= 8 and 2 * j >= 11 * a + 12),
    ],
    5: [
        (Ineq.INEQ7, "m1 >= 5 and i > 3a+1", lambda a, m, e, mu, i, j: m >= 5 and i > 3 * a + 1),
        (Ineq.INEQ8, "m2 >= 5 and i >= 3a+5", lambda a, m, e, mu, i, j: m >= 5 and i >= 3 * a + 5),
        (Ineq.INEQ9, "m1 >= 5 and 5j >= 12a-4", lambda a, m, e, mu, i, j: m >= 5 and 5 * j >= 12 * a - 4),
        (Ineq.INEQ10, "m2 >= 5 and 5j >= 12a+16", lambda a, m, e, mu, i, j: m >= 5 and 5 * j >= 12 * a + 16),
    ],
    6: [
        (Ineq.INEQ7, "m1 >= 4 and 5i > 8a+2", lambda a, m, e, mu, i, j: m >= 4 and 5 * i > 8 * a + 2),
        (Ineq.INEQ8, "m2 >= 4 and 5i >= 8a+20", lambda a, m, e, mu, i, j: m >= 4 and 5 * i >= 8 * a + 20),
        (Ineq.INEQ9, "m1 >= 4 and 3j > 4a-2", lambda a, m, e, mu, i, j: m >= 4 and 3 * j > 4 * a - 2),
        (Ineq.INEQ10, "m2 >= 4 and 3j >= 4a+7", lambda a, m, e, mu, i, j: m >= 4 and 3 * j >= 4 * a + 7),
    ],
    7: [
        (Ineq.INEQ7, "m1 >= 3 and i >= a+1", lambda a, m, e, mu, i, j: m >= 3 and i >= a + 1),
        (Ineq.INEQ9, "m1 >= 3 and 5j > 4a-4", lambda a, m, e, mu, i, j: m >= 3 and 5 * j > 4 * a - 4),
        (Ineq.INEQ10, "m2 >= 3 and 5j >= 4a+1", lambda a, m, e, mu, i, j: m >= 3 and 5 * j >= 4 * a + 1),
    ],
    8: [
        (Ineq.INEQ8, "m2 >= 3 and 2i >= a+6", lambda a, m, e, mu, i, j: m >= 3 and 2 * i >= a + 6),
        (Ineq.INEQ10, "m2 >= 3 and 7j >= 3a+11", lambda a, m, e, mu, i, j: m >= 3 and 7 * j >= 3 * a + 11),
    ],
    9: [
        (Ineq.INEQ8, "m2 >= 3 and 8i >= 2a+23", lambda a, m, e, mu, i, j: m >= 3 and 8 * i >= 2 * a + 23),
        (Ineq.INEQ10, "m2 >= 2 and j >= 3", lambda a, m, e, mu, i, j: m >= 2 and j >= 3),
    ],
    10: [
        (Ineq.INEQ8, "m2 >= 2 and i >= 4", lambda a, m, e, mu, i, j: m >= 2 and i >= 4),
        (Ineq.INEQ9, "m1 >= 3 and 11j > a-4", lambda a, m, e, mu, i, j: m >= 3 and 11 * j > a - 4),
        (Ineq.INEQ10, "m2 >= 2 and j >= 2", lambda a, m, e, mu, i, j: m >= 2 and j >= 2),
    ],
}

# The two inequalities of one source case, spelled out.
LITERAL_PARTNER = {Ineq.INEQ7: Ineq.INEQ8, Ineq.INEQ8: Ineq.INEQ7, Ineq.INEQ9: Ineq.INEQ10, Ineq.INEQ10: Ineq.INEQ9}


# The derived suite's primary loop before it read linear forms: one
# derived_slack per consistent tuple, and the partner inequality per
# tuple through the profile.  Returns (checked, violations).  These
# oracles spell the division conventions, the side conditions and the
# partners literally, and read no attribute of Ineq.


def _consistent_tuples(which, alpha, m_max):
    """Yield (m, eps, mu, d) in the division convention of the inequality."""
    if which in (Ineq.INEQ7, Ineq.INEQ9):
        for m in range(1, m_max + 1):
            for eps in range(0, alpha):
                yield m, eps, (1 if eps == alpha - 1 else 0), m * alpha + eps + 1
    else:
        for m in range(1, m_max + 1):
            for eps in range(0, alpha + 1):
                mu = 2 if eps == alpha else (1 if eps >= alpha - 2 else 0)
                yield m, eps, mu, m * (alpha + 1) + eps + 1


def naive_ineq_holds_at(which, r, d, alpha):
    """Evaluate a derived inequality at the profile induced by (d, alpha)."""
    prof = bounds.castelnuovo_profile(d, alpha)
    if which in (Ineq.INEQ7, Ineq.INEQ9):
        value = sieve.derived_slack(which, r, alpha, prof.m1, prof.eps1, prof.mu1)
    else:
        value = sieve.derived_slack(which, r, alpha, prof.m2, prof.eps2, prof.mu2)
    return sieve.derived_satisfied(which, value)


def _raised_text(claim, shift):
    """The literal claim text with its m floor raised by shift."""
    floor, rest = claim.split(" and ", 1)
    name, k = floor.split(" >= ")
    return f"{name} >= {int(k) + shift} and {rest}"


def naive_derived_primary(r, alpha_max, m_max, shift=0):
    """The primary loop on the literal claims, each m floor raised by
    shift: a literal predicate reads m only through "m >= floor", so
    evaluating it at m - shift raises that floor."""
    checked, tuple_violations = 0, []
    for which, claim, consequence in LITERAL_CLAIMS[r]:
        for alpha in range(max(8, r), alpha_max + 1):
            for m, eps, mu, d in _consistent_tuples(which, alpha, m_max):
                if d < alpha + 2:
                    continue
                i = d + 1 - 3 * alpha
                j = d - 3 * alpha
                if which in (Ineq.INEQ7, Ineq.INEQ8):
                    if i < 0:
                        continue
                elif j < 0:
                    continue
                checked += 1
                value = sieve.derived_slack(which, r, alpha, m, eps, mu)
                if not sieve.derived_satisfied(which, value):
                    continue
                if not naive_ineq_holds_at(LITERAL_PARTNER[which], r, d, alpha):
                    continue
                if not consequence(alpha, m - shift, eps, mu, i, j):
                    tuple_violations.append(
                        {
                            "ineq": which.value,
                            "claim": _raised_text(claim, shift),
                            "alpha": alpha,
                            "m": m,
                            "eps": eps,
                            "mu": mu,
                            "d": d,
                        }
                    )
    return checked, tuple_violations


# The r = 4 cross loop as verify_derived_claims ran it, a second walk
# beside the primary, before the cross encoding moved into the one
# walk: per alpha, each d from the least window lo up to the last degree
# where some claim fails, each claim tested against its window, and each
# inequality read at most once per (alpha, d), at that profile.


def naive_r4_cross(alpha_max):
    """(keys, errors): the (ineq, d, alpha) where a failing r = 4 claim
    and its partner both hold at the profile of (d, alpha), and the first
    convention error per (alpha, d)."""
    keys, errors = [], {}
    for alpha in range(8, alpha_max + 1):
        claims = []
        for claim in verify._DERIVED_CLAIMS[4]:
            lo, fail, top = verify._claim_window(claim, alpha, verify.DERIVED_M_MAX)
            claims.append((claim[0], lo, min(fail, top + 1)))
        for d in range(min(lo for _, lo, _ in claims), max(stop for *_, stop in claims)):
            holds = {}
            try:
                for which, lo, stop in claims:
                    if not lo <= d < stop:
                        continue
                    for ineq in (which, LITERAL_PARTNER[which]):
                        if ineq not in holds:
                            holds[ineq] = naive_ineq_holds_at(ineq, 4, d, alpha)
                        if not holds[ineq]:
                            break
                    else:
                        keys.append((which.value, d, alpha))
            except ValueError as exc:
                errors.setdefault((alpha, d), str(exc))
    return keys, errors


def naive_primary_conventions(alpha_max, shift):
    """The first convention error per (alpha, d) of the r = 4 primary on
    the literal claims, each m floor raised by shift: the partner is read
    at the profile of a tuple where the claim fails and the inequality's
    own test passes."""
    errors = {}
    for which, _, consequence in LITERAL_CLAIMS[4]:
        for alpha in range(8, alpha_max + 1):
            for m, eps, mu, d in _consistent_tuples(which, alpha, verify.DERIVED_M_MAX):
                i, j = d + 1 - 3 * alpha, d - 3 * alpha
                side = i if which in (Ineq.INEQ7, Ineq.INEQ8) else j
                if d < alpha + 2 or side < 0 or consequence(alpha, m - shift, eps, mu, i, j):
                    continue
                if not sieve.derived_satisfied(which, sieve.derived_slack(which, 4, alpha, m, eps, mu)):
                    continue
                try:
                    naive_ineq_holds_at(LITERAL_PARTNER[which], 4, d, alpha)
                except ValueError as exc:
                    errors.setdefault((alpha, d), str(exc))
    return errors


def primary_parts(report):
    """checked and the tuple violations, without the r = 9 audit's and
    the r = 4 cross-assert's entries (those carry a "check" key)."""
    return report.checked, [v for v in report.violations if "check" not in v]


def stricter_claims(r, shift=1):
    """The claims of r with each m floor K raised by shift."""
    return [(which, k + shift, *rest) for which, k, *rest in verify._DERIVED_CLAIMS[r]]


def expected_derived_reads(r, alpha_max, m_max):
    """The profile and linear-form reads of verify_derived_claims(r,
    alpha_max, m_max), counted by brute force on the literal claims.  Its
    walk visits only the consistent tuples where the claim fails, and
    reads there one own form per (claim, alpha, m) with such a tuple,
    and one profile per such tuple: at every one for r = 4, where the
    cross encoding reads the profile too, and else at those passing
    their own inequality.  The partner is read through derived_slack,
    not through a form.  The r = 9 audit reads one form per alpha and
    one profile per m2 = 2 tuple passing the tenth inequality."""
    reads = Counter()
    for which, _, consequence in LITERAL_CLAIMS[r]:
        for alpha in range(max(8, r), alpha_max + 1):
            failing_m = set()
            for m, eps, mu, d in _consistent_tuples(which, alpha, m_max):
                i, j = d + 1 - 3 * alpha, d - 3 * alpha
                side = i if which in (Ineq.INEQ7, Ineq.INEQ8) else j
                if d < alpha + 2 or side < 0 or consequence(alpha, m, eps, mu, i, j):
                    continue
                failing_m.add(m)
                if r == 4 or sieve.derived_satisfied(which, sieve.derived_slack(which, r, alpha, m, eps, mu)):
                    reads["profile"] += 1
            reads["form"] += len(failing_m)
    if r == 9:
        for alpha in range(max(8, r), alpha_max + 1):
            reads["form"] += 1
            for m, eps, mu, d in _consistent_tuples(Ineq.INEQ10, alpha, 2):
                if m == 2 and d >= alpha + 2 and d >= 3 * alpha:
                    value = sieve.derived_slack(Ineq.INEQ10, r, alpha, m, eps, mu)
                    reads["profile"] += sieve.derived_satisfied(Ineq.INEQ10, value)
    return reads


def report_parts(report):
    return report.checked, report.violations, report.audit


class TestReportShape:
    def test_ok_tracks_violations(self):
        rep = verify.VerificationReport("x", {})
        assert rep.ok
        rep.violations.append({"bad": 1})
        assert not rep.ok

    def test_to_dict_carries_caveat(self):
        d = verify.VerificationReport("x", {"n": 3}, checked=7).to_dict()
        assert d["suite"] == "x"
        assert d["universe"] == {"n": 3}
        assert d["checked"] == 7
        assert d["ok"] is True
        assert d["caveat"] == verify.ENUMERATION_CAVEAT
        assert set(d) == {
            "suite",
            "universe",
            "checked",
            "ok",
            "violations",
            "audit",
            "caveat",
        }


class TestSpotValues:
    def test_clean_pass(self):
        rep = verify.verify_spot_values()
        assert rep.ok
        assert rep.checked == 17 + 50 * 51

    def test_grid_scales(self):
        assert verify.verify_spot_values(grid_max=10).checked == 17 + 10 * 11


class TestCase34Never:
    def test_holds_through_r10(self):
        rep = verify.verify_case34_never(4, 10, 120)
        assert rep.ok
        assert rep.checked == 7 * sum(d - 1 for d in range(2, 121))

    def test_fails_at_r11(self):
        rep = verify.verify_case34_never(11, 11, 400)
        assert not rep.ok
        assert len(rep.violations) == 123
        assert rep.violations[0] == {
            "r": 11,
            "d": 34,
            "g": 34,
            "alpha": 11,
            "case": "case4",
            "slack": 1,
        }

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            verify.verify_case34_never(3, 10, 50)
        with pytest.raises(ValueError):
            verify.verify_case34_never(8, 6, 50)


class TestThm41:
    def test_clean_pass_midsize(self):
        rep = verify.verify_thm41(9, 120)
        assert rep.ok
        assert rep.checked > 0

    def test_exception_surfaces_when_disabled(self):
        rep = verify.verify_thm41(9, 60, honor_exception=False)
        assert not rep.ok
        assert [(v["d"], v["g"]) for v in rep.violations] == [(30, 34)]
        wit = rep.violations[0]["witnesses"]
        assert len(wit) == 1
        assert (wit[0]["alpha"], wit[0]["case"], wit[0]["slack"]) == (9, "case2", 1)

    def test_deterministic(self):
        a = verify.verify_thm41(6, 90).to_dict()
        b = verify.verify_thm41(6, 90).to_dict()
        assert a == b

    def test_rejects_out_of_domain(self):
        with pytest.raises(ValueError):
            verify.verify_thm41(3, 100)
        with pytest.raises(ValueError):
            verify.verify_thm41(9, 10)


class TestDerivedClaims:
    @pytest.mark.parametrize("r", range(4, 11))
    def test_clean_pass(self, r):
        rep = verify.verify_derived_claims(r, 24)
        assert rep.ok
        assert rep.checked > 0

    def test_r9_second_profile_pairs(self):
        rep = verify.verify_derived_claims(9, 60)
        assert rep.ok
        assert rep.audit["m2_eq_2_pairs"] == [(30, 33), (30, 34)]
        # (30, 33) is listed only because the audit takes a floor where
        # the case-2 slack needs a ceiling; scan excludes it.
        assert not sieve.scan(30, 33, 9).is_survivor

    def test_r4_cross_encoding_agrees(self):
        rep = verify.verify_derived_claims(4, 30)
        assert rep.ok
        assert rep.audit["cross_encoding_violations"] == 0

    @pytest.mark.parametrize("shift", [0, 1])
    def test_r4_cross_loop_reports_an_inconsistent_profile(self, monkeypatch, shift):
        # The cross loop hands the profile's (eps, mu) to derived_slack,
        # which refuses a mu off the convention: that is a violation, and
        # the suite goes on to the next degree.
        monkeypatch.setitem(verify._DERIVED_CLAIMS, 4, stricter_claims(4, shift))
        monkeypatch.setattr(bounds, "castelnuovo_profile", drop_mu2_case)
        rep = verify.verify_derived_claims(4, 30)
        assert not rep.ok
        bad = [v for v in rep.violations if v.get("check") == "profile convention"]
        assert bad[0] == {"check": "profile convention", "d": 24, "alpha": 8, "error": "mu=1 inconsistent with eps=5, alpha=8"}
        assert len({(v["alpha"], v["d"]) for v in bad}) == len(bad) > 1

    @pytest.mark.parametrize("mutation", list(MUTATION_MATRIX), ids=lambda mutation: mutation.__name__)
    def test_r4_cross_encoding_matches_the_retired_walk(self, monkeypatch, mutation):
        # The cross encoding inside the one walk finds the keys and the
        # convention errors the separate per-alpha loop found; a primary
        # error comes first at its (alpha, d).
        monkeypatch.setattr(bounds, "castelnuovo_profile", mutation)
        for shift in (0, 1, 2):
            monkeypatch.setitem(verify._DERIVED_CLAIMS, 4, stricter_claims(4, shift))
            report = verify.verify_derived_claims(4, 30)
            keys, errors = naive_r4_cross(30)
            assert report.audit["cross_encoding_violations"] == len(keys), shift
            conventions = {(v["alpha"], v["d"]): v["error"] for v in report.violations if v.get("check") == "profile convention"}
            assert conventions == {**errors, **naive_primary_conventions(30, shift)}, shift
            primary_keys = {(v["ineq"], v["d"], v["alpha"]) for v in primary_parts(report)[1]}
            asserted = [v for v in report.violations if v.get("check") == "encoding cross-assert"]
            assert bool(asserted) == (primary_keys != set(keys)), shift

    def test_r4_cross_assert_catches_a_fault_in_the_primary_alone(self, monkeypatch):
        # Each own form's base lowered by 1 drops the failing tuples whose
        # own inequality holds with no room from the primary only: the
        # cross encoding reads derived_slack, not the forms.
        monkeypatch.setitem(verify._DERIVED_CLAIMS, 4, stricter_claims(4, 1))
        real = verify._linear_form

        def lowered(which, r, alpha, m):
            base, per_eps, per_mu = real(which, r, alpha, m)
            return base - 1, per_eps, per_mu

        monkeypatch.setattr(verify, "_linear_form", lowered)
        report = verify.verify_derived_claims(4, 30)
        [entry] = [v for v in report.violations if v.get("check") == "encoding cross-assert"]
        assert entry["tuple_only"] == [] and entry["pair_only"]
        assert report.audit["cross_encoding_violations"] == len(naive_r4_cross(30)[0])

    @pytest.mark.parametrize("r", range(4, 11))
    def test_drop_mu2_case_reaches_the_convention_checks(self, monkeypatch, r):
        # The primary reads the partner through derived_slack, which
        # checks its (eps, mu).  drop_mu2_case corrupts only the second convention,
        # which the claims of r = 8, 9 never read as a partner, and the
        # claims of r = 6, 7 read no partner at all on alpha <= 30: the
        # suite passes there under the mutation.  With every K raised by
        # 1, r = 6 and 7 read second-convention partners too.
        monkeypatch.setattr(bounds, "castelnuovo_profile", drop_mu2_case)
        for shift, failing in ((0, {4, 5, 10}), (1, {4, 5, 6, 7, 10})):
            monkeypatch.setitem(verify._DERIVED_CLAIMS, r, stricter_claims(r, shift))
            rep = verify.verify_derived_claims(r, 30)
            bad = [v for v in rep.violations if v.get("check") == "profile convention"]
            assert bool(bad) == (r in failing), shift
            assert rep.ok == (shift == 0 and r not in failing), shift
            assert len({(v["alpha"], v["d"]) for v in bad}) == len(bad)
            if (r, shift) == (5, 0):
                assert bad[0] == {"check": "profile convention", "d": 48, "alpha": 8, "error": "mu=1 inconsistent with eps=2, alpha=8"}

    def test_rejects_out_of_domain(self):
        with pytest.raises(ValueError):
            verify.verify_derived_claims(3, 20)
        with pytest.raises(ValueError):
            verify.verify_derived_claims(11, 20)
        with pytest.raises(ValueError):
            verify.verify_derived_claims(5, 7)
        # The suite starts at alpha = max(8, r): an empty alpha range is
        # refused, not passed vacuously.
        with pytest.raises(ValueError):
            verify.verify_derived_claims(10, 9)
        with pytest.raises(ValueError):
            verify.verify_derived_claims(9, 8)
        assert verify.verify_derived_claims(10, 10).checked > 0
        # Likewise an empty m range, and m_max = 1, whose only m yields
        # no tuple.
        for m_max in (1, 0, -1):
            with pytest.raises(ValueError):
                verify.verify_derived_claims(4, 60, m_max)
            with pytest.raises(ValueError):
                verify.check_derived_args(4, 60, m_max)

    @pytest.mark.parametrize("r", range(4, 11))
    def test_primary_loop_matches_naive_oracle(self, monkeypatch, r):
        alpha_lo = max(8, r)
        for alpha_max, m_max in ((alpha_lo, 2), (alpha_lo + 1, 2), (15, 3), (24, 20), (30, 25)):
            # A shift of m_max raises every K above m_max: the claim then
            # fails at every m, and the window is the whole eps range.
            for shift in (0, m_max):
                monkeypatch.setitem(verify._DERIVED_CLAIMS, r, stricter_claims(r, shift))
                report = verify.verify_derived_claims(r, alpha_max, m_max)
                monkeypatch.undo()
                assert primary_parts(report) == naive_derived_primary(r, alpha_max, m_max, shift)
                # The r = 4 cross encoding agrees with the primary.
                assert [v for v in report.violations if "check" in v] == []

    @pytest.mark.parametrize("r", range(4, 11))
    def test_reads_forms_and_profiles_only_where_the_claim_fails(self, monkeypatch, r):
        # A full eps walk would read a profile at every tuple passing its
        # own inequality, and a form at every (claim, alpha, m).
        want = expected_derived_reads(r, 60, verify.DERIVED_M_MAX)
        reads = Counter()

        def counted(key, function):
            def wrapper(*args):
                reads[key] += 1
                return function(*args)

            return wrapper

        monkeypatch.setattr(bounds, "castelnuovo_profile", counted("profile", REAL_PROFILE))
        monkeypatch.setattr(verify, "_linear_form", counted("form", verify._linear_form))
        assert verify.verify_derived_claims(r, 60).ok
        assert reads == want

    @pytest.mark.parametrize("r", range(4, 11))
    def test_reports_violations_of_stricter_claims(self, monkeypatch, r):
        monkeypatch.setitem(verify._DERIVED_CLAIMS, r, stricter_claims(r))
        report = verify.verify_derived_claims(r, 30)
        checked, violations = primary_parts(report)
        assert violations
        assert (checked, violations) == naive_derived_primary(r, 30, 20, shift=1)
        if r == 4:
            assert report.audit["cross_encoding_violations"] > 0
            assert not [v for v in report.violations if v.get("check") == "encoding cross-assert"]

    @given(
        data=st.data(),
        r=st.integers(4, 10),
        m_max=st.integers(2, 20),
        # 20 raises every K above m_max: the window is the whole eps range.
        shift=st.sampled_from((0, 1, 2, 20)),
    )
    def test_primary_loop_matches_naive_oracle_on_random_bounds(self, data, r, m_max, shift):
        alpha_max = data.draw(st.integers(max(8, r), 30), label="alpha_max")
        with pytest.MonkeyPatch.context() as mp:
            mp.setitem(verify._DERIVED_CLAIMS, r, stricter_claims(r, shift))
            report = verify.verify_derived_claims(r, alpha_max, m_max)
        assert primary_parts(report) == naive_derived_primary(r, alpha_max, m_max, shift)

    @pytest.mark.parametrize("r", range(4, 11))
    def test_claims_render_the_literal_text(self, r):
        rendered = [(claim[0], verify._claim_text(claim)) for claim in verify._DERIVED_CLAIMS[r]]
        assert rendered == [(which, text) for which, text, _ in LITERAL_CLAIMS[r]]

    @pytest.mark.parametrize("r", range(4, 11))
    def test_claim_evaluator_matches_the_literal_predicates(self, r):
        # Every (alpha, d) with alpha 8..79 and alpha + 2 <= d < 40*alpha,
        # m the quotient of d - 1 in the claim's convention and i, j the
        # side variables of d: the claim holds exactly from the window's
        # fail up.
        for claim, (which, _, predicate) in zip(verify._DERIVED_CLAIMS[r], LITERAL_CLAIMS[r], strict=True):
            for alpha in range(8, 80):
                q = alpha if which in (Ineq.INEQ7, Ineq.INEQ9) else alpha + 1
                fail = verify._claim_window(claim, alpha, verify.DERIVED_M_MAX)[1]
                for d in range(alpha + 2, 40 * alpha):
                    want = predicate(alpha, (d - 1) // q, 0, 0, d + 1 - 3 * alpha, d - 3 * alpha)
                    assert (d >= fail) == want, (claim, alpha, d)

    def test_claim_coefficients_are_positive(self):
        # The claim window relies on c > 0: the claim then holds exactly
        # from its least d up.
        claims = [claim for r in range(4, 11) for claim in verify._DERIVED_CLAIMS[r]]
        assert len(claims) == 21
        assert all(c > 0 for _, _, c, *_ in claims)

    @pytest.mark.parametrize("r", range(4, 11))
    def test_claim_least_degree_is_the_literal_threshold(self, r):
        # At m = K the literal predicate fails below one degree and holds
        # from it up, and at m = K - 1 it fails everywhere; so the claim
        # fails exactly below the larger of that degree and K*q + 1, the
        # first degree of m = K.
        for claim, (which, _, predicate) in zip(verify._DERIVED_CLAIMS[r], LITERAL_CLAIMS[r], strict=True):
            k = claim[1]
            for alpha in range(8, 80):
                q = alpha if which in (Ineq.INEQ7, Ineq.INEQ9) else alpha + 1
                degrees = range(0, 12 * alpha)
                holds = [predicate(alpha, k, 0, 0, d + 1 - 3 * alpha, d - 3 * alpha) for d in degrees]
                least = holds.index(True)
                assert least > 0 and all(holds[least:]), (claim, alpha)
                fail = verify._claim_window(claim, alpha, verify.DERIVED_M_MAX)[1]
                assert fail == max(k * q + 1, least), (claim, alpha)
                assert not any(predicate(alpha, k - 1, 0, 0, d + 1 - 3 * alpha, d - 3 * alpha) for d in degrees)

    @pytest.mark.parametrize("r", range(4, 11))
    def test_claim_window_spans_the_literal_universe(self, r):
        # The window's lo..top are exactly the degrees of the consistent
        # tuples with d >= alpha + 2 and the side variable >= 0.
        for claim, (which, _, _) in zip(verify._DERIVED_CLAIMS[r], LITERAL_CLAIMS[r], strict=True):
            for alpha in range(8, 41):
                for m_max in (2, 3, 20):
                    degrees = [
                        d
                        for _, _, _, d in _consistent_tuples(which, alpha, m_max)
                        if d >= alpha + 2 and (d + 1 if which in (Ineq.INEQ7, Ineq.INEQ8) else d) >= 3 * alpha
                    ]
                    lo, _, top = verify._claim_window(claim, alpha, m_max)
                    assert degrees == list(range(lo, top + 1)), (claim, alpha, m_max)

    @given(data=st.data(), alpha=st.integers(8, 2**40), m_max=st.integers(2, 40))
    def test_claim_window_on_large_alpha(self, data, alpha, m_max):
        # The window against the literal universe and predicate at its
        # three bounds and at a drawn degree.
        r = data.draw(st.integers(4, 10), label="r")
        pairs = list(zip(verify._DERIVED_CLAIMS[r], LITERAL_CLAIMS[r], strict=True))
        claim, (which, _, predicate) = data.draw(st.sampled_from(pairs), label="claim")
        q = alpha if which in (Ineq.INEQ7, Ineq.INEQ9) else alpha + 1
        lo, fail, top = verify._claim_window(claim, alpha, m_max)

        def in_universe(d):
            side = d + 1 - 3 * alpha if which in (Ineq.INEQ7, Ineq.INEQ8) else d - 3 * alpha
            return d >= alpha + 2 and side >= 0 and (d - 1) // q <= m_max

        def holds(d):
            return predicate(alpha, (d - 1) // q, 0, 0, d + 1 - 3 * alpha, d - 3 * alpha)

        assert in_universe(lo) and not in_universe(lo - 1)
        assert in_universe(top) and not in_universe(top + 1)
        assert holds(fail) and not holds(fail - 1)
        d = data.draw(st.integers(1, 50 * alpha), label="d")
        assert holds(d) == (d >= fail)

    @pytest.mark.parametrize("r", (5, 6, 7, 10))
    def test_partner_check_reads_the_patched_profile(self, monkeypatch, r):
        # The partner inequality is evaluated at the profile of (d, alpha);
        # a corrupted mu2 must reach it, so the violations change.
        monkeypatch.setitem(verify._DERIVED_CLAIMS, r, stricter_claims(r))
        _, clean = primary_parts(verify.verify_derived_claims(r, 30))
        monkeypatch.setattr(bounds, "castelnuovo_profile", drop_mu2_case)
        _, corrupted = primary_parts(verify.verify_derived_claims(r, 30))
        assert corrupted != clean

    def test_linear_form_premise(self):
        # For fixed (inequality, r, alpha, m) derived_slack is linear in
        # (eps, mu); the form read off three of its values
        # must give derived_slack - floor on every consistent tuple.
        for which in Ineq:
            for r in range(4, 11):
                for alpha in range(8, 41):
                    for m in range(1, 26):
                        base, per_eps, per_mu = verify._linear_form(which, r, alpha, m)
                        for _, eps, mu, _ in _consistent_tuples(which, alpha, 1):
                            value = sieve.derived_slack(which, r, alpha, m, eps, mu)
                            form = base + per_eps * eps + per_mu * mu
                            floor = 0 if sieve.derived_satisfied(which, 0) else 1
                            assert form == value - floor
                            assert (form >= 0) == sieve.derived_satisfied(which, value)


class TestHighR:
    def test_clean_pass(self):
        rep = verify.verify_r_ge_11(11, 80)
        assert rep.ok
        assert rep.audit["survivors"] > 0

    def test_r12(self):
        assert verify.verify_r_ge_11(12, 60).ok

    def test_rejects_low_r(self):
        with pytest.raises(ValueError):
            verify.verify_r_ge_11(10, 50)

    def test_walks_6182_alpha_case_on_the_verify_all_universe(self, monkeypatch):
        # The window intervals that r11 walks past the certified runs on
        # its universe of `verify all` (r = 11, 12, d <= 400), by side of
        # d < g and of the certified top (3*alpha < d).  Every span here
        # that passes the start test passes the join test at its end, so
        # the 468 case-1/2 alphas walked at or below the top come from
        # spans whose first cap lies under g_max, and no case-3/4 alpha
        # there is walked.  A shorter certificate walks more.
        walked = Counter()
        real = sieve._span_intervals

        def counting(d, pieces):
            for entry in real(d, pieces):
                walked[entry[1].below, 3 * entry[0] < d] += 1
                yield entry

        monkeypatch.setattr(sieve, "_span_intervals", counting)
        for r in (11, 12):
            verify.verify_r_ge_11(r, 400)
        assert walked.total() == 6182
        assert walked[False, False] + walked[False, True] == 4979
        assert (walked[True, True], walked[False, True]) == (468, 0)

    def test_least_genus_is_where_the_degree_bound_starts(self):
        # Step (b) expands only the g below each case's least genus.
        for r in range(11, 21):
            for case, holds in r11_case_bounds(r).items():
                for d in range(1, 401):
                    first = next(g for g in count() if holds(d, g))
                    assert verify.r11_least_genus(case, d, r) == first, (case, d, r)

    def test_case4_bound_is_the_complement_of_the_range_row(self):
        # Step (b)'s case-4 bound fails exactly on the r >= 11 range.
        for r in range(11, 61):
            for d in range(1, 2001):
                assert verify.r11_least_genus(SieveCase.CASE4, d, r) == sieve.range_g_limit(d, r) + 1, (d, r)

    @given(r=st.integers(11, 2**63 - 1), d=st.integers(1, 2**63 - 1))
    def test_case4_bound_is_the_complement_of_the_range_row_up_to_the_input_ceiling(self, r, d):
        assert verify.r11_least_genus(SieveCase.CASE4, d, r) == sieve.range_g_limit(d, r) + 1


class TestR5Window:
    def test_canonical_window_is_clean_and_empty(self):
        rep = verify.verify_r5_window()
        assert rep.ok
        assert rep.checked == 3056
        assert rep.audit["survivors"] == []
        assert rep.universe["diagnostic"] is False

    def test_widened_window_is_diagnostic(self):
        rep = verify.verify_r5_window(101, 120)
        assert rep.universe["diagnostic"] is True
        assert rep.ok  # diagnostic mode records but never flags


class TestThmR3:
    def test_clean_pass_with_known_survivors(self):
        rep = verify.verify_thm_r3(60)
        assert rep.ok
        assert rep.audit["survivors"] == [
            (8, 8),
            (8, 9),
            (9, 9),
            (9, 10),
            (9, 11),
            (9, 12),
        ]

    def test_rejects_small_bound(self):
        with pytest.raises(ValueError):
            verify.verify_thm_r3(9)


class TestSplits:
    def test_clean_pass(self):
        rep = verify.verify_splits()
        assert rep.ok
        assert rep.checked == 2561

    def test_small_grid(self):
        assert verify.verify_splits(6, 20, 2).ok

    def test_rejects_negative_grid(self):
        with pytest.raises(ValueError):
            verify.verify_splits(-1, 5, 2)

    def test_refuses_exactly_the_grids_without_a_class(self):
        # A grid with no smooth irreducible class of genus >= 2 would
        # check only the canonical splits and pass.
        def checked(total):
            return surfaces.smooth_irreducible_exists(total) and surfaces.arith_genus(total) >= 2

        for a_max in range(8):
            for b_max in range(20):
                for e_max in range(4):
                    empty = not any(
                        checked(DivisorClass(a, b, e))
                        for e in range(e_max + 1)
                        for a in range(2, a_max + 1)
                        for b in range(b_max + 1)
                    )
                    if empty:
                        with pytest.raises(ValueError, match="no class"):
                            verify.check_splits_args(a_max, b_max, e_max)
                    else:
                        verify.check_splits_args(a_max, b_max, e_max)


class TestMutationDetection:
    @pytest.mark.parametrize("mutation", list(MUTATION_MATRIX), ids=lambda mutation: mutation.__name__)
    def test_mutation_matrix(self, monkeypatch, mutation):
        monkeypatch.setattr(bounds, "castelnuovo_profile", mutation)
        failing = {label for label, run in MATRIX_SUITES.items() if not run().ok}
        assert failing == MUTATION_MATRIX[mutation]

    def test_pi1_off_by_one_trips_spot_suite(self, monkeypatch):
        monkeypatch.setattr(bounds, "castelnuovo_profile", pi1_off_by_one)
        rep = verify.verify_spot_values()
        assert not rep.ok
        assert any(v["check"] == "pi1(8,3)" for v in rep.violations)

    def test_pi1_off_by_one_trips_range_sweep(self, monkeypatch):
        monkeypatch.setattr(bounds, "castelnuovo_profile", pi1_off_by_one)
        rep = verify.verify_thm41(7, 40)
        assert not rep.ok
        assert (25, 34) in [(v["d"], v["g"]) for v in rep.violations]

    def test_dropped_mu2_case_trips_range_sweep(self, monkeypatch):
        monkeypatch.setattr(bounds, "castelnuovo_profile", drop_mu2_case)
        rep = verify.verify_thm41(5, 50)
        assert not rep.ok
        assert (46, 101) in [(v["d"], v["g"]) for v in rep.violations]

    def test_clean_reruns_after_mutation(self):
        # The fixtures must not leak: the same sweeps pass on clean code.
        assert verify.verify_thm41(7, 40).ok
        assert verify.verify_thm41(5, 50).ok

    def test_case2_slack_lowered_by_2_reaches_every_reader(self, monkeypatch):
        # scan, the genus intervals, derived_slack (INEQ9/INEQ10) and the
        # r = 9 audit's genus floor all read the case-2 slack off
        # sieve.case_slack.  The audit walks the tuples passing INEQ10,
        # which the lowered slack cuts to none, so it reads no pair.
        real = sieve.case_slack

        def case2_lowered(case, d, g, r, alpha):
            return real(case, d, g, r, alpha) - (2 if case is SieveCase.CASE2 else 0)

        assert sieve.scan(30, 34, 9).is_survivor
        clean = sieve.witnesses_by_genus(30, 9, 40)
        derived_clean = {which: sieve.derived_slack(which, 9, 9, 2, 2, 0) for which in Ineq}
        assert verify.verify_derived_claims(9, 60).audit["m2_eq_2_pairs"] == [(30, 33), (30, 34)]
        monkeypatch.setattr(sieve, "case_slack", case2_lowered)
        assert not sieve.scan(30, 34, 9).is_survivor
        assert sieve.witnesses_by_genus(30, 9, 40) != clean
        for which in Ineq:
            lowered = derived_clean[which] - (4 if which.case is SieveCase.CASE2 else 0)
            assert sieve.derived_slack(which, 9, 9, 2, 2, 0) == lowered
        assert verify.verify_derived_claims(9, 60).audit["m2_eq_2_pairs"] == []

    def test_cap_numerator_lowered_by_1_reaches_every_reader(self, monkeypatch):
        # Each reader of the alpha-cap numerator moves when one case's
        # numerator is lowered by 1.
        real = sieve.cap_numerator

        def lower(lowered):
            monkeypatch.setattr(sieve, "cap_numerator", lambda case, d, g: real(case, d, g) - (case is lowered))

        witness = sieve.scan(30, 34, 9).witnesses[0]
        r11_clean = verify.verify_r_ge_11(11, 80)
        assert (witness.i, witness.j) == (4, 3)
        assert (verify._side(Ineq.INEQ7, 9, 30), verify._side(Ineq.INEQ9, 9, 30)) == (4, 3)
        assert (sieve.embed_dim_cap(29, 34), sieve.embed_dim_cap(30, 19)) == (10, 14)
        assert not any(v["part"] == "a" for v in r11_clean.violations)
        r3_clean = {d: sieve.r3_sieve(d, d) for d in (8, 9)}
        assert r3_clean[8].witnesses == (sieve.R3Witness(3, "dim-w-0", 5),)
        assert r3_clean[9].witnesses[-1] == sieve.R3Witness(3, "dim-w-pos", 2)

        lower(SieveCase.CASE1)
        witness = sieve.scan(30, 34, 9).witnesses[0]
        assert (witness.i, witness.j) == (3, 3)
        assert (verify._side(Ineq.INEQ7, 9, 30), verify._side(Ineq.INEQ9, 9, 30)) == (3, 3)
        assert sieve.embed_dim_cap(29, 34) == 9
        # The zero-dimensional branch's top and the no-alpha test, then
        # the positive-dimensional branch's slack, which reads i.
        assert sieve.r3_sieve(8, 8).reasons == (sieve.NO_ALPHA,)
        assert sieve.r3_sieve(9, 9).witnesses[-1] == sieve.R3Witness(3, "dim-w-pos", 1)

        lower(SieveCase.CASE2)
        witness = sieve.scan(30, 34, 9).witnesses[0]
        assert (witness.i, witness.j) == (4, 2)
        assert (verify._side(Ineq.INEQ7, 9, 30), verify._side(Ineq.INEQ9, 9, 30)) == (4, 2)
        # The positive-dimensional branch's top.
        assert [w.branch for w in sieve.r3_sieve(9, 9).witnesses] == ["dim-w-0"]
        # Lowering a numerator only narrows the case windows, so each
        # part-(a) violation comes from the boundary moving down.
        assert any(v["part"] == "a" for v in verify.verify_r_ge_11(11, 80).violations)

        lower(SieveCase.CASE3)
        assert sieve.embed_dim_cap(30, 19) == 13

        lower(SieveCase.CASE4)
        assert any(v["part"] == "a" for v in verify.verify_r_ge_11(11, 80).violations)

    def test_euler_normal_raised_by_1_reaches_every_reader(self, monkeypatch):
        # case_slack (and so scan, the spans and derived_slack), the
        # r = 3 chain's slacks, the spot values, part (d) of the r = 3
        # suite and query's invariant panel all read lambda off
        # bounds.euler_normal.
        real = bounds.euler_normal
        assert sieve.case_slack(SieveCase.CASE2, 30, 34, 9, 9) == 1
        assert sieve.r3_sieve(9, 9).witnesses == (sieve.R3Witness(3, "dim-w-0", 1), sieve.R3Witness(3, "dim-w-pos", 2))
        assert verify.verify_spot_values().ok
        assert not any(v["part"] == "d" for v in verify.verify_thm_r3(10).violations)
        assert cli.build_query_report(30, 34, 9)["invariants"]["lambda"] == 102

        monkeypatch.setattr(bounds, "euler_normal", lambda d, g, r: real(d, g, r) + 1)
        assert sieve.case_slack(SieveCase.CASE2, 30, 34, 9, 9) == 0
        assert sieve.r3_sieve(9, 9).witnesses == (sieve.R3Witness(3, "dim-w-0", 0), sieve.R3Witness(3, "dim-w-pos", 1))
        assert not verify.verify_spot_values().ok
        assert any(v["part"] == "d" for v in verify.verify_thm_r3(10).violations)
        assert cli.build_query_report(30, 34, 9)["invariants"]["lambda"] == 103

    def test_mu_raised_at_eps_0_reaches_every_reader(self, monkeypatch):
        # castelnuovo_profile, derived_slack's convention check and the
        # derived suite's own-inequality reads all read bounds.mu.
        real = bounds.mu
        profile = bounds.castelnuovo_profile.__wrapped__
        # alpha = 8: d = 28 has eps2 = 0 (eps1 = 3), d = 33 eps1 = 0 (eps2 = 5).
        assert [(profile(d, 8).mu1, profile(d, 8).mu2) for d in (28, 33)] == [(0, 0), (0, 0)]
        sieve.derived_slack(Ineq.INEQ8, 4, 8, 3, 0, 0)
        # The derived suite at r = 6, alpha = 8, m <= 6, with every claim
        # failing, so that each tuple passing both inequalities is a
        # violation recording its own mu.  Its forms are read clean and
        # its profiles uncached, so only the mu reads see the mutation.
        monkeypatch.setitem(verify._DERIVED_CLAIMS, 6, stricter_claims(6, 20))
        clean = verify.verify_derived_claims(6, 8, 6)
        forms = {(which, m): verify._linear_form(which, 6, 8, m) for which in Ineq for m in range(1, 8)}
        monkeypatch.setattr(verify, "_linear_form", lambda which, r, alpha, m: forms[which, m])
        monkeypatch.setattr(bounds, "castelnuovo_profile", profile)
        monkeypatch.setattr(bounds, "mu", lambda eps, alpha, first: real(eps, alpha, first) + (eps == 0))
        assert [(profile(d, 8).mu1, profile(d, 8).mu2) for d in (28, 33)] == [(0, 1), (1, 0)]
        with pytest.raises(ValueError, match="inconsistent"):
            sieve.derived_slack(Ineq.INEQ8, 4, 8, 3, 0, 0)
        sieve.derived_slack(Ineq.INEQ8, 4, 8, 3, 0, 1)
        raised = verify.verify_derived_claims(6, 8, 6)
        clean_mus = [v["mu"] for v in clean.violations if v["eps"] == 0]
        raised_mus = [v["mu"] for v in raised.violations if v["eps"] == 0]
        assert clean_mus and set(clean_mus) == {0}
        assert raised_mus and set(raised_mus) == {1}

    def test_castelnuovo_bound_shifted_reaches_every_reader(self, monkeypatch):
        # castelnuovo_profile and derived_slack both read pi1 and pi2 off
        # bounds.castelnuovo_bound.
        real = bounds.castelnuovo_bound
        profile = bounds.castelnuovo_profile.__wrapped__
        clean_profile = profile(30, 9)
        # eps = 2, mu = 0 is consistent in both conventions at alpha = 9.
        clean = {which: sieve.derived_slack(which, 9, 9, 2, 2, 0) for which in Ineq}
        monkeypatch.setattr(
            bounds,
            "castelnuovo_bound",
            lambda m, eps, mu, alpha, first: real(m, eps, mu, alpha, first) + (1 if first else 2),
        )
        assert profile(30, 9) == clean_profile._replace(pi1=clean_profile.pi1 + 1, pi2=clean_profile.pi2 + 2)
        for which in Ineq:
            # g rises by the shift, and the case slack by r - 3 per unit.
            shift = 1 if which.first else 2
            assert sieve.derived_slack(which, 9, 9, 2, 2, 0) == clean[which] + 2 * 6 * shift

    def test_castelnuovo_core_shifted_reaches_every_reader(self, monkeypatch):
        # pi, pi1 and pi2 (through castelnuovo_bound), derived_slack and the
        # pi cut of genus_intervals all read bounds.castelnuovo_core.  The
        # shifted intervals are the window intervals cut by the shifted
        # genus_cap, so the cut reads the shifted pi too.
        universe = [(d, r) for r in (4, 9, 12) for d in range(1, 120)]

        def readings():
            for fn in (bounds.castelnuovo_profile, bounds.max_genus_pi):
                fn.cache_clear()
            capped = []
            for d, r in universe:
                for alpha, case, g_lo, g_hi in uncapped_intervals(d, r, 2 * d):
                    cap = sieve.genus_cap(d, alpha)
                    if g_lo <= cap:
                        capped.append((alpha, case, g_lo, min(g_hi, cap)))
            return (
                bounds.max_genus_pi(30, 9),
                bounds.castelnuovo_profile(30, 9),
                [sieve.derived_slack(which, 9, 9, 2, 2, 0) for which in Ineq],
                [entry for d, r in universe for entry in sieve.genus_intervals(d, r, 2 * d)],
                capped,
            )

        clean = readings()
        assert clean[3] == clean[4]
        real = bounds.castelnuovo_core
        with monkeypatch.context() as patch:
            patch.setattr(bounds, "castelnuovo_core", lambda m, eps, q: real(m, eps, q) + 1)
            pi, profile, slacks, intervals, capped = readings()
        assert pi == clean[0] + 1
        assert profile == clean[1]._replace(pi1=clean[1].pi1 + 1, pi2=clean[1].pi2 + 1)
        # g rises by 1, and twice the case slack by 2(r - 3).
        assert slacks == [value + 12 for value in clean[2]]
        assert intervals != clean[3] and intervals == capped
        assert readings() == clean
        for module in (sieve, verify, cli, surfaces):
            assert all(value is not real for value in vars(module).values()), module.__name__

    def test_pi1_off_by_one_reaches_sweep_rows(self, monkeypatch):
        clean = cli.run_sweep(7, 140)
        with monkeypatch.context() as m:
            m.setattr(bounds, "castelnuovo_profile", pi1_off_by_one)
            mutated = cli.run_sweep(7, 140)
        assert len(mutated) == len(clean)
        assert mutated != clean
        assert cli.run_sweep(7, 140) == clean


class TestAgainstPerPointOracles:
    """Each suite that reads genus intervals gives the report of its old
    per-point loop: violations in order, checked and audit."""

    @pytest.mark.parametrize("honor", [True, False])
    def test_thm41(self, honor):
        report = verify.verify_thm41(9, 200, honor_exception=honor)
        assert report_parts(report) == naive_thm41(9, 200, honor)
        assert report.ok == honor

    def test_thm41_under_mutation(self, monkeypatch):
        monkeypatch.setattr(bounds, "castelnuovo_profile", caps_raised_by_40)
        report = verify.verify_thm41(6, 90)
        assert report.violations
        assert report_parts(report) == naive_thm41(6, 90)

    def test_case34_where_the_claim_fails(self):
        report = verify.verify_case34_never(11, 12, 150)
        checked, violations, audit = naive_case34(11, 12, 150)
        assert len(violations) > 10
        assert report_parts(report) == (checked, violations, audit)

    def test_case34_where_the_claim_holds(self):
        assert report_parts(verify.verify_case34_never(4, 10, 90)) == naive_case34(4, 10, 90)

    @pytest.mark.parametrize("r", [11, 12, 13])
    def test_r11(self, r):
        report = verify.verify_r_ge_11(r, 80)
        assert report.ok
        assert report_parts(report) == naive_r11(r, 80)

    @pytest.mark.parametrize("r", [11, 12, 13])
    @pytest.mark.parametrize(
        "mutation", [caps_raised_by_40, pi2_raised_by_1, pi2_raised_by_40, drop_mu2_case]
    )
    def test_r11_under_mutation(self, monkeypatch, r, mutation):
        monkeypatch.setattr(bounds, "castelnuovo_profile", mutation)
        checked, violations, audit = naive_r11(r, 80)
        parts = {v["part"] for v in violations}
        assert "a" in parts
        if mutation is caps_raised_by_40:
            assert parts == {"a", "b", "c"}
        assert report_parts(verify.verify_r_ge_11(r, 80)) == (checked, violations, audit)

    @pytest.mark.parametrize("r", [11, 12, 13, 20])
    @pytest.mark.parametrize(
        "mutation",
        [
            REAL_PROFILE, caps_raised_by_40, pi2_raised_by_1, drop_mu2_case,
            pi1_off_by_one, pi1_lowered_by_1, pi2_lowered_by_1, caps_lowered_by_5,
        ],
        ids=lambda m: m.__name__,
    )
    def test_r11_against_the_interval_walk(self, monkeypatch, r, mutation):
        # naive_r11 stops at d = 80; this reaches d = 400, where the
        # certified runs are long.  A run is settled by one join test at
        # its end, on the premise that every genus cap falls by at least 2
        # per alpha (sieve.r11_intervals), which each mutation keeps:
        # it moves pi1, pi2 or both by a constant, or raises pi2 where
        # mu2 = 0, which only narrows mu2's swing.  Caps lowered by 5 make
        # many spans fail the join test at their end and walk whole.  The
        # report fails exactly under the mutations that raise pi2.
        monkeypatch.setattr(bounds, "castelnuovo_profile", mutation)
        report = verify.verify_r_ge_11(r, 400)
        assert report_parts(report) == interval_walk_r11(r, 400)
        lowered = (pi1_lowered_by_1, pi2_lowered_by_1, caps_lowered_by_5)
        assert report.ok == (mutation in (REAL_PROFILE, pi1_off_by_one, *lowered))

    @pytest.mark.parametrize("d_max", [10, 60, 200])
    def test_thm_r3(self, d_max):
        report = verify.verify_thm_r3(d_max)
        assert report.ok
        assert thm_r3_grid_parts(report) == naive_thm_r3(d_max)

    def test_thm_r3_reports_parts_a_and_b(self, monkeypatch):
        # A chain that lets two degrees >= 10 survive (still blind to g)
        # gives part (a), and an empty allowed set turns the known six
        # into part (b).
        real_chain = sieve.r3_sieve
        survivor = sieve.Verdict(sieve.SURVIVORS, (sieve.R3Witness(3, "dim-w-0", 0),))
        monkeypatch.setattr(sieve, "r3_sieve", lambda d, g: survivor if d in (12, 40) else real_chain(d, g))
        monkeypatch.setattr(verify, "_R3_ALLOWED", set())
        report = verify.verify_thm_r3(60)
        checked, violations, audit = naive_thm_r3(60)
        assert {v["part"] for v in violations} == {"a", "b"}
        assert thm_r3_grid_parts(report) == (checked, violations, audit)

    def test_r3_chain_reads_no_genus_on_the_grid(self):
        # verify_thm_r3 and the r = 3 sweep take one verdict per degree.
        for d in range(3, 201):
            genera = sieve.r3_genera(d)
            if genera:
                first = sieve.r3_sieve(d, genera[0])
                assert all(sieve.r3_sieve(d, g) == first for g in genera), d
