"""Tests for the brute-force verification sweeps.

The mutation tests corrupt the genus-cap profile via monkeypatching and
assert the sweeps detect the corruption; every sweep runs in this
process, so the patched function is the one the sweep actually calls.
"""

from itertools import repeat

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rigidity_sieve import bounds, cli, sieve, verify
from rigidity_sieve.sieve import Ineq, SieveCase

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


def naive_r11(r, d_max):
    case_bounds = {
        SieveCase.CASE1: lambda d, g: 2 * (r + 1) * d <= 3 * (r - 3) * g - r + 8,
        SieveCase.CASE2: lambda d, g: 2 * (r + 1) * d <= 3 * (r - 3) * g - r + 14,
        SieveCase.CASE3: lambda d, g: (r + 1) * d <= 2 * (r - 5) * g - r + 8,
        SieveCase.CASE4: lambda d, g: (r + 1) * d <= 2 * (r - 5) * g - r + 14,
    }
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
                lo, hi = sieve.case_alpha_range(case, d, g, r)
                for alpha in range(max(lo, boundary_lo), hi + 1):
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
                if any(sieve.genus_caps_ok(d, g, alpha) for alpha in range(lo, hi + 1)):
                    is_survivor = True
                    if not case_bounds[case](d, g):
                        violations.append({"part": "b", "d": d, "g": g, "case": case.value})
            if is_survivor:
                survivors += 1
                if g in in_range:
                    violations.append({"part": "c", "d": d, "g": g})
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


def primary_parts(report):
    """checked and the tuple violations, without the r = 9 audit's and
    the r = 4 cross-assert's entries (those carry a "check" key)."""
    return report.checked, [v for v in report.violations if "check" not in v]


def stricter_claims(r, shift=1):
    """The claims of r with each m floor K raised by shift."""
    return [(which, k + shift, *rest) for which, k, *rest in verify._DERIVED_CLAIMS[r]]


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
    def test_primary_loop_matches_naive_oracle(self, r):
        alpha_lo = max(8, r)
        for alpha_max, m_max in ((alpha_lo, 2), (alpha_lo + 1, 2), (15, 3), (24, 20), (30, 25)):
            report = verify.verify_derived_claims(r, alpha_max, m_max)
            assert primary_parts(report) == naive_derived_primary(r, alpha_max, m_max)

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
        shift=st.sampled_from((0, 1, 2)),
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
        # Every (alpha, m, d) with alpha 8..79, m 0..29 and
        # alpha + 2 <= d < 40*alpha; i and j are d's side variables.
        for claim, (_, _, predicate) in zip(verify._DERIVED_CLAIMS[r], LITERAL_CLAIMS[r], strict=True):
            for alpha in range(8, 80):
                degrees = range(alpha + 2, 40 * alpha)
                i_values = range(degrees.start + 1 - 3 * alpha, degrees.stop + 1 - 3 * alpha)
                j_values = range(degrees.start - 3 * alpha, degrees.stop - 3 * alpha)
                for m in range(30):
                    want = list(map(predicate, repeat(alpha), repeat(m), repeat(0), repeat(0), i_values, j_values))
                    got = list(map(verify._claim_holds, repeat(claim), repeat(alpha), repeat(m), degrees))
                    assert got == want, (claim, alpha, m)

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
        # For fixed (inequality, r, alpha, m) every derived_slack expansion
        # is linear in (eps, mu); the form read off three of its values
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


class TestMutationDetection:
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
        # scan, the genus intervals and the r = 9 audit all read the
        # case-2 slack off sieve.case_slack.
        real = sieve.case_slack

        def case2_lowered(case, d, g, r, alpha):
            return real(case, d, g, r, alpha) - (2 if case is SieveCase.CASE2 else 0)

        assert sieve.scan(30, 34, 9).is_survivor
        clean = sieve.witnesses_by_genus(30, 9, 40)
        monkeypatch.setattr(sieve, "case_slack", case2_lowered)
        assert not sieve.scan(30, 34, 9).is_survivor
        assert sieve.witnesses_by_genus(30, 9, 40) != clean
        assert verify.verify_derived_claims(9, 60).audit["m2_eq_2_pairs"] == [(30, 34)]

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
