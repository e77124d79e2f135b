"""Tests for the brute-force verification sweeps.

The mutation tests corrupt the genus-cap profile via monkeypatching and
assert the sweeps detect the corruption; every sweep runs in this
process, so the patched function is the one the sweep actually calls.
"""

import pytest

from rigidity_sieve import bounds, cli, sieve, verify
from rigidity_sieve.sieve import SieveCase

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
