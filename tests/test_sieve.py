"""Tests for the exclusion sieve, its derived inequalities, the
hypothesis-range predicate, and the 3-space chain and classification."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidity_sieve import bounds, sieve, verify
from rigidity_sieve.sieve import Ineq, SieveCase


# ------------------------------------------------------------- oracles


def naive_genus_caps_ok(d, g, alpha):
    """The paper's three genus-cap steps at (d, alpha), spelled out:
    g <= pi(d, alpha); g <= pi1 once d >= 2*alpha + 1; and for alpha >= 8
    with d >= 2*alpha + 3 also g <= pi2 and g < pi1."""
    if g > bounds.max_genus_pi(d, alpha):
        return False
    prof = bounds.castelnuovo_profile(d, alpha)
    if d >= 2 * alpha + 1 and g > prof.pi1:
        return False
    if alpha >= 8 and d >= 2 * alpha + 3 and (g > prof.pi2 or g >= prof.pi1):
        return False
    return True


def naive_scan_config_list(d, g, r):
    """Definitional witness enumeration: every (alpha, case) from r to the
    embedding cap passing slack, the case alpha-cap and the genus caps."""
    out = []
    emb = bounds.embed_dim_cap(d, g)
    for case in SieveCase:
        # cases 1/2 need d < g, cases 3/4 d >= g
        if (case in (SieveCase.CASE1, SieveCase.CASE2)) != (d < g):
            continue
        for alpha in range(r, min(emb, sieve.alpha_cap(case, d, g)) + 1):
            if sieve.case_slack(case, d, g, r, alpha) < 0:
                continue
            if not naive_genus_caps_ok(d, g, alpha):
                continue
            out.append((alpha, case))
    out.sort(key=lambda t: (t[0], t[1].index))
    return out


def naive_r3_witnesses(d, g):
    out = []
    for alpha in range(3, (d + 1) // 3 + 1):
        slack = 4 * alpha + 25 - 4 * d
        if slack >= 0:
            out.append((alpha, "dim-w-0", slack))
    for alpha in range(3, d // 3 + 1):
        cap = bounds.agh_cap(d, g, alpha)
        if cap < 1:
            continue
        slack = cap + 4 * alpha + 25 - 4 * d
        if slack >= 0:
            out.append((alpha, "dim-w-pos", slack))
    return out


# ------------------------------------------------------------ building blocks


def paper_range(d, g, r, honor_exception=True):
    """The hypothesis range as the paper states it, clause by clause as
    d > (p*g + q)/s, for r in 4, 7..10 and the general r >= 11 form."""

    def gt(p, q, s):
        return d > Fraction(p * g + q, s)

    if r == 4:
        return gt(17, 72, 64) or gt(4, 15, 15) or (gt(1, 18, 4) and gt(17, 44, 64))
    if r == 7:
        return gt(19, 24, 27) or (gt(4, 39, 7) and gt(76, 71, 108))
    if r == 8:
        return gt(4, 1, 5) or gt(5, -4, 6)
    if r == 9:
        if honor_exception and (d, g) == (30, 34):
            return False
        return gt(9, -5, 10) or gt(29, 3, 33)
    if r == 10:
        return gt(21, -4, 22) or gt(17, 12, 18)
    assert r >= 11
    return gt(2 * (r - 5), 14 - r, r + 1)


PAPER_RANGE_RS = (4, 7, 8, 9, 10, 12, 20)


class TestCaseMachinery:
    def test_applicability_splits_on_degree_vs_genus(self):
        # below: the case needs d < g (cases 1/2); cases 3/4 need d >= g.
        assert [case.below for case in SieveCase] == [True, True, False, False]

    def test_case_slack_pins(self):
        assert sieve.case_slack(SieveCase.CASE2, 30, 34, 9, 9) == 1
        assert sieve.case_slack(SieveCase.CASE2, 30, 33, 9, 9) == -5
        assert sieve.case_slack(SieveCase.CASE1, 30, 33, 9, 9) == -9

    def test_case_slack_increasing_in_alpha(self):
        for case in SieveCase:
            for alpha in range(4, 30):
                assert sieve.case_slack(case, 40, 35, 6, alpha + 1) > sieve.case_slack(
                    case, 40, 35, 6, alpha
                )

    def test_alpha_cap_formulas(self):
        for d in range(5, 40):
            for g in range(2, 40):
                assert sieve.alpha_cap(SieveCase.CASE1, d, g) == (d + 1) // 3
                assert sieve.alpha_cap(SieveCase.CASE2, d, g) == d // 3
                assert sieve.alpha_cap(SieveCase.CASE3, d, g) == (2 * d - g + 1) // 3
                assert sieve.alpha_cap(SieveCase.CASE4, d, g) == (2 * d - g) // 3

    def test_case_alpha_range_is_the_slack_feasible_window(self):
        for r in (4, 9, 12):
            for d in range(1, 60):
                for g in range(1, 2 * d + 2):
                    cap = bounds.embed_dim_cap(d, g)
                    for case in SieveCase:
                        lo, hi = sieve.case_alpha_range(case, d, g, r)
                        want = [
                            alpha
                            for alpha in range(r, min(cap, sieve.alpha_cap(case, d, g)) + 1)
                            if sieve.case_slack(case, d, g, r, alpha) >= 0
                        ]
                        assert list(range(lo, hi + 1)) == want

    def test_alpha_cap_never_exceeds_embedding_cap(self):
        for d in range(1, 120):
            for g in range(0, 2 * d + 3):
                for case in SieveCase:
                    assert sieve.alpha_cap(case, d, g) <= bounds.embed_dim_cap(d, g), (case, d, g)

    @given(d=st.integers(1, 2**63 - 1), g=st.integers(0, 2**63 - 1), case=st.sampled_from(SieveCase))
    def test_alpha_cap_never_exceeds_embedding_cap_at_large_inputs(self, d, g, case):
        assert sieve.alpha_cap(case, d, g) <= bounds.embed_dim_cap(d, g)

    def test_genus_caps_pins(self):
        assert sieve.genus_caps_ok(30, 34, 9)
        assert not sieve.genus_caps_ok(30, 33, 10)

    def test_pi2_below_pi1_past_the_third_step_floor(self):
        # pi2 <= pi1 - 1 once d >= 2*alpha + 3, so the paper's g < pi1
        # is implied by g <= pi2; m2 runs from 2 to 5 here.
        profile = bounds.castelnuovo_profile.__wrapped__
        for alpha in range(3, 201):
            for d in range(2 * alpha + 3, 6 * alpha + 7):
                prof = profile(d, alpha)
                assert prof.pi2 <= prof.pi1 - 1, (d, alpha)

    @given(alpha=st.integers(3, 2**62), extra=st.integers(0, 2**63 - 1))
    def test_pi2_below_pi1_at_large_inputs(self, alpha, extra):
        prof = bounds.castelnuovo_profile.__wrapped__(2 * alpha + 3 + extra, alpha)
        assert prof.pi2 <= prof.pi1 - 1


class TestScan:
    def test_matches_naive_oracle(self):
        for r in (4, 5, 7, 9, 12):
            for d in range(1, 70):
                for g in range(2, 2 * d + 3):
                    if d > 2 * g - 2 or bounds.embed_dim_cap(d, g) < r:
                        continue
                    verdict = sieve.scan(d, g, r)
                    got = [(w.alpha, w.case) for w in verdict.witnesses]
                    assert got == naive_scan_config_list(d, g, r), (d, g, r)
                    assert verdict.is_survivor == bool(got)

    @given(data=st.data(), d=st.integers(1, 3000), r=st.integers(4, 30))
    def test_matches_naive_oracle_on_random_inputs(self, data, d, r):
        g = data.draw(st.integers(0, 2 * d + 3), label="g")
        got = [(w.alpha, w.case, w.i, w.j, w.slack, w.profile) for w in sieve.scan(d, g, r).witnesses]
        if g <= 1 or d > 2 * g - 2 or bounds.embed_dim_cap(d, g) < r:
            assert got == []
            return
        want = [
            (
                alpha,
                case,
                d + 1 - 3 * alpha,
                d - 3 * alpha,
                sieve.case_slack(case, d, g, r, alpha),
                bounds.castelnuovo_profile(d, alpha),
            )
            for alpha, case in naive_scan_config_list(d, g, r)
        ]
        assert got == want

    def test_genus_caps_once_per_alpha_of_the_window_union(self, monkeypatch):
        seen = []
        real = sieve.genus_caps_ok

        def counting(d, g, alpha):
            seen.append(alpha)
            return real(d, g, alpha)

        monkeypatch.setattr(sieve, "genus_caps_ok", counting)
        for r in (4, 9, 12):
            for d in range(1, 80):
                for g in range(2, 2 * d + 3):
                    if d > 2 * g - 2 or bounds.embed_dim_cap(d, g) < r:
                        continue
                    union = set()
                    for case in SieveCase:
                        if (case in (SieveCase.CASE1, SieveCase.CASE2)) == (d < g):
                            lo, hi = sieve.case_alpha_range(case, d, g, r)
                            union.update(range(lo, hi + 1))
                    seen.clear()
                    sieve.scan(d, g, r)
                    assert seen == sorted(union), (d, g, r)

    def test_streamed_verdict_matches_scan(self):
        for r in (4, 9, 20):
            for d in range(1, 70):
                for g in range(0, 2 * d + 3):
                    verdict = sieve.scan(d, g, r)
                    streamed = sieve.scan_streamed(d, g, r)
                    assert (streamed.outcome, streamed.reasons) == (verdict.outcome, verdict.reasons)
                    assert tuple(streamed.witnesses) == verdict.witnesses
                    # a stream enumerates afresh on every pass
                    assert tuple(streamed.witnesses) == verdict.witnesses

    def test_survivor_pin(self):
        verdict = sieve.scan(30, 34, 9)
        assert verdict.outcome == sieve.SURVIVORS
        assert len(verdict.witnesses) == 1
        w = verdict.witnesses[0]
        assert (w.alpha, w.case, w.slack, w.i, w.j) == (9, SieveCase.CASE2, 1, 4, 3)
        assert (w.profile.pi1, w.profile.pi2) == (36, 34)

    def test_excluded_pin(self):
        verdict = sieve.scan(30, 33, 9)
        assert verdict.outcome == sieve.EXCLUDED
        assert verdict.reasons == (sieve.ALL_CASES_INFEASIBLE,)

    def test_scope_and_speciality_gates(self):
        assert sieve.scan(10, 0, 5).outcome == sieve.OUT_OF_SCOPE
        assert sieve.scan(10, 0, 5).reasons == (sieve.GENUS_ZERO,)
        assert sieve.scan(10, 1, 5).reasons == (sieve.NON_SPECIAL,)
        assert sieve.scan(30, 14, 5).reasons == (sieve.NON_SPECIAL,)
        assert sieve.scan(10, 9, 9).reasons == (sieve.NO_ALPHA,)

    def test_rejects_out_of_domain(self):
        with pytest.raises(ValueError):
            sieve.scan(10, 10, 3)
        with pytest.raises(ValueError):
            sieve.scan(0, 5, 5)

    def test_witnesses_satisfy_degree_floor(self):
        # Every emitted witness configuration has d >= 2*alpha + 3.
        for r in (4, 6, 9, 11):
            for d in range(1, 90):
                for g in range(2, 2 * d + 1):
                    if d > 2 * g - 2:
                        continue
                    for w in sieve.scan(d, g, r).witnesses:
                        assert d >= 2 * w.alpha + 3

    def test_verdict_validation(self):
        with pytest.raises(ValueError):
            sieve.Verdict(sieve.SURVIVORS)
        with pytest.raises(ValueError):
            sieve.Verdict(sieve.EXCLUDED)


def expanded_intervals(d, r, top):
    """g -> the (alpha, case) list of the genus intervals, for every g
    in 0..top, in the order the intervals come."""
    out = {g: [] for g in range(top + 1)}
    for alpha, case, g_lo, g_hi in sieve.genus_intervals(d, r, top):
        assert g_lo <= g_hi <= top
        for g in range(g_lo, g_hi + 1):
            out[g].append((alpha, case))
    return out


def assert_intervals_match_scan(d, r, top):
    got = expanded_intervals(d, r, top)
    by_genus = sieve.witnesses_by_genus(d, r, top)
    assert list(by_genus) == sorted(by_genus)
    for g in range(top + 1):
        want = [(w.alpha, w.case) for w in sieve.scan(d, g, r).witnesses]
        assert got[g] == want, (d, r, top, g)
        assert by_genus.get(g, []) == want, (d, r, top, g)


class TestGenusIntervals:
    @settings(max_examples=40)
    @given(data=st.data(), d=st.integers(1, 3000), r=st.integers(4, 30))
    def test_expanded_intervals_equal_scan(self, data, d, r):
        top = data.draw(st.integers(0, 2 * d + 5), label="top")
        assert_intervals_match_scan(d, r, top)

    def test_small_grid_equals_scan(self):
        for r in (4, 5, 9, 11, 12):
            for d in range(1, 90):
                assert_intervals_match_scan(d, r, 2 * d + 5)

    @pytest.mark.parametrize(
        "d,g,r,alpha,cases",
        [
            (68, 63, 12, 24, {SieveCase.CASE4}),
            (524, 488, 12, 186, {SieveCase.CASE3, SieveCase.CASE4}),
        ],
    )
    def test_alpha_ceiling_above_d_over_3(self, d, g, r, alpha, cases):
        # For d > g the case-3/4 windows reach (2d - g)/3, well above d/3.
        assert alpha > d // 3
        witnesses = {(w.alpha, w.case) for w in sieve.scan(d, g, r).witnesses}
        assert {(alpha, case) for case in cases} <= witnesses
        got = expanded_intervals(d, r, 2 * d + 5)
        assert {(alpha, case) for case in cases} <= set(got[g])
        assert_intervals_match_scan(d, r, 2 * d + 5)

    def test_genus_caps_once_per_alpha_with_a_window_interval(self, monkeypatch):
        profile_calls, pi_calls = [], []
        real_profile, real_pi = bounds.castelnuovo_profile, bounds.max_genus_pi

        def counting_profile(d, alpha):
            profile_calls.append((d, alpha))
            return real_profile(d, alpha)

        def counting_pi(d, r):
            pi_calls.append((d, r))
            return real_pi(d, r)

        monkeypatch.setattr(bounds, "castelnuovo_profile", counting_profile)
        monkeypatch.setattr(bounds, "max_genus_pi", counting_pi)
        for r in (4, 9, 12):
            for d in range(1, 150):
                for top in (d // 2, d, 2 * d + 5):
                    windowed = {(d, alpha) for alpha, _, _, _ in sieve.window_intervals(d, r, top)}
                    profile_calls.clear()
                    pi_calls.clear()
                    list(sieve.genus_intervals(d, r, top))
                    assert len(profile_calls) == len(set(profile_calls)), (d, r, top)
                    assert set(profile_calls) <= windowed, (d, r, top)
                    assert sorted(pi_calls) == sorted(windowed), (d, r, top)

    def test_genus_cap_is_the_largest_passing_genus(self):
        for d in range(5, 60):
            for alpha in range(3, d - 1):
                cap = sieve.genus_cap(d, alpha)
                flags = [naive_genus_caps_ok(d, g, alpha) for g in range(cap + 3)]
                assert flags == [True] * (cap + 1) + [False] * 2, (d, alpha)
                assert [sieve.genus_caps_ok(d, g, alpha) for g in range(cap + 3)] == flags, (d, alpha)

    def test_rejects_out_of_domain(self):
        with pytest.raises(ValueError):
            list(sieve.genus_intervals(10, 3, 20))
        with pytest.raises(ValueError):
            list(sieve.genus_intervals(0, 5, 20))


class TestDerivedInequalities:
    def test_expansions_equal_substitution_forms(self):
        # Doubled expansions match 2*((r-3)*pi - linear part) at the profile
        # induced by the encoded degree.
        for r in range(4, 16):
            for alpha in range(8, 26):
                for m in range(1, 9):
                    for eps in range(0, alpha):
                        mu = 1 if eps == alpha - 1 else 0
                        d = m * alpha + eps + 1
                        if d < alpha + 2:
                            continue
                        prof = bounds.castelnuovo_profile(d, alpha)
                        assert (prof.m1, prof.eps1, prof.mu1) == (m, eps, mu)
                        want7 = 2 * ((r - 3) * prof.pi1 - (r + 1) * (d - alpha) + 3)
                        want9 = 2 * ((r - 3) * prof.pi1 - r * d + (r - 2) * alpha + 4)
                        assert sieve.derived_slack(Ineq.INEQ7, r, alpha, m, eps, mu) == want7
                        assert sieve.derived_slack(Ineq.INEQ9, r, alpha, m, eps, mu) == want9
                    for eps in range(0, alpha + 1):
                        mu = 2 if eps == alpha else (1 if eps >= alpha - 2 else 0)
                        d = m * (alpha + 1) + eps + 1
                        prof = bounds.castelnuovo_profile(d, alpha)
                        assert (prof.m2, prof.eps2, prof.mu2) == (m, eps, mu)
                        want8 = 2 * ((r - 3) * prof.pi2 - (r + 1) * (d - alpha) + 3)
                        want10 = 2 * ((r - 3) * prof.pi2 - r * d + (r - 2) * alpha + 4)
                        assert sieve.derived_slack(Ineq.INEQ8, r, alpha, m, eps, mu) == want8
                        assert sieve.derived_slack(Ineq.INEQ10, r, alpha, m, eps, mu) == want10

    def test_value_pins(self):
        assert sieve.derived_slack(Ineq.INEQ7, 4, 8, 8, 7, 1) == -56
        assert sieve.derived_slack(Ineq.INEQ7, 4, 8, 9, 7, 1) == 8

    def test_satisfaction_conventions(self):
        assert not sieve.derived_satisfied(Ineq.INEQ7, 0)
        assert sieve.derived_satisfied(Ineq.INEQ7, 1)
        assert sieve.derived_satisfied(Ineq.INEQ8, 0)
        assert not sieve.derived_satisfied(Ineq.INEQ10, -1)

    def test_rejects_inconsistent_tuples(self):
        with pytest.raises(ValueError):
            sieve.derived_slack(Ineq.INEQ7, 4, 7, 3, 2, 0)  # alpha < 8
        with pytest.raises(ValueError):
            sieve.derived_slack(Ineq.INEQ7, 4, 8, 0, 2, 0)  # m < 1
        with pytest.raises(ValueError):
            sieve.derived_slack(Ineq.INEQ7, 4, 8, 3, 7, 0)  # mu must be 1
        with pytest.raises(ValueError):
            sieve.derived_slack(Ineq.INEQ8, 4, 8, 3, 9, 1)  # eps out of range
        with pytest.raises(ValueError):
            sieve.derived_slack(Ineq.INEQ8, 4, 8, 3, 8, 0)  # mu must be 2


class TestHypothesisRange:
    def test_exception_point(self):
        assert not sieve.range_thm41(30, 34, 9)
        assert 34 in sieve.range_genera(30, 9, honor_exception=False)
        assert sieve.range_thm41(30, 33, 9)

    def test_high_r_shapes(self):
        for d in range(2, 50):
            for g in range(1, 60):
                assert sieve.range_thm41(d, g, 11) == (d > g)
                assert sieve.range_thm41(d, g, 13) == (14 * d > 16 * g - 13 + 14)

    def test_r5_window_strengthens_range(self):
        # Inside 101..113 the extra clause can only remove pairs.
        for d in (100, 101, 107, 113, 114):
            for g in range(150, 320):
                in_range = sieve.range_thm41(d, g, 5)
                basic = (
                    20 * d > 9 * g + 20
                    or 22 * d > 10 * g + 17
                    or (5 * d > 2 * g + 25 and 20 * d > 9 * g + 10)
                )
                if 101 <= d <= 113:
                    assert in_range == (basic and 3 * d > g + 22)
                else:
                    assert in_range == basic

    def test_r5_window_clause_has_margin_over_the_row(self):
        # On 101..113 the window clause 3d > g + 22 lies 57 or more above
        # the r = 5 row's limit, so the row implies it and range_genera
        # need not apply it.  An edit to the row that lets the clause
        # bind must revisit range_genera.
        margins = [
            verify.r5_window_limit(d) - sieve.range_g_limit(d, 5)
            for d in range(101, 114)
        ]
        assert min(margins) >= 57
        for d in range(101, 114):
            assert list(sieve.range_genera(d, 5)) == list(range(1, sieve.range_g_limit(d, 5) + 1))

    def test_rejects_out_of_domain(self):
        with pytest.raises(ValueError):
            sieve.range_thm41(10, 5, 3)
        with pytest.raises(ValueError):
            sieve.range_thm41(10, 0, 4)

    def test_g_limit_is_sound_and_range_down_closed(self):
        for r in (4, 5, 6, 7, 8, 9, 10, 11, 12, 15):
            for d in range(1, 70):
                limit = sieve.range_g_limit(d, r)
                genera = sieve.range_genera(d, r, honor_exception=False)
                flags = [g in genera for g in range(1, limit + 40)]
                # prefix of Trues, then all False: no in-range g above limit
                assert flags == sorted(flags, reverse=True)
                assert not any(flags[limit:])
                # and the limit is tight: every g in 1..limit is in range
                if r != 5 or not 101 <= d <= 113:
                    assert all(flags[:limit])

    def test_r6_row_matches_four_term_form(self):
        # The range row keeps three of the paper's four r = 6 terms; the
        # fourth, 2d > g + 10 and 5d > 3g - 1, must add no point.
        for d in range(1, 400):
            for g in range(1, 2 * d + 3):
                four_terms = (
                    22 * d > 13 * g + 20
                    or 5 * d > 3 * g + 3
                    or (2 * d > g + 10 and 22 * d > 13 * g + 10)
                    or (2 * d > g + 10 and 5 * d > 3 * g - 1)
                )
                assert sieve.range_thm41(d, g, 6) == four_terms


    @pytest.mark.parametrize("r", PAPER_RANGE_RS)
    def test_matches_paper_clauses(self, r):
        for d in range(1, 160):
            genera = range(1, sieve.range_g_limit(d, r) + 40)
            for honor in (True, False):
                in_range = sieve.range_genera(d, r, honor_exception=honor)
                flags = [g in in_range for g in genera]
                assert flags == [paper_range(d, g, r, honor) for g in genera], (d, honor)
                assert list(in_range) == [g for g, flag in zip(genera, flags) if flag], (d, honor)
                if honor:
                    assert [sieve.range_thm41(d, g, r) for g in genera] == flags, d

    @given(
        d=st.integers(1, 2**63 - 1),
        g=st.integers(1, 2**63 - 1),
        r=st.sampled_from(PAPER_RANGE_RS),
        honor=st.booleans(),
    )
    def test_matches_paper_clauses_on_large_inputs(self, d, g, r, honor):
        in_range = paper_range(d, g, r, honor)
        assert (g in sieve.range_genera(d, r, honor_exception=honor)) == in_range
        if honor:
            assert sieve.range_thm41(d, g, r) == in_range
        limit = sieve.range_g_limit(d, r)
        assert limit == 0 or paper_range(d, limit, r, False)
        assert not paper_range(d, limit + 1, r, False)

    def test_r3_genera_is_the_reduced_grid(self):
        for d in range(-2, 120):
            pi = bounds.max_genus_pi(d, 3) if d >= 3 else 0
            naive = [g for g in range(1, pi + 1) if g >= 5 and g >= d]
            assert list(sieve.r3_genera(d)) == naive, d

class TestR3Sieve:
    def test_matches_naive_oracle(self):
        for d in range(1, 60):
            g_hi = bounds.max_genus_pi(d, 3) + 2 if d >= 3 else 8
            for g in range(max(d, 5), g_hi + 1):
                verdict = sieve.r3_sieve(d, g)
                got = [(w.alpha, w.branch, w.slack) for w in verdict.witnesses]
                assert got == naive_r3_witnesses(d, g), (d, g)

    def test_survivor_pins(self):
        for d, g in [(8, 8), (8, 9)]:
            v = sieve.r3_sieve(d, g)
            assert [(w.alpha, w.branch, w.slack) for w in v.witnesses] == [
                (3, "dim-w-0", 5)
            ]
        for d, g in [(9, 9), (9, 10), (9, 11), (9, 12)]:
            v = sieve.r3_sieve(d, g)
            assert [(w.alpha, w.branch, w.slack) for w in v.witnesses] == [
                (3, "dim-w-0", 1),
                (3, "dim-w-pos", 2),
            ]

    def test_first_witness_is_zero_dimensional_branch(self):
        w = sieve.r3_sieve(9, 12).witnesses[0]
        assert w.branch == "dim-w-0"

    def test_exclusions(self):
        assert sieve.r3_sieve(10, 12).reasons == (sieve.ALL_CASES_INFEASIBLE,)
        assert sieve.r3_sieve(11, 12).reasons == (sieve.ALL_CASES_INFEASIBLE,)
        # d <= 7 admits no alpha >= 3 at all
        assert sieve.r3_sieve(7, 7).reasons == (sieve.NO_ALPHA,)
        assert sieve.r3_sieve(5, 6).reasons == (sieve.NO_ALPHA,)

    def test_rejects_out_of_domain(self):
        with pytest.raises(ValueError):
            sieve.r3_sieve(8, 4)
        with pytest.raises(ValueError):
            sieve.r3_sieve(10, 9)


class TestR3Classify:
    @pytest.mark.parametrize(
        "d,g,want",
        [
            (6, 5, "empty"),
            (9, 11, "empty"),
            (12, 30, "empty"),
            (7, 6, "exact-image(13)"),
            (8, 7, "exact-image(17)"),
            (8, 8, "exact-image(17)"),
            (8, 9, "exact-image(18)"),
            (9, 9, "exact-image(21)"),
            (9, 10, "exact-image(21)"),
            (9, 12, "exact-image(23)"),
            (9, 8, "dominates"),
            (12, 11, "dominates"),
            (10, 7, "dominates"),
            (9, 7, "dominates"),
            (5, 2, "dominates"),
            (10, 10, "min-image-if-nonempty(23)"),
            (11, 12, "min-image-if-nonempty(23)"),
            (10, 0, "out-of-scope"),
        ],
    )
    def test_decision_table(self, d, g, want):
        assert sieve.r3_classify(d, g).render() == want

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            sieve.r3_classify(0, 5)
