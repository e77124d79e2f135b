"""Tests for the exclusion sieve, its derived inequalities, the
hypothesis-range predicate, and the 3-space chain and classification."""

import collections
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
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


def naive_embed_dim_cap(d, g):
    """The embedding cap, spelled out."""
    return (d + 1) // 3 if d <= g else (2 * d - g + 1) // 3


def naive_series_locus_bound(d, g, alpha):
    """The bound on the dimension of the series locus, spelled out."""
    return d - 3 * alpha + 1 if d <= g else 2 * d - 3 * alpha - g + 1


def naive_case_slack(case, d, g, r, alpha):
    """Each case's slack as its own expanded formula, lambda and the
    side variable substituted by hand."""
    if case is SieveCase.CASE2:
        return (r - 3) * g - r * d + (r - 2) * alpha + 4
    if case is SieveCase.CASE4:
        return (r - 4) * g - (r - 1) * d + (r - 2) * alpha + 4
    return (r - 3) * g - (r + 1) * (d - alpha) + 3


def naive_scan_config_list(d, g, r):
    """Definitional witness enumeration: every (alpha, case) from r to the
    embedding cap passing slack, the case alpha-cap and the genus caps."""
    out = []
    emb = naive_embed_dim_cap(d, g)
    for case in SieveCase:
        # cases 1/2 need d < g, cases 3/4 d >= g
        if (case in (SieveCase.CASE1, SieveCase.CASE2)) != (d < g):
            continue
        for alpha in range(r, min(emb, sieve.alpha_cap(case, d, g)) + 1):
            if naive_case_slack(case, d, g, r, alpha) < 0:
                continue
            if not naive_genus_caps_ok(d, g, alpha):
                continue
            out.append((alpha, case))
    out.sort(key=lambda t: (t[0], t[1].index))
    return out


def naive_alpha_window(case, d, g, r):
    """The alpha window of a case at (d, g), spelled out: every
    alpha >= r with naive_case_slack >= 0 and alpha <= alpha_cap."""
    return [alpha for alpha in range(r, sieve.alpha_cap(case, d, g) + 1) if naive_case_slack(case, d, g, r, alpha) >= 0]


def naive_span_windows(d, r, top):
    """For each case, the alpha window at every g = 0..top, spelled out:
    naive_alpha_window where the case applies (d < g in cases 1/2,
    d >= g in 3/4), else empty."""
    return {
        case: [set(naive_alpha_window(case, d, g, r)) if case.below == (d < g) else set() for g in range(top + 1)]
        for case in SieveCase
    }


def naive_derived_slack(which, r, alpha, m, eps, mu):
    """Twice each derived inequality, expanded as a polynomial in
    (alpha, m, eps, mu); (m, eps, mu) in the convention of which."""
    if which is Ineq.INEQ7:
        return (
            alpha * (m - 1) * ((r - 3) * m - 2 * (r + 1))
            + 2 * (eps + 1) * ((r - 3) * m - r - 1)
            + 6
            + 2 * mu * (r - 3)
        )
    if which is Ineq.INEQ8:
        return (
            (alpha + 1) * (m - 1) * ((r - 3) * m - 2 * (r + 1))
            + 2 * (eps + 1) * ((r - 3) * m - r - 1)
            - 2 * r
            + 4
            + 2 * (m + mu) * (r - 3)
        )
    binom = m * (m - 1) // 2
    if which is Ineq.INEQ9:
        return (
            2 * alpha * ((r - 3) * binom - m * r + r - 2)
            + 2 * (eps + 1) * ((r - 3) * m - r)
            + 8
            + 2 * mu * (r - 3)
        )
    return (
        2 * (alpha + 1) * ((r - 3) * binom - m * r + r - 2)
        + 2 * (eps + 1) * ((r - 3) * m - r)
        - 2 * r
        + 12
        + 2 * (m + mu) * (r - 3)
    )


def naive_r3_witnesses(d, g):
    out = []
    for alpha in range(3, (d + 1) // 3 + 1):
        slack = 4 * alpha + 25 - 4 * d
        if slack >= 0:
            out.append((alpha, "dim-w-0", slack))
    for alpha in range(3, d // 3 + 1):
        cap = naive_series_locus_bound(d, g, alpha)
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

    @given(
        d=st.integers(1, 2**63 - 1),
        g=st.integers(0, 2**63 - 1),
        r=st.integers(4, 2**20),
        alpha=st.integers(0, 2**63 - 1),
    )
    def test_case_slack_is_the_expanded_formula_up_to_the_input_ceiling(self, d, g, r, alpha):
        # The dimension bound minus lambda against each case's formula.
        for case in SieveCase:
            assert sieve.case_slack(case, d, g, r, alpha) == naive_case_slack(case, d, g, r, alpha), case

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
                numerators = [sieve.cap_numerator(case, d, g) for case in SieveCase]
                assert numerators == [d + 1, d, 2 * d - g + 1, 2 * d - g]

    def test_single_g_spans_are_the_slack_feasible_windows(self):
        # Every case at every g: a case that does not apply has no span.
        # At r = 4, 5 the small degrees are where cases 3/4 come closest
        # to a window (see _spans).
        for r in (4, 5, 9, 12):
            for d in range(1, 60):
                for g in range(0, 2 * d + 2):
                    spans = {span.case: span for span in sieve._spans(d, r, g, g)}
                    for case in SieveCase:
                        want = naive_alpha_window(case, d, g, r) if case.below == (d < g) else []
                        span = spans.get(case)
                        got = [] if span is None else list(range(span.alpha_lo, span.alpha_hi + 1))
                        assert got == want, (case, d, g, r)
                        assert span is None or (span.g_min, span.g_max) == (g, g)

    @given(d=st.integers(1, 2**63 - 1), g=st.integers(0, 2**63 - 1), r=st.integers(4, 40))
    def test_single_g_spans_are_the_slack_feasible_windows_at_large_inputs(self, d, g, r):
        # The window cross-multiplied: alpha_cap is its top, and its
        # floor the least alpha >= r whose slack is >= 0 (the slack rises
        # with alpha); it is empty iff the slack at the cap is negative.
        spans = {span.case: span for span in sieve._spans(d, r, g, g)}
        for case in SieveCase:
            cap = sieve.alpha_cap(case, d, g)
            if case.below != (d < g) or cap < r or sieve.case_slack(case, d, g, r, cap) < 0:
                assert case not in spans, case
                continue
            lo, hi = spans[case].alpha_lo, spans[case].alpha_hi
            assert hi == cap and r <= lo <= hi, case
            assert sieve.case_slack(case, d, g, r, lo) >= 0, case
            assert lo == r or sieve.case_slack(case, d, g, r, lo - 1) < 0, case

    def test_alpha_cap_never_exceeds_embedding_cap(self):
        for d in range(1, 120):
            for g in range(0, 2 * d + 3):
                for case in SieveCase:
                    assert sieve.alpha_cap(case, d, g) <= naive_embed_dim_cap(d, g), (case, d, g)

    @given(d=st.integers(1, 2**63 - 1), g=st.integers(0, 2**63 - 1), case=st.sampled_from(SieveCase))
    def test_alpha_cap_never_exceeds_embedding_cap_at_large_inputs(self, d, g, case):
        assert sieve.alpha_cap(case, d, g) <= naive_embed_dim_cap(d, g)

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


class TestSeriesCaps:
    """The series-locus bound is the cap numerator of case 1 (d <= g) or
    case 3 (d > g) less 3*alpha, and the embedding cap its alpha cap."""

    @staticmethod
    def series_locus_bound(d, g, alpha):
        return sieve.cap_numerator(SieveCase.CASE1 if d <= g else SieveCase.CASE3, d, g) - 3 * alpha

    def test_series_locus_bound_formulas(self):
        for d in range(2, 60):
            for g in range(1, 60):
                for alpha in (1, 2, 3):
                    assert self.series_locus_bound(d, g, alpha) == naive_series_locus_bound(d, g, alpha)

    def test_series_locus_bound_spots(self):
        assert self.series_locus_bound(9, 12, 3) == 1
        assert self.series_locus_bound(30, 20, 8) == 17

    def test_embed_dim_cap(self):
        for d in range(1, 80):
            for g in range(0, 80):
                assert sieve.embed_dim_cap(d, g) == naive_embed_dim_cap(d, g)


class TestScan:
    def test_matches_naive_oracle(self):
        for r in (4, 5, 7, 9, 12):
            for d in range(1, 70):
                for g in range(2, 2 * d + 3):
                    if d > 2 * g - 2 or naive_embed_dim_cap(d, g) < r:
                        continue
                    verdict = sieve.scan(d, g, r)
                    got = [(w.alpha, w.case) for w in verdict.witnesses]
                    assert got == naive_scan_config_list(d, g, r), (d, g, r)
                    assert verdict.is_survivor == bool(got)

    @given(data=st.data(), d=st.integers(1, 3000), r=st.integers(4, 30))
    def test_matches_naive_oracle_on_random_inputs(self, data, d, r):
        g = data.draw(st.integers(0, 2 * d + 3), label="g")
        got = [(w.alpha, w.case, w.i, w.j, w.slack, w.profile) for w in sieve.scan(d, g, r).witnesses]
        if g <= 1 or d > 2 * g - 2 or naive_embed_dim_cap(d, g) < r:
            assert got == []
            return
        want = [
            (
                alpha,
                case,
                d + 1 - 3 * alpha,
                d - 3 * alpha,
                naive_case_slack(case, d, g, r, alpha),
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
                    if d > 2 * g - 2 or naive_embed_dim_cap(d, g) < r:
                        continue
                    union = set()
                    for case in SieveCase:
                        if (case in (SieveCase.CASE1, SieveCase.CASE2)) == (d < g):
                            union.update(naive_alpha_window(case, d, g, r))
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

    @given(
        # The first range reaches the no-alpha gate, which needs d <= 3r - 2.
        d=st.one_of(st.integers(1, 178), st.integers(1, 2**63 - 1)),
        g=st.integers(0, 2**63 - 1),
        r=st.integers(4, 60),
    )
    def test_streamed_verdict_matches_scan_where_the_gate_settles(self, d, g, r):
        assume(g <= 1 or d > 2 * g - 2 or naive_embed_dim_cap(d, g) < r)
        verdict = sieve.scan(d, g, r)
        streamed = sieve.scan_streamed(d, g, r)
        assert verdict.reasons in ((sieve.GENUS_ZERO,), (sieve.NON_SPECIAL,), (sieve.NO_ALPHA,))
        assert (streamed.outcome, tuple(streamed.witnesses), streamed.reasons) == (
            verdict.outcome,
            verdict.witnesses,
            verdict.reasons,
        )

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


def uncapped_intervals(d, r, top):
    """The window intervals (alpha, case, g_lo, g_hi) of the _spans
    over the special g <= top, before the genus caps."""
    spans = sieve._spans(d, r, sieve.least_special_genus(d), top)
    return [entry[:4] for entry in sieve._span_intervals(d, [(span, span.alpha_lo, span.alpha_hi) for span in spans])]


def naive_window_intervals(d, r, top):
    """The window intervals spelled out, before the genus caps: every
    alpha >= r of every case, with the g <= top at which the gates pass,
    the case applies, case_slack >= 0 and 3*alpha is at most
    cap_numerator.  Both are linear in g, so each bound is read off
    their values at g = 0 and 1.  Only non-empty intervals, in
    (alpha, case) order."""
    out = []
    g_min = sieve.least_special_genus(d)
    for case in SieveCase:
        lo, hi = (max(g_min, d + 1), top) if case.below else (g_min, min(top, d))
        cap_at0 = sieve.cap_numerator(case, d, 0)
        per_g_cap = cap_at0 - sieve.cap_numerator(case, d, 1)
        # The numerator does not rise with g, so no alpha above its
        # value at lo has a g.
        for alpha in range(r, sieve.cap_numerator(case, d, lo) // 3 + 1):
            at0 = sieve.case_slack(case, d, 0, r, alpha)
            per_g = sieve.case_slack(case, d, 1, r, alpha) - at0
            cap0 = cap_at0 - 3 * alpha
            g_lo, g_hi = lo, hi
            if per_g:
                g_lo = max(g_lo, -(at0 // per_g))
            elif at0 < 0:
                continue
            if per_g_cap:
                g_hi = min(g_hi, cap0 // per_g_cap)
            elif cap0 < 0:
                continue
            if g_lo <= g_hi:
                out.append((alpha, case, g_lo, g_hi))
    return sorted(out, key=lambda entry: (entry[0], entry[1].index))


def assert_intervals_match_scan(d, r, top):
    got = expanded_intervals(d, r, top)
    by_genus = sieve.witnesses_by_genus(d, r, top)
    assert list(by_genus) == sorted(by_genus)
    for g in range(top + 1):
        want = [(w.alpha, w.case) for w in sieve.scan(d, g, r).witnesses]
        assert got[g] == want, (d, r, top, g)
        assert by_genus.get(g, []) == want, (d, r, top, g)


class TestAlphaSegments:
    @given(data=st.data(), top=st.sampled_from((40, 2**63 - 1)))
    def test_runs_are_the_per_alpha_membership(self, data, top):
        # Up to four pieces (index, lo, hi), their edges drawn near a few
        # shared values, so that gaps, overlaps, shared and adjacent edges
        # and empty pieces (lo > hi, as _under_pi and r11_intervals give)
        # all occur.  Up to 40 each alpha is checked against the pieces
        # that hold it; up to 2**63 - 1 the run bounds are.
        pool = data.draw(st.lists(st.integers(0, top), min_size=1, max_size=5))
        edge = st.builds(lambda v, step: min(max(v + step, 0), top), st.sampled_from(pool), st.integers(-1, 1))
        pieces = [(index, lo, hi) for index, (lo, hi) in enumerate(data.draw(st.lists(st.tuples(edge, edge), max_size=4)))]

        def holding(alpha):
            return [index for index, lo, hi in pieces if lo <= alpha <= hi]

        segments = list(sieve._alpha_segments(pieces))
        # Ascending and disjoint; two runs that touch differ in pieces.
        for (_, stop, active), (start, _, after) in zip(segments, segments[1:]):
            assert stop < start or (stop == start and active != after), segments
        # No non-empty piece starts or ends inside a run, so one set of
        # pieces holds all of it.
        for start, stop, active in segments:
            assert start < stop
            assert not any(start < cut < stop for _, lo, hi in pieces if lo <= hi for cut in (lo, hi + 1))
            assert active == holding(start) == holding(stop - 1) != []
        # The alphas outside every run, below, between and above them.
        cuts = [-1] + [bound for start, stop, _ in segments for bound in (start, stop)] + [2**64]
        for lo_gap, hi_gap in zip(cuts[::2], cuts[1::2]):
            assert not any(max(lo, lo_gap) <= min(hi, hi_gap - 1) for _, lo, hi in pieces), (lo_gap, hi_gap)
        if top == 40:
            runs = {alpha: active for start, stop, active in segments for alpha in range(start, stop)}
            for alpha in range(-1, top + 3):
                assert runs.get(alpha, []) == holding(alpha), alpha


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

    def test_window_intervals_match_the_naive_walk(self):
        # Before the caps, which on the thm41 universe cut all window
        # intervals but one, so an alpha bound that is too tight would
        # not show through scan.  The cases-3/4 alpha bound has the
        # coefficient 2r - 10; those cases have windows from r = 7 on
        # (case 4 from r = 8), and there it binds.  At r = 4, 5 and 6,
        # where it is negative, zero and positive, _spans gives them no
        # window, so those r check cases 1/2 and the emptiness.
        for r in (4, 5, 6, 7, 12):
            for d in range(1, 301):
                for top in (d - 1, d, 2 * d, sieve.range_g_limit(d, r)):
                    assert uncapped_intervals(d, r, top) == naive_window_intervals(d, r, top), (d, r, top)

    def test_cases_3_4_alpha_bound_divides_by_positive_coefficients(self):
        # _spans divides by per_g and by coef = 3*per_g - per_alpha in
        # cases 3/4 only from r = 6 on, where both are > 0; below it
        # those cases have no window at any g, so none over the special
        # g either (the slack at the top g is negative at the alpha cap
        # of the least g).
        for r in (4, 5):
            for d in range(1, 3001):
                g_min = sieve.least_special_genus(d)
                for top in (d - 1, d, 2 * d, 3 * d):
                    spans = sieve._spans(d, r, g_min, top)
                    assert all(span.case.below for span in spans), (d, r, top)
                    if g_min <= min(top, d):
                        for case in (SieveCase.CASE3, SieveCase.CASE4):
                            cap = sieve.alpha_cap(case, d, g_min)
                            assert cap < r or sieve.case_slack(case, d, min(top, d), r, cap) < 0, (d, r, top)
        for r in range(6, 41):
            for case in (SieveCase.CASE3, SieveCase.CASE4):
                at_zero = sieve.case_slack(case, 100, 0, r, 0)
                per_g = sieve.case_slack(case, 100, 1, r, 0) - at_zero
                per_alpha = sieve.case_slack(case, 100, 0, r, 1) - at_zero
                assert per_g > 0 and 3 * per_g - per_alpha == 2 * r - 10 > 0, (r, case)

    @given(d=st.integers(1, 2**63 - 1), g=st.integers(0, 2**63 - 1), r=st.sampled_from((4, 5)))
    def test_cases_3_4_have_no_window_at_one_g_below_r_6(self, d, g, r):
        # iter_witnesses reads _spans at one g, where the cut would divide
        # by coef = 0 at r = 5 (and by -2 at r = 4): cases 3/4 have no
        # span there, and their window at g is empty.  The CLI's query
        # accepts d and g up to 2**63 - 1.
        assert all(span.case.below for span in sieve._spans(d, r, g, g))
        if d >= g:
            for case in (SieveCase.CASE3, SieveCase.CASE4):
                cap = sieve.alpha_cap(case, d, g)
                assert cap < r or sieve.case_slack(case, d, g, r, cap) < 0, case

    @pytest.mark.parametrize("r", range(4, 13))
    def test_spans_over_any_genus_range_are_the_naive_windows(self, r):
        # Every range 0 <= g_min <= g_max <= d + 3, and g_max = 2d + 2:
        # each case's span holds exactly the alphas with a g in range at
        # which the alpha is in the case's window, and interval(alpha)
        # is the least and largest such g.  The ranges below the special
        # g hold cases-3/4 windows before the cut at r = 4, 5, as in
        # _spans(7, 4, 0, 8) and _spans(10, 5, 0, 10).
        for d in range(1, 45):
            top = 2 * d + 2
            windows = naive_span_windows(d, r, top)
            for g_min in range(d + 4):
                want = {case: {} for case in SieveCase}
                for g_max in range(g_min, top + 1):
                    for case in SieveCase:
                        for alpha in windows[case][g_max]:
                            want[case][alpha] = (want[case][alpha][0] if alpha in want[case] else g_max, g_max)
                    if g_max > d + 3 and g_max != top:
                        continue
                    got = {case: {} for case in SieveCase}
                    for span in sieve._spans(d, r, g_min, g_max):
                        got[span.case] = {alpha: span.interval(alpha) for alpha in range(span.alpha_lo, span.alpha_hi + 1)}
                    assert got == want, (d, r, g_min, g_max)

    def test_genus_caps_once_per_alpha_with_a_window_interval(self, monkeypatch):
        # pi and the profile are each read exactly once per alpha that the
        # pi cut keeps, an alpha with a window interval whose g_lo is at
        # most pi, and at no other alpha; and many windowed alphas are
        # cut so.
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
        cut = 0
        for r in (4, 9, 12):
            for d in range(1, 150):
                for top in (d // 2, d, 2 * d + 5):
                    lows = collections.defaultdict(list)
                    for alpha, _, g_lo, _ in uncapped_intervals(d, r, top):
                        lows[alpha].append(g_lo)
                    kept = [(d, alpha) for alpha, g_los in lows.items() if min(g_los) <= naive_pi(d, alpha)]
                    profile_calls.clear()
                    pi_calls.clear()
                    list(sieve.genus_intervals(d, r, top))
                    assert pi_calls == kept, (d, r, top)
                    assert profile_calls == kept, (d, r, top)
                    cut += len(lows) - len(kept)
        assert cut > 100

    def test_genus_intervals_are_the_capped_window_intervals(self):
        # genus_intervals against its definition, each window interval
        # cut by genus_cap, where the pi cut drops most alphas.
        for r in (*range(4, 13), 40):
            for d in range(1, 701):
                caps = {}
                for top in (2 * d, sieve.range_g_limit(d, r)):
                    want = []
                    for alpha, case, g_lo, g_hi in uncapped_intervals(d, r, top):
                        if alpha not in caps:
                            caps[alpha] = sieve.genus_cap(d, alpha)
                        if g_lo <= caps[alpha]:
                            want.append((alpha, case, g_lo, min(g_hi, caps[alpha])))
                    assert list(sieve.genus_intervals(d, r, top)) == want, (d, r, top)

    def test_genus_cap_is_the_largest_passing_genus(self):
        for d in range(5, 60):
            for alpha in range(3, d - 1):
                cap = sieve.genus_cap(d, alpha)
                flags = [naive_genus_caps_ok(d, g, alpha) for g in range(cap + 3)]
                assert flags == [True] * (cap + 1) + [False] * 2, (d, alpha)
                assert [sieve.genus_caps_ok(d, g, alpha) for g in range(cap + 3)] == flags, (d, alpha)

    @given(data=st.data(), alpha=st.integers(3, 12) | st.integers(3, 2**63 - 3))
    def test_genus_cap_is_the_largest_passing_genus_up_to_the_input_ceiling(self, data, alpha):
        # d >= alpha + 2, where the profile is defined, up to the CLI's
        # input ceiling, with the thresholds of the pi1 and pi2 caps,
        # 2*alpha + 1 and 2*alpha + 3, drawn often.
        ceiling = 2**63 - 1
        near = [d for d in range(2 * alpha, 2 * alpha + 5) if d <= ceiling] or [ceiling]
        d = data.draw(st.integers(alpha + 2, ceiling) | st.sampled_from(near), label="d")
        cap = sieve.genus_cap(d, alpha)
        assert naive_genus_caps_ok(d, cap, alpha) and not naive_genus_caps_ok(d, cap + 1, alpha)
        assert sieve.genus_caps_ok(d, cap, alpha) and not sieve.genus_caps_ok(d, cap + 1, alpha)

    def test_pi_cut_walks_3123_alpha_case_on_the_thm41_universe(self, monkeypatch):
        # The (alpha, case) that genus_intervals walks past the pi cut on
        # the thm41 universe of `verify all` (r = 4..10, d <= 500, g up to
        # range_g_limit), of 117,587 in the windows.  A looser cut walks
        # more.
        universe = [(d, r, sieve.range_g_limit(d, r)) for r in range(4, 11) for d in range(1, 501)]
        windowed = sum(len(uncapped_intervals(*point)) for point in universe)
        walked = 0
        real = sieve._span_intervals

        def counting(d, pieces):
            nonlocal walked
            for entry in real(d, pieces):
                walked += 1
                yield entry

        monkeypatch.setattr(sieve, "_span_intervals", counting)
        for point in universe:
            list(sieve.genus_intervals(*point))
        assert (walked, windowed) == (3123, 117587)

    def test_rejects_out_of_domain(self):
        with pytest.raises(ValueError):
            list(sieve.genus_intervals(10, 3, 20))
        with pytest.raises(ValueError):
            list(sieve.genus_intervals(0, 5, 20))


def naive_pi(d, alpha):
    """pi(d, alpha) spelled out: C(m, 2)*q + m*eps with q = alpha - 1 and
    d - 1 = m*q + eps."""
    m, eps = divmod(d - 1, alpha - 1)
    return m * (m - 1) // 2 * (alpha - 1) + m * eps


def assert_pi_cut_is_exact(d, span):
    """_under_pi ends the prefix of exactly the span's alphas with g_lo <=
    pi(d, alpha), and both of its lines fall on each quotient block the
    span holds."""
    last = sieve._under_pi(d, span)
    assert last >= span.alpha_lo - 1, (d, span)
    kept = list(range(span.alpha_lo, last + 1))
    want = []
    for alpha in range(span.alpha_lo, span.alpha_hi + 1):
        m = (d - 1) // (alpha - 1)
        assert span.per_g * (m * (m + 1) // 2) > span.per_alpha > 0, (d, span, alpha)
        if span.interval(alpha)[0] <= naive_pi(d, alpha):
            want.append(alpha)
    assert kept == want, (d, span)


def assert_pi_falls_across_a_span(d, alpha):
    """pi(d, alpha) - pi(d, alpha + 1) is at least 6 where 3(alpha + 1) <=
    d + 1 (two alphas of a case-1/2 span) and at least 3 where 2(alpha +
    1) <= d + 1 (of a case-3/4 span): the step that makes the alphas that
    _under_pi keeps one prefix of the span."""
    assert 2 * (alpha + 1) <= d + 1
    fall = naive_pi(d, alpha) - naive_pi(d, alpha + 1)
    assert fall >= (6 if 3 * (alpha + 1) <= d + 1 else 3), (d, alpha)


class TestPiCut:
    def test_pi_falls_across_a_span(self):
        for d in range(3, 2001):
            for alpha in range(2, (d - 1) // 2 + 1):
                assert_pi_falls_across_a_span(d, alpha)

    @given(data=st.data(), d=st.integers(5, 2**63 - 1))
    def test_pi_falls_across_a_span_up_to_the_input_ceiling(self, data, d):
        top, third = (d - 1) // 2, (d - 2) // 3
        alpha = data.draw(
            st.one_of(
                st.integers(2, min(top, 40)),
                st.integers(max(2, third - 40), min(top, third + 40)),
                st.integers(max(2, top - 40), top),
                st.integers(2, top),
            ),
            label="alpha",
        )
        assert_pi_falls_across_a_span(d, alpha)

    @pytest.mark.parametrize("r", [*range(4, 13), 20, 40])
    def test_exact_on_every_genus_range(self, r):
        # Every range 0 <= g_min <= g_max <= 2d + 2 at d <= 40, so also
        # those where g_min binds and those below the special g; and from
        # each g_min where a gate or the case split starts, every g_max up
        # to 4d + 3, since a span at r = 4 needs g above 3d.  The degrees
        # from 3r - 1, where the case-1/2 spans start, give r = 20 and 40
        # their spans.
        checked = 0
        for d in {*range(1, 41), *range(3 * r - 1, 3 * r + 4)}:
            special = sieve.least_special_genus(d)
            ranges = {(g_min, g_max) for g_min in (0, special, d, d + 1) for g_max in range(g_min, 4 * d + 4)}
            if d <= 40:
                ranges |= {(g_min, g_max) for g_min in range(2 * d + 3) for g_max in range(g_min, 2 * d + 3)}
            for g_min, g_max in ranges:
                for span in sieve._spans(d, r, g_min, g_max):
                    assert_pi_cut_is_exact(d, span)
                    checked += 1
        assert checked > 0

    @settings(max_examples=300)
    @given(data=st.data(), d=st.integers(1, 3000), r=st.integers(4, 40))
    def test_exact_on_random_genus_ranges(self, data, d, r):
        special = sieve.least_special_genus(d)
        g_min = data.draw(st.sampled_from((0, special, d, d + 1)) | st.integers(0, 3 * d), label="g_min")
        g_max = data.draw(
            st.sampled_from((g_min, d, 2 * d, sieve.range_g_limit(d, r))).filter(lambda g: g >= g_min)
            | st.integers(g_min, 3 * d + 3),
            label="g_max",
        )
        for span in sieve._spans(d, r, g_min, g_max):
            assert_pi_cut_is_exact(d, span)

    @given(
        d=st.integers(2**62, 2**63 - 1),
        r=st.integers(4, 40),
        case=st.sampled_from(SieveCase),
        m=st.integers(2, 10**6),
        offset=st.integers(-40, 40),
        width=st.integers(0, 80),
        at=st.integers(0, 80),
        delta=st.integers(-3, 3),
        g_min_binds=st.booleans(),
    )
    def test_exact_on_narrow_windows_near_the_input_ceiling(self, d, r, case, m, offset, width, at, delta, g_min_binds):
        # A window of at most 81 alphas about the end of the block of m,
        # with the slack's g floor or g_min set to cross pi at an alpha of
        # it (delta = 0: on an integer).  The window stays below the
        # alpha bound of a real span, (d + 1)/3 in cases 1/2 and
        # (d + 1)/2 in cases 3/4, which exist from r = 6 on.
        assume(case.below or r >= 6)
        assume(m >= 3 or not case.below)
        n = d - 1
        lo = max(r, n // m + 1 + offset)
        hi = min(lo + width, (d + 1) // (3 if case.below else 2))
        assume(lo <= hi)
        at_zero = sieve.case_slack(case, d, 0, r, 0)
        per_g = sieve.case_slack(case, d, 1, r, 0) - at_zero
        per_alpha = sieve.case_slack(case, d, 0, r, 1) - at_zero
        pivot = min(lo + at, hi)
        pi = naive_pi(d, pivot)
        if g_min_binds:
            g_min, at_zero = pi + delta, -per_alpha * lo
        else:
            g_min, at_zero = 0, delta - per_g * pi - per_alpha * pivot
        span = sieve._Span(case, g_min, 2**64, lo, hi, at_zero, per_g, per_alpha, None)
        assert_pi_cut_is_exact(d, span)


def joins(d, span, alpha):
    """The join test of sieve.r11_intervals at alpha: the capped interval
    at alpha reaches the union [L(alpha - 1), g_max]."""
    return sieve.genus_cap(d, alpha) + 1 >= span.interval(alpha - 1)[0]


def r11_spans(d, r):
    """The _spans of r11's universe at degree d, the special g up to 2d:
    at most one per case."""
    spans = sieve._spans(d, r, sieve.least_special_genus(d), 2 * d)
    assert len({span.case for span in spans}) == len(spans), (d, r)
    return spans


def r11_pieces(d, r, runs):
    """The pieces (span, lo, alpha_hi) that r11_intervals walks at degree
    d, rebuilt from its runs: each case has at most one span, so a span
    whose case has a run is walked from one past its end, min(alpha_hi,
    top) with r11's top (d - 1) // 3, and any other span whole."""
    top = (d - 1) // 3
    cases = {case for case, _, _ in runs}
    return [
        (span, min(span.alpha_hi, top) + 1 if span.case in cases else span.alpha_lo, span.alpha_hi)
        for span in r11_spans(d, r)
    ]


def step_a_lo(d, alpha, case, g_lo, g_hi):
    """The least g of g_lo..g_hi at which step (a) applies, spelled out:
    in cases 1/2 3*alpha >= d, the case-2 alpha-cap numerator, and in
    cases 3/4 3*alpha >= 2d - g, the case-4 one; g_hi + 1 if none."""
    if case.below:
        return g_lo if 3 * alpha >= d else g_hi + 1
    return min(max(g_lo, 2 * d - 3 * alpha), g_hi + 1)


def assert_runs_are_settled_at_their_end(d, r, runs, data):
    """r11_intervals at degree d has a run (case, L(last), g_max) for a
    span, up to last = min(alpha_hi, top), exactly when its first alpha
    is at most last, its cap there at least g_max, and the join test
    holds at last; and then the join test holds at an alpha of the run
    that data draws, as it does not rise with alpha."""
    top = (d - 1) // 3
    want = []
    for span in r11_spans(d, r):
        last = min(span.alpha_hi, top)
        starts = span.alpha_lo <= last and sieve.genus_cap(d, span.alpha_lo) >= span.g_max
        if starts and (last == span.alpha_lo or joins(d, span, last)):
            want.append((span.case, span.interval(last)[0], span.g_max))
            if last > span.alpha_lo:
                alpha = data.draw(st.integers(span.alpha_lo + 1, last), label="alpha")
                assert joins(d, span, alpha), (d, span, alpha)
    assert runs == want, d


def assert_caps_fall_by_2(d, alphas):
    """genus_cap(d, alpha) - genus_cap(d, alpha + 1) >= 2 at each alpha."""
    for alpha in alphas:
        assert sieve.genus_cap(d, alpha) - sieve.genus_cap(d, alpha + 1) >= 2, (d, alpha)


def caps_lowered_by(k):
    """castelnuovo_profile with pi1 and pi2 lowered by k: the genus caps
    still fall by at least 2 per alpha, and more spans fail the join test
    at their end."""
    profile = bounds.castelnuovo_profile.__wrapped__

    def lowered(d, alpha):
        prof = profile(d, alpha)
        return prof._replace(pi1=prof.pi1 - k, pi2=prof.pi2 - k)

    return lowered


def assert_r11_intervals(r, d_max):
    """Over d <= d_max with r11's top (3*alpha < d), in every case: the
    universe is the special g up to 2d; the walk is _span_intervals of the
    pieces rebuilt from the runs, each with step (a)'s least g by the
    literal formula; each run ends at min(alpha_hi, top), the capped
    intervals read over it join exactly into the union it lists, and step
    (a) has no g at any of its alphas.  Returns the alphas in runs, the
    alphas at or below the top, the cases with a run and the number of
    spans that pass the start test but stop joining at their end, and so
    walk whole."""
    in_runs = below_top = stopped = 0
    cases = set()
    for d in range(1, d_max + 1):
        top = (d - 1) // 3
        universe, runs, walk = sieve.r11_intervals(d, r)
        assert universe == range(sieve.least_special_genus(d), 2 * d + 1), d
        pieces = r11_pieces(d, r, runs)
        want_walk = [(*entry, step_a_lo(d, *entry[:4])) for entry in sieve._span_intervals(d, pieces)]
        assert list(walk) == want_walk, (d, r)
        want_runs = []
        for span, lo, _ in pieces:
            end = min(span.alpha_hi, top)
            below_top += len(range(span.alpha_lo, end + 1))
            if lo == span.alpha_lo:
                if span.alpha_lo < end and sieve.genus_cap(d, span.alpha_lo) >= span.g_max:
                    assert not joins(d, span, end), (d, r, span)
                    stopped += 1
                continue
            in_runs += end - span.alpha_lo + 1
            cases.add(span.case)
            want_runs.append((span.case, span.interval(end)[0], span.g_max))
            capped = []
            for alpha in range(span.alpha_lo, end + 1):
                g_lo, g_hi = span.interval(alpha)
                assert step_a_lo(d, alpha, span.case, g_lo, g_hi) > g_hi, (d, r, span, alpha)
                cap = sieve.genus_cap(d, alpha)
                if g_lo <= cap:
                    capped.append((g_lo, min(g_hi, cap)))
            assert verify._merged(capped) == [list(want_runs[-1][1:])], (d, r, span)
        assert runs == want_runs, (d, r)
    return in_runs, below_top, cases, stopped


class TestCertifiedPieces:
    def test_caps_fall_by_2_per_alpha_in_the_certified_region(self, monkeypatch):
        # The premise of the join test at a run's end: 11 <= alpha,
        # 3(alpha + 1) <= d - 1.
        # The uncached bounds keep this sweep out of the caches.
        monkeypatch.setattr(bounds, "castelnuovo_profile", bounds.castelnuovo_profile.__wrapped__)
        monkeypatch.setattr(bounds, "max_genus_pi", bounds.max_genus_pi.__wrapped__)
        for d in range(37, 1501):
            assert_caps_fall_by_2(d, range(11, (d - 1) // 3))

    @given(data=st.data(), d=st.integers(37, 2**63 - 1))
    def test_caps_fall_by_2_per_alpha_up_to_the_input_ceiling(self, data, d):
        top = (d - 1) // 3 - 1
        alpha = data.draw(
            st.one_of(st.integers(11, min(top, 40)), st.integers(max(11, top - 40), top), st.integers(11, top)),
            label="alpha",
        )
        assert_caps_fall_by_2(d, [alpha])

    @given(data=st.data(), r=st.integers(11, 60), d=st.integers(1, 2**63 - 1), lowered=st.integers(0, 5))
    def test_runs_are_settled_at_their_end_up_to_the_input_ceiling(self, data, r, d, lowered):
        # Caps lowered by a few make more spans fail the join test at
        # their end, and so walk whole.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bounds, "castelnuovo_profile", caps_lowered_by(lowered))
            _, runs, _ = sieve.r11_intervals(d, r)
            assert_runs_are_settled_at_their_end(d, r, runs, data)

    @pytest.mark.parametrize("r", [11, 12, 20])
    def test_certified_runs_are_unions_of_the_capped_intervals(self, r):
        # The runs hold most alphas below the top, and some case-3/4 span
        # holds one.
        in_runs, below_top, cases, _ = assert_r11_intervals(r, 300)
        assert in_runs > below_top // 2
        assert cases - {SieveCase.CASE1, SieveCase.CASE2}

    @pytest.mark.parametrize("r", [11, 12, 20])
    def test_runs_end_where_lowered_caps_stop_joining(self, monkeypatch, r):
        # Caps lowered by 5 keep the premise of the join test, and some
        # spans that pass the start test fail the join test at their end:
        # they get no run and walk whole.
        monkeypatch.setattr(bounds, "castelnuovo_profile", caps_lowered_by(5))
        assert assert_r11_intervals(r, 300)[3] > 0


class TestDerivedInequalities:
    def test_matches_the_expanded_polynomials(self):
        # Every consistent (eps, mu), m = 1 included, whose degree may lie
        # below alpha + 2, where castelnuovo_profile is not defined.
        for r in range(4, 16):
            for alpha in range(8, 26):
                for m in range(1, 10):
                    for which in Ineq:
                        for eps in range(alpha if which.first else alpha + 1):
                            if which.first:
                                mu = 1 if eps == alpha - 1 else 0
                            else:
                                mu = 2 if eps == alpha else (1 if eps >= alpha - 2 else 0)
                            want = naive_derived_slack(which, r, alpha, m, eps, mu)
                            assert sieve.derived_slack(which, r, alpha, m, eps, mu) == want, (which, r, alpha, m, eps)

    def test_expansions_equal_substitution_forms(self):
        # Twice the case slack at the pi1 or pi2 of the profile induced by
        # the encoded degree.
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

    @given(which=st.sampled_from(Ineq), alpha=st.integers(8, 200), data=st.data())
    def test_divisor_is_the_profile_division(self, which, alpha, data):
        # d - 1 = m*divisor + eps with 0 <= eps < divisor, in the profile's
        # division of the inequality's convention.
        d = data.draw(st.integers(alpha + 2, 10**6), label="d")
        m, eps, _ = which.division(bounds.castelnuovo_profile(d, alpha))
        divisor = which.divisor(alpha)
        assert m * divisor + eps == d - 1
        assert 0 <= eps < divisor

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

    @pytest.mark.parametrize("g", range(1, 6))
    def test_one_more_degree_than_genus_is_empty_up_to_genus_5(self, g):
        # pi(d, 3) is 0, 1, 2, 4 at d = 3..6, and there is no space curve
        # of degree 2 and genus 1, so the genus bound alone empties these.
        assert sieve.r3_classify(g + 1, g).render() == "empty"
        assert g > (bounds.max_genus_pi(g + 1, 3) if g >= 2 else 0)

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            sieve.r3_classify(0, 5)
