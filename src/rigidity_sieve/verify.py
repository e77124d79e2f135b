"""Brute-force verification sweeps.

Each operation enumerates a stated finite universe exhaustively and
returns a VerificationReport listing every violation found (empty means
the claim held on that universe).  Reports are deterministic: identical
inputs produce identical reports, including violation order.

All claims checked here are universally quantified in principle;
enumeration to configurable bounds is property testing, not proof, and
every report carries that caveat together with the exact universe.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import bounds, sieve, surfaces
from .sieve import Ineq, SieveCase
from .surfaces import DivisorClass

ENUMERATION_CAVEAT = "bounded enumeration: claims are verified only on the stated universe"
# Suite defaults, read by the suites' signatures and by the CLI's flags:
# the r5window degree window, on which the paper's r = 5 range adds a
# clause; the largest quotient m of derived (which has no flag); the
# splits grid (a_max, b_max, e_max).
R5_WINDOW = (101, 113)
DERIVED_M_MAX = 20
SPLITS_GRID = (12, 60, 4)


@dataclass
class VerificationReport:
    """Outcome of one verification sweep.

    universe records the exact bounds enumerated; checked counts the
    configurations examined; violations is empty iff the claim held;
    audit carries auxiliary data (survivor lists, cross-check results)
    that is informational rather than pass/fail.
    """

    suite: str
    universe: dict
    checked: int = 0
    violations: list = field(default_factory=list)
    audit: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "universe": self.universe,
            "checked": self.checked,
            "ok": self.ok,
            "violations": self.violations,
            "audit": self.audit,
            "caveat": ENUMERATION_CAVEAT,
        }


def verify_spot_values(grid_max: int = 50) -> VerificationReport:
    """Check the frozen table of hand-computable invariants.

    Fixed spots (maximal genus, first two refined genus caps,
    Brill-Noether number, moduli-image dimensions, quadric types) plus
    the identity chi(normal bundle) = 4d in 3-space over the grid
    d in [1, grid_max], g in [0, grid_max].
    """
    report = VerificationReport("spots", {"grid_max": grid_max})

    def check(name: str, got, want) -> None:
        report.checked += 1
        if got != want:
            report.violations.append({"check": name, "got": got, "want": want})

    check("pi(6,3)", bounds.max_genus_pi(6, 3), 4)
    check("pi(7,3)", bounds.max_genus_pi(7, 3), 6)
    check("pi(8,3)", bounds.max_genus_pi(8, 3), 9)
    check("pi(9,3)", bounds.max_genus_pi(9, 3), 12)
    check("pi1(8,3)", bounds.castelnuovo_profile(8, 3).pi1, 7)
    check("pi1(9,3)", bounds.castelnuovo_profile(9, 3).pi1, 10)
    check("rho(9,8,3)", bounds.brill_noether(9, 8, 3), 0)
    check("image_dim(8,h1=0)", bounds.image_dim_r3(8, 0), 17)
    check("image_dim(8,h1=1)", bounds.image_dim_r3(8, 1), 18)
    check("image_dim(9,h1=0)", bounds.image_dim_r3(9, 0), 21)
    check("image_dim(9,h1=2)", bounds.image_dim_r3(9, 2), 23)
    check("quadric_types(8,7)", bounds.quadric_types(8, 7), [])
    check("quadric_types(8,8)", bounds.quadric_types(8, 8), [(5, 3)])
    check("quadric_types(8,9)", bounds.quadric_types(8, 9), [(4, 4)])
    check("quadric_types(9,10)", bounds.quadric_types(9, 10), [(6, 3)])
    check("quadric_types(9,11)", bounds.quadric_types(9, 11), [])
    check("quadric_types(9,12)", bounds.quadric_types(9, 12), [(5, 4)])
    for d in range(1, grid_max + 1):
        for g in range(0, grid_max + 1):
            check(f"lambda({d},{g},3)", bounds.euler_normal(d, g, 3), 4 * d)
    return report


def check_case34_args(r_lo: int, r_hi: int, d_max: int) -> None:
    """Raise ValueError unless verify_case34_never accepts these bounds."""
    if r_lo < 4 or r_lo > r_hi:
        raise ValueError(f"need 4 <= r_lo <= r_hi, got ({r_lo}, {r_hi})")
    # g runs over 2..d, so d_max = 1 would pass with nothing checked.
    if d_max < 2:
        raise ValueError(f"need d_max >= 2, got {d_max}")


def verify_case34_never(r_lo: int, r_hi: int, d_max: int) -> VerificationReport:
    """Confirm no witness in the d >= g cases survives for r in
    [r_lo, r_hi] over d <= d_max, g in [2, d].

    The claim is specific to 4 <= r <= 10; larger r may be passed to
    demonstrate that the claim genuinely fails there.
    """
    check_case34_args(r_lo, r_hi, d_max)
    report = VerificationReport(
        "case34", {"r_lo": r_lo, "r_hi": r_hi, "d_max": d_max, "g": "2..d"}
    )
    for r in range(r_lo, r_hi + 1):
        for d in range(1, d_max + 1):
            report.checked += d - 1
            # g <= d, so every witness is a case-3 or case-4 one.
            for g, witnesses in sieve.witnesses_by_genus(d, r, d).items():
                for alpha, case in witnesses:
                    report.violations.append(
                        {
                            "r": r,
                            "d": d,
                            "g": g,
                            "alpha": alpha,
                            "case": case.value,
                            "slack": sieve.case_slack(case, d, g, r, alpha),
                        }
                    )
    return report


def check_thm41_args(r: int, d_max: int) -> None:
    """Raise ValueError unless verify_thm41 accepts these bounds."""
    if r < 4:
        raise ValueError(f"need r >= 4, got {r}")
    if d_max < r + 2:
        raise ValueError(f"need d_max >= r + 2, got {d_max}")


def verify_thm41(r: int, d_max: int, honor_exception: bool = True) -> VerificationReport:
    """Sweep every in-range (d <= d_max, g >= 1) and confirm the sieve
    excludes it; violations are surviving pairs with their witnesses.

    Set honor_exception=False to drop the single excepted point of the
    r = 9 range and observe it surface as the lone violation.
    """
    check_thm41_args(r, d_max)
    report = VerificationReport(
        "thm41",
        {
            "r": r,
            "d_max": d_max,
            "g": "1..range_g_limit(d)",
            "exception_honored": honor_exception,
        },
    )
    for d in range(1, d_max + 1):
        genera = sieve.range_genera(d, r, honor_exception=honor_exception)
        report.checked += len(genera)
        if not genera:
            continue
        for g in sieve.witnesses_by_genus(d, r, genera[-1]):
            if g in genera:
                report.violations.append(
                    {
                        "d": d,
                        "g": g,
                        "witnesses": [w.to_dict() for w in sieve.scan(d, g, r).witnesses],
                    }
                )
    return report


# The per-r consequences claimed for each derived inequality.  Each entry
# (which, K, c, op, a, b) claims "m >= K and c*v op a*alpha + b", where m
# is the inequality's own quotient (m1 or m2, by which.first) and v its
# source case's side variable (i or j, by which.case; see _side).
_DERIVED_CLAIMS: dict[int, list] = {
    4: [(Ineq.INEQ7, 9, 1, ">=", 7, 1), (Ineq.INEQ9, 8, 2, ">=", 11, -2), (Ineq.INEQ10, 8, 2, ">=", 11, 12)],
    5: [
        (Ineq.INEQ7, 5, 1, ">", 3, 1), (Ineq.INEQ8, 5, 1, ">=", 3, 5),
        (Ineq.INEQ9, 5, 5, ">=", 12, -4), (Ineq.INEQ10, 5, 5, ">=", 12, 16),
    ],
    6: [
        (Ineq.INEQ7, 4, 5, ">", 8, 2), (Ineq.INEQ8, 4, 5, ">=", 8, 20),
        (Ineq.INEQ9, 4, 3, ">", 4, -2), (Ineq.INEQ10, 4, 3, ">=", 4, 7),
    ],
    7: [(Ineq.INEQ7, 3, 1, ">=", 1, 1), (Ineq.INEQ9, 3, 5, ">", 4, -4), (Ineq.INEQ10, 3, 5, ">=", 4, 1)],
    8: [(Ineq.INEQ8, 3, 2, ">=", 1, 6), (Ineq.INEQ10, 3, 7, ">=", 3, 11)],
    9: [(Ineq.INEQ8, 3, 8, ">=", 2, 23), (Ineq.INEQ10, 2, 1, ">=", 0, 3)],
    10: [(Ineq.INEQ8, 2, 1, ">=", 0, 4), (Ineq.INEQ9, 3, 11, ">", 1, -4), (Ineq.INEQ10, 2, 1, ">=", 0, 2)],
}


def _side(which: Ineq, alpha: int, d: int) -> int:
    """The side variable of the inequality's source case, which must be
    >= 0: i of case 1 for INEQ7/INEQ8, else j of case 2.  Neither case
    reads g in its alpha-cap numerator, so g = 0 is passed."""
    return sieve.cap_numerator(which.case, d, 0) - 3 * alpha


def _claim_text(claim: tuple) -> str:
    """The claim as reports print it, e.g. "m1 >= 8 and 2j >= 11a-2"."""
    which, k, c, op, a, b = claim
    v = "i" if which.case is SieveCase.CASE1 else "j"
    lhs = v if c == 1 else f"{c}{v}"
    rhs = str(b) if a == 0 else f"{'' if a == 1 else a}a{b:+d}"
    return f"{'m1' if which.first else 'm2'} >= {k} and {lhs} {op} {rhs}"


def _claim_window(claim: tuple, alpha: int, m_max: int) -> tuple:
    """(lo, fail, top): the claim's universe at alpha is the degrees
    lo..top, and the claim fails exactly at those below fail.  This is
    the one encoding of a claim's degree bounds.

    With q the divisor of the convention and d - 1 = m*q + eps, lo is the
    least d with d >= alpha + 2 (the profile's domain) and side variable
    v >= 0 (v is d plus a constant, see _side), and top the last d of
    m = m_max.  m >= K holds from d = K*q + 1 up and, since c > 0,
    c*v op a*alpha + b from its least d up; fail is the larger of the two.
    """
    which, k, c, op, a, b = claim
    q = which.divisor(alpha)
    side_at_0 = _side(which, alpha, 0)
    fail = max(k * q + 1, -(-(a * alpha + b + (op == ">")) // c) - side_at_0)
    return max(alpha + 2, -side_at_0), fail, (m_max + 1) * q


def _linear_form(which: Ineq, r: int, alpha: int, m: int) -> tuple:
    """(base, per_eps, per_mu) such that, on every consistent (eps, mu) at
    (which, r, alpha, m), derived_slack - floor = base + per_eps*eps +
    per_mu*mu, where floor is 1 for a strict inequality and 0 otherwise;
    so the inequality holds exactly when the form is >= 0.

    derived_slack is linear in eps and mu once m is fixed (the degree
    and pi are), so three of its values give the form: (0, 0), (1, 0)
    and eps = alpha - 1, whose mu is 1 in both conventions.
    derived_slack and derived_satisfied stay the one encoding of the
    inequalities and their strictness.
    """
    at_origin = sieve.derived_slack(which, r, alpha, m, 0, 0)
    per_eps = sieve.derived_slack(which, r, alpha, m, 1, 0) - at_origin
    eps = alpha - 1
    mu = bounds.mu(eps, alpha, which.first)
    per_mu = (sieve.derived_slack(which, r, alpha, m, eps, mu) - at_origin - per_eps * eps) // mu
    floor = 0 if sieve.derived_satisfied(which, 0) else 1
    return at_origin - floor, per_eps, per_mu


def check_derived_args(r: int, alpha_max: int, m_max: int = DERIVED_M_MAX) -> None:
    """Raise ValueError unless verify_derived_claims accepts these bounds."""
    if not 4 <= r <= 10:
        raise ValueError(f"need 4 <= r <= 10, got {r}")
    if alpha_max < max(8, r):
        raise ValueError(f"need alpha_max >= max(8, r) = {max(8, r)}, got {alpha_max}")
    # m = 1 yields no tuple, so m_max = 1 would pass vacuously.
    if m_max < 2:
        raise ValueError(f"need m_max >= 2, got {m_max}")


def _holds_at(which: Ineq, r: int, alpha: int, profile) -> bool:
    """Whether the inequality holds at the profile's own division, read
    through derived_slack, which raises ValueError on a (eps, mu) off the
    convention (sieve.check_division)."""
    return sieve.derived_satisfied(which, sieve.derived_slack(which, r, alpha, *which.division(profile)))


def verify_derived_claims(r: int, alpha_max: int, m_max: int = DERIVED_M_MAX) -> VerificationReport:
    """Check the per-r consequences of the four derived inequalities.

    Enumerates consistent (alpha, m, eps, mu) with alpha in
    [max(8, r), alpha_max], the i/j nonnegativity side condition of the
    inequality's source case, and the companion inequality of the same
    case evaluated at the induced (d, alpha) — the two inequalities of a
    case arise together, and several claimed consequences are sharp only
    in that joint context.  A tuple satisfying all of that but violating
    the claimed consequence is a violation.  One walk visits each
    (claim, alpha, d) where the claim fails (_claim_window).  The
    inequality's own test is its linear form in (eps, mu), read once per
    (inequality, alpha, m), at d's own division; the partner is read
    once, through derived_slack at the profile of (d, alpha).

    For r = 9 the enumeration additionally rebuilds the set of (d, g)
    with a second-profile denominator of 2 passing the tenth inequality
    and compares it against the two known points.  For r = 4 the walk
    also evaluates a cross encoding at each (claim, alpha, d): both
    inequalities through derived_slack at the profile's own division;
    the two key sets are cross-asserted at the end.  A profile whose
    (eps, mu) breaks its division convention (sieve.check_division) is
    a violation of its own, listed once per (alpha, d) at the end, with
    the primary's error before the cross encoding's; the walk goes on
    past that degree.
    """
    check_derived_args(r, alpha_max, m_max)
    alpha_lo = max(8, r)
    report = VerificationReport(
        "derived",
        {"r": r, "alpha": f"{alpha_lo}..{alpha_max}", "m_max": m_max},
    )
    tuple_violations = []
    # (alpha, d) -> the error of a profile that breaks its convention,
    # as the primary and as the r = 4 cross encoding met it.
    convention, cross_convention = {}, {}
    cross = []
    for claim in _DERIVED_CLAIMS[r]:
        which = claim[0]
        partner = which.partner
        text = _claim_text(claim)
        for alpha in range(alpha_lo, alpha_max + 1):
            q = which.divisor(alpha)
            lo, fail, top = _claim_window(claim, alpha, m_max)
            report.checked += top - lo + 1
            form_m = None
            for d in range(lo, min(fail, top + 1)):
                m, eps = divmod(d - 1, q)
                if m != form_m:
                    form_m, (base, per_eps, per_mu) = m, _linear_form(which, r, alpha, m)
                mu = bounds.mu(eps, alpha, which.first)
                own = base + per_eps * eps + per_mu * mu >= 0
                if not own and r != 4:
                    continue
                prof = bounds.castelnuovo_profile(d, alpha)
                if r == 4:
                    try:
                        if _holds_at(which, r, alpha, prof) and _holds_at(partner, r, alpha, prof):
                            cross.append((which.value, d, alpha))
                    except ValueError as exc:
                        cross_convention.setdefault((alpha, d), str(exc))
                    if not own:
                        continue
                try:
                    if not _holds_at(partner, r, alpha, prof):
                        continue
                except ValueError as exc:
                    convention.setdefault((alpha, d), str(exc))
                    continue
                tuple_violations.append(
                    {
                        "ineq": which.value,
                        "claim": text,
                        "alpha": alpha,
                        "m": m,
                        "eps": eps,
                        "mu": mu,
                        "d": d,
                    }
                )
    report.violations.extend(tuple_violations)

    if r == 9:
        hits = set()
        ineq10 = next(claim for claim in _DERIVED_CLAIMS[r] if claim[0] is Ineq.INEQ10)
        for alpha in range(alpha_lo, alpha_max + 1):
            q = Ineq.INEQ10.divisor(alpha)
            base, per_eps, per_mu = _linear_form(Ineq.INEQ10, r, alpha, 2)
            # The degrees of m2 = 2 in the universe of the tenth inequality.
            for d in range(max(2 * q + 1, _claim_window(ineq10, alpha, m_max)[0]), 3 * q + 1):
                eps = d - 1 - 2 * q
                if base + per_eps * eps + per_mu * bounds.mu(eps, alpha, False) < 0:
                    continue
                prof = bounds.castelnuovo_profile(d, alpha)
                # A floor, where the case-2 slack >= 0 needs a ceiling.
                # The floor alone puts (30, 33) in the audit: at alpha = 9
                # it gives 203 // 6 = 33, not 34, and the case-2 slack at
                # (30, 33) is -5, so scan excludes that point.  Kept, as
                # the recorded verify-all output carries it; whether the
                # paper means the floor is open (ROADMAP item 5).
                slack_g0 = sieve.case_slack(SieveCase.CASE2, d, 0, r, alpha)
                g_lo = -slack_g0 // (sieve.case_slack(SieveCase.CASE2, d, 1, r, alpha) - slack_g0)
                for g in range(max(g_lo, d + 1), prof.pi2 + 1):
                    hits.add((d, g))
        expected = {(30, 33), (30, 34)}
        report.audit["m2_eq_2_pairs"] = sorted(hits)
        for pair in sorted(hits - expected):
            report.violations.append({"check": "m2=2 pairs", "unexpected": list(pair)})
        for pair in sorted(expected - hits):
            report.violations.append({"check": "m2=2 pairs", "missing": list(pair)})

    if r == 4:
        report.audit["cross_encoding_violations"] = len(cross)
        primary_keys = {(v["ineq"], v["d"], v["alpha"]) for v in tuple_violations}
        cross_keys = set(cross)
        if primary_keys != cross_keys:
            report.violations.append(
                {
                    "check": "encoding cross-assert",
                    "tuple_only": sorted(primary_keys - cross_keys),
                    "pair_only": sorted(cross_keys - primary_keys),
                }
            )
    for (alpha, d), error in sorted({**cross_convention, **convention}.items()):
        report.violations.append({"check": "profile convention", "d": d, "alpha": alpha, "error": error})
    return report


def check_r11_args(r: int, d_max: int) -> None:
    """Raise ValueError unless verify_r_ge_11 accepts these bounds."""
    if r < 11:
        raise ValueError(f"need r >= 11, got {r}")
    if d_max < 1:
        raise ValueError(f"need d_max >= 1, got {d_max}")


def _merged(intervals) -> list:
    """The (g_lo, g_hi) intervals joined into disjoint, non-adjacent
    [g_lo, g_hi] intervals with the same g, ascending."""
    out = []
    for g_lo, g_hi in sorted(intervals):
        if out and g_lo <= out[-1][1] + 1:
            out[-1][1] = max(out[-1][1], g_hi)
        else:
            out.append([g_lo, g_hi])
    return out


def r11_least_genus(case: SieveCase, d: int, r: int) -> int:
    """The least g at which step (b)'s degree bound of the case holds at
    degree d; it holds at every g from there up.  The bounds:

        cases 1/2: 2(r+1)d <= 3(r-3)g - r + 8, resp. - r + 14
        cases 3/4:  (r+1)d <= 2(r-5)g - r + 8, resp. - r + 14

    The case-4 bound is the complement of the r >= 11 range row, so its
    least g is sieve.range_g_limit(d, r) + 1.
    """
    if case.below:
        num, den = 2 * (r + 1) * d, 3 * (r - 3)
    else:
        num, den = (r + 1) * d, 2 * (r - 5)
    return -(-(num + r - (8 if case.index % 2 else 14)) // den)


def verify_r_ge_11(r: int, d_max: int) -> VerificationReport:
    """Check the three steps of the high-r exclusion over d <= d_max,
    g in [2, 2d]:

    (a) any slack-feasible alpha at or above the boundary (3*alpha at
        least the case-2 alpha-cap numerator for the d < g cases, the
        case-4 one for the d >= g cases; a_lo of sieve.r11_intervals)
        has second profile with denominator count 2, correction 0, and
        second genus cap at most d resp. g-1 — hence is cap-excluded;
    (b) every surviving witness at interior alpha satisfies the per-case
        degree bound in terms of g (r11_least_genus);
    (c) no survivor lies in the theorem's hypothesis range.
    """
    check_r11_args(r, d_max)
    report = VerificationReport("r11", {"r": r, "d_max": d_max, "g": "2..2d"})
    survivors = 0
    for d in range(1, d_max + 1):
        universe, runs, walk = sieve.r11_intervals(d, r)
        report.checked += len(universe)
        # Violations keyed by (g, case index, part, alpha), sorted at
        # the end of the degree; part (c) sorts after every case.
        found = []
        fired = {case.index: [(g_lo, g_hi) for c, g_lo, g_hi in runs if c is case] for case in SieveCase}
        for alpha, case, g_lo, g_hi, cap, a_lo in walk:
            if g_lo <= cap:
                fired[case.index].append((g_lo, min(g_hi, cap)))
            # (a): alpha is at or above the boundary on g >= a_lo.
            if a_lo > g_hi:
                continue
            prof = bounds.castelnuovo_profile(d, alpha)
            # The g that fail (a) are a prefix: all of them unless
            # m2 = 2 and mu2 = 0 (and pi2 <= d in cases 1/2); otherwise
            # those the caps let through (g <= cap) and, in cases 3/4,
            # those with pi2 > g - 1.
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
        # (b): the per-case degree bound is alpha-free and fails exactly
        # below the case's least genus, so only the g of the case's
        # merged intervals below it are expanded.  r = 11 and 12 at
        # d <= 400 have about 14 M (g, alpha, case) witnesses.
        surviving = []
        for case in SieveCase:
            merged = _merged(fired[case.index])
            surviving.extend(merged)
            least = r11_least_genus(case, d, r)
            for g_lo, g_hi in merged:
                for g in range(g_lo, min(g_hi, least - 1) + 1):
                    found.append(((g, case.index, 1, 0), {"part": "b", "d": d, "g": g, "case": case.value}))
        # (c): for r >= 11 the in-range g are 1..range_g_limit.
        limit = sieve.range_g_limit(d, r)
        for g_lo, g_hi in _merged(surviving):
            survivors += g_hi - g_lo + 1
            for g in range(g_lo, min(g_hi, limit) + 1):
                found.append(((g, len(SieveCase) + 1, 2, 0), {"part": "c", "d": d, "g": g}))
        found.sort(key=lambda entry: entry[0])
        report.violations.extend(violation for _, violation in found)
    report.audit["survivors"] = survivors
    return report


def check_r5window_args(d_lo: int, d_hi: int) -> None:
    """Raise ValueError unless verify_r5_window accepts these bounds."""
    if not 1 <= d_lo <= d_hi:
        raise ValueError(f"need 1 <= d_lo <= d_hi, got ({d_lo}, {d_hi})")
    # g runs from 2, and range_g_limit(1, 5) is 0, so a window of d = 1
    # alone would pass with nothing checked; (2, 2) is its first point.
    if d_hi < 2:
        raise ValueError(f"the window d <= {d_hi} holds no point")


def r5_window_limit(d: int) -> int:
    """The largest g meeting the clause 3d > g + 22 that the paper's
    r = 5 range adds on the degree window 101..113.  There the r = 5 row
    of the range table already implies it, so sieve.range_genera leaves
    it out; verify_r5_window checks each survivor against it."""
    return 3 * d - 23


def verify_r5_window(d_lo: int = R5_WINDOW[0], d_hi: int = R5_WINDOW[1]) -> VerificationReport:
    """Enumerate sieve survivors at r = 5 inside the degree window with
    g <= sieve.range_g_limit (the range without the window's extra
    clause), and confirm each lies above r5_window_limit (without which
    it would slip in-range).

    Calling with a window other than the canonical 101..113 runs in
    diagnostic mode: survivors are reported for inspection only and are
    not violations.

    The canonical window is small (3,056 points), so this suite runs
    scan at every point rather than reading genus intervals, which keeps
    the per-point sieve itself on the `verify all` path.
    """
    check_r5window_args(d_lo, d_hi)
    diagnostic = (d_lo, d_hi) != R5_WINDOW
    report = VerificationReport(
        "r5window",
        {"d_lo": d_lo, "d_hi": d_hi, "g": "2..5d/2", "diagnostic": diagnostic},
    )
    found = []
    for d in range(d_lo, d_hi + 1):
        window_limit = r5_window_limit(d)
        for g in range(2, min(5 * d // 2, sieve.range_g_limit(d, 5)) + 1):
            report.checked += 1
            if sieve.scan(d, g, 5).is_survivor:
                excluded_by_window = g > window_limit
                found.append({"d": d, "g": g, "excluded_by_window": excluded_by_window})
                if not diagnostic and not excluded_by_window:
                    report.violations.append({"d": d, "g": g})
    report.audit["survivors"] = found
    return report


# The classification table asserted by the low-ambient-dimension theorem
# and its supporting propositions: the nine explicitly listed schemes.
_R3_EXPECTED = [
    (6, 5, sieve.R3Classification(sieve.EMPTY)),
    (7, 6, sieve.R3Classification(sieve.EXACT_IMAGE, 13)),
    (8, 7, sieve.R3Classification(sieve.EXACT_IMAGE, 17)),
    (8, 8, sieve.R3Classification(sieve.EXACT_IMAGE, 17)),
    (8, 9, sieve.R3Classification(sieve.EXACT_IMAGE, 18)),
    (9, 9, sieve.R3Classification(sieve.EXACT_IMAGE, 21)),
    (9, 10, sieve.R3Classification(sieve.EXACT_IMAGE, 21)),
    (9, 11, sieve.R3Classification(sieve.EMPTY)),
    (9, 12, sieve.R3Classification(sieve.EXACT_IMAGE, 23)),
]

_R3_ALLOWED = {(8, 8), (8, 9), (9, 9), (9, 10), (9, 11), (9, 12)}


def check_r3_args(d_max: int) -> None:
    """Raise ValueError unless verify_thm_r3 accepts this bound."""
    if d_max < 10:
        raise ValueError(f"need d_max >= 10, got {d_max}")


def verify_thm_r3(d_max: int) -> VerificationReport:
    """Reproduce the 3-space case analysis over d <= d_max:

    (a) the reduced-range sieve has no survivor with d >= 10;
    (b) its survivors with d <= 9 lie in the six known pairs;
    (c) the classification table matches on the nine listed schemes;
    (d) the dimension count at (8, 7) is tight: a moduli image below 17
        would violate 4d <= 15 + dim W + image dimension.
    """
    check_r3_args(d_max)
    report = VerificationReport("r3", {"d_max": d_max, "g": "max(d,5)..pi(d,3)"})
    survivors = []
    for d in range(3, d_max + 1):
        genera = sieve.r3_genera(d)
        report.checked += len(genera)
        # The grid has d <= g, where the chain reads only the case-1/2
        # alpha-cap numerators, which read no g: it gives every g of a
        # degree the same verdict.
        if not genera or not sieve.r3_sieve(d, genera[0]).is_survivor:
            continue
        for g in genera:
            survivors.append((d, g))
            if d >= 10:
                report.violations.append({"part": "a", "d": d, "g": g})
            elif (d, g) not in _R3_ALLOWED:
                report.violations.append({"part": "b", "d": d, "g": g})
    report.audit["survivors"] = survivors
    for d, g, want in _R3_EXPECTED:
        report.checked += 1
        got = sieve.r3_classify(d, g)
        if got != want:
            report.violations.append(
                {"part": "c", "d": d, "g": g, "got": got.render(), "want": want.render()}
            )
    report.checked += 1
    lam = bounds.euler_normal(8, 7, 3)
    classified = sieve.r3_classify(8, 7).image_dim
    if not (
        lam == 32
        and classified == 17
        and lam <= 15 + 0 + classified
        and lam > 15 + 0 + (classified - 1)
    ):
        report.violations.append({"part": "d", "lambda": lam, "image_dim": classified})
    return report


_CANONICAL_SPLITS = [
    (DivisorClass(4, 9, 2), DivisorClass(4, 8, 2), DivisorClass(0, 1, 2), 4),
    (DivisorClass(4, 4, 1), DivisorClass(1, 1, 1), DivisorClass(3, 3, 1), 3),
    (DivisorClass(2, 5, 1), DivisorClass(1, 0, 1), DivisorClass(1, 5, 1), 4),
]


def check_splits_args(a_max: int, b_max: int, e_max: int) -> None:
    """Raise ValueError unless verify_splits accepts these bounds."""
    if a_max < 0 or b_max < 0 or e_max < 0:
        raise ValueError("grid bounds must be nonnegative")
    # X_0 bounds every genus of the grid by that of (a_max, b_max) there,
    # (a_max - 1)(b_max - 1); without a class the suite would pass vacuously.
    if a_max < 2 or (a_max - 1) * (b_max - 1) < 2:
        raise ValueError(f"the grid a <= {a_max}, b <= {b_max} holds no class of genus >= 2")


def verify_splits(
    a_max: int = SPLITS_GRID[0], b_max: int = SPLITS_GRID[1], e_max: int = SPLITS_GRID[2]
) -> VerificationReport:
    """Run the stable-split construction over the divisor grid and
    re-check every certificate: the parts sum to the input, both parts
    are classes of smooth irreducible curves, the intersection number is
    recomputed, is at least 3, and genus additivity holds.  The three
    canonical splits are pinned exactly.
    """
    check_splits_args(a_max, b_max, e_max)
    report = VerificationReport(
        "splits", {"a_max": a_max, "b_max": b_max, "e_max": e_max}
    )
    # For e >= 1 a smooth class with a >= 2 needs b >= a*e >= 2e, so no
    # class lies past e = b_max // 2.
    for e in range(0, min(e_max, b_max // 2) + 1):
        for a in range(2, a_max + 1):
            for b in range(0, b_max + 1):
                total = DivisorClass(a, b, e)
                if not surfaces.smooth_irreducible_exists(total):
                    continue
                if surfaces.arith_genus(total) < 2:
                    continue
                report.checked += 1
                entry = {"a": a, "b": b, "e": e}
                try:
                    cert = surfaces.find_stable_split(total)
                except ValueError as exc:
                    report.violations.append({**entry, "error": str(exc)})
                    continue
                d1, d2 = cert.d1, cert.d2
                genus_sum = (
                    surfaces.arith_genus(d1) if d1.a >= 1 else 0
                ) + (surfaces.arith_genus(d2) if d2.a >= 1 else 0)
                recomputed = surfaces.intersect(d1, d2)
                if (
                    d1 + d2 != total
                    or not surfaces.smooth_irreducible_exists(d1)
                    or not surfaces.smooth_irreducible_exists(d2)
                    or cert.intersection != recomputed
                    or recomputed < 3
                    or surfaces.arith_genus(total) != genus_sum + recomputed - 1
                ):
                    report.violations.append({**entry, "certificate": cert.to_dict()})
    for total, want1, want2, want_int in _CANONICAL_SPLITS:
        report.checked += 1
        cert = surfaces.find_stable_split(total)
        if (cert.d1, cert.d2, cert.intersection) != (want1, want2, want_int):
            report.violations.append(
                {
                    "check": "canonical split",
                    "input": total.as_tuple(),
                    "got": cert.to_dict(),
                    "want": [want1.as_tuple(), want2.as_tuple(), want_int],
                }
            )
    return report
