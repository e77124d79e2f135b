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
from .bounds import CurveClass
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
    check("rho(9,8,3)", bounds.brill_noether(CurveClass(9, 8, 3)), 0)
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
            check(f"lambda({d},{g},3)", bounds.euler_normal(CurveClass(d, g, 3)), 4 * d)
    return report


def check_case34_args(r_lo: int, r_hi: int, d_max: int) -> None:
    """Raise ValueError unless verify_case34_never accepts these bounds."""
    if r_lo < 4 or r_lo > r_hi:
        raise ValueError(f"need 4 <= r_lo <= r_hi, got ({r_lo}, {r_hi})")
    if d_max < 1:
        raise ValueError(f"need d_max >= 1, got {d_max}")


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
# source case's side variable (i or j, by which.on_i; see _side).
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
    >= 0: i = d + 1 - 3*alpha for INEQ7/INEQ8, else j = d - 3*alpha."""
    return d + 1 - 3 * alpha if which.on_i else d - 3 * alpha


def _claim_text(claim: tuple) -> str:
    """The claim as reports print it, e.g. "m1 >= 8 and 2j >= 11a-2"."""
    which, k, c, op, a, b = claim
    v = "i" if which.on_i else "j"
    lhs = v if c == 1 else f"{c}{v}"
    rhs = str(b) if a == 0 else f"{'' if a == 1 else a}a{b:+d}"
    return f"{'m1' if which.first else 'm2'} >= {k} and {lhs} {op} {rhs}"


def _claim_holds(claim: tuple, alpha: int, m: int, d: int) -> bool:
    """Whether the claim holds at (alpha, d), m being the quotient of d
    in the convention of the claim's inequality."""
    which, k, c, op, a, b = claim
    over = c * _side(which, alpha, d) - a * alpha - b
    return m >= k and (over > 0 if op == ">" else over >= 0)


def _mus(which: Ineq, alpha: int) -> list:
    """mu for each eps in the division convention of the inequality:
    eps in 0..alpha-1 for INEQ7/INEQ9, 0..alpha for INEQ8/INEQ10."""
    if which.first:
        return [0] * (alpha - 1) + [1]
    return [0] * (alpha - 2) + [1, 1, 2]


def _least_eps(which: Ineq, alpha: int, m: int) -> int:
    """The least eps whose degree d = m*q + eps + 1 (q the divisor of the
    convention) meets d >= alpha + 2 and _side >= 0; the side variable is
    d plus a constant, so its least d is minus its value at d = 0."""
    q = alpha if which.first else alpha + 1
    return max(0, max(alpha + 2, -_side(which, alpha, 0)) - m * q - 1)


def _linear_form(which: Ineq, r: int, alpha: int, m: int) -> tuple:
    """(base, per_eps, per_mu) such that, on every consistent (eps, mu) at
    (which, r, alpha, m), derived_slack - floor = base + per_eps*eps +
    per_mu*mu, where floor is 1 for a strict inequality and 0 otherwise;
    so the inequality holds exactly when the form is >= 0.

    Each expansion of derived_slack is linear in eps and mu once m is
    fixed, so three of its values give the form: (0, 0), (1, 0) and the
    first eps whose mu is 1.  derived_slack and derived_satisfied stay
    the one encoding of the inequalities and their strictness.
    """
    at_zero = sieve.derived_slack(which, r, alpha, m, 0, 0)
    per_eps = sieve.derived_slack(which, r, alpha, m, 1, 0) - at_zero
    eps = _mus(which, alpha).index(1)
    per_mu = sieve.derived_slack(which, r, alpha, m, eps, 1) - at_zero - per_eps * eps
    floor = 0 if sieve.derived_satisfied(which, 0) else 1
    return at_zero - floor, per_eps, per_mu


def check_derived_args(r: int, alpha_max: int, m_max: int = DERIVED_M_MAX) -> None:
    """Raise ValueError unless verify_derived_claims accepts these bounds."""
    if not 4 <= r <= 10:
        raise ValueError(f"need 4 <= r <= 10, got {r}")
    if alpha_max < max(8, r):
        raise ValueError(f"need alpha_max >= max(8, r) = {max(8, r)}, got {alpha_max}")
    # m = 1 yields no tuple, so m_max = 1 would pass vacuously.
    if m_max < 2:
        raise ValueError(f"need m_max >= 2, got {m_max}")


def verify_derived_claims(r: int, alpha_max: int, m_max: int = DERIVED_M_MAX) -> VerificationReport:
    """Check the per-r consequences of the four derived inequalities.

    Enumerates consistent (alpha, m, eps, mu) with alpha in
    [max(8, r), alpha_max], the i/j nonnegativity side condition of the
    inequality's source case, and the companion inequality of the same
    case evaluated at the induced (d, alpha) — the two inequalities of a
    case arise together, and several claimed consequences are sharp only
    in that joint context.  A tuple satisfying all of that but violating
    the claimed consequence is a violation.  Both inequalities are
    evaluated through their linear form in (eps, mu), read once per
    (inequality, alpha, m).

    For r = 9 the enumeration additionally rebuilds the set of (d, g)
    with a second-profile denominator of 2 passing the tenth inequality
    and compares it against the two known points; for r = 4 the claims
    are re-checked through a direct (d, alpha) enumeration and the two
    encodings are cross-asserted.
    """
    check_derived_args(r, alpha_max, m_max)
    alpha_lo = max(8, r)
    report = VerificationReport(
        "derived",
        {"r": r, "alpha": f"{alpha_lo}..{alpha_max}", "m_max": m_max},
    )
    tuple_violations = []
    for claim in _DERIVED_CLAIMS[r]:
        which = claim[0]
        partner = which.partner
        text = _claim_text(claim)
        for alpha in range(alpha_lo, alpha_max + 1):
            mus = _mus(which, alpha)
            q = len(mus)
            partner_forms = {}
            for m in range(1, m_max + 1):
                e0 = _least_eps(which, alpha, m)
                if e0 >= q:
                    continue
                report.checked += q - e0
                base, per_eps, per_mu = _linear_form(which, r, alpha, m)
                for eps in range(e0, q):
                    mu = mus[eps]
                    if base + per_eps * eps + per_mu * mu < 0:
                        continue
                    d = m * q + eps + 1
                    m_p, eps_p, mu_p = partner.division(bounds.castelnuovo_profile(d, alpha))
                    form = partner_forms.get(m_p)
                    if form is None:
                        form = partner_forms[m_p] = _linear_form(partner, r, alpha, m_p)
                    if form[0] + form[1] * eps_p + form[2] * mu_p < 0:
                        continue
                    if not _claim_holds(claim, alpha, m, d):
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
        for alpha in range(alpha_lo, alpha_max + 1):
            mus = _mus(Ineq.INEQ10, alpha)
            base, per_eps, per_mu = _linear_form(Ineq.INEQ10, r, alpha, 2)
            for eps in range(_least_eps(Ineq.INEQ10, alpha, 2), len(mus)):
                if base + per_eps * eps + per_mu * mus[eps] < 0:
                    continue
                d = 2 * (alpha + 1) + eps + 1
                prof = bounds.castelnuovo_profile(d, alpha)
                # A floor, where the case-2 slack >= 0 needs a ceiling.
                # The floor alone puts (30, 33) in the audit: at alpha = 9
                # it gives 203 // 6 = 33, not 34, and the case-2 slack at
                # (30, 33) is -5, so scan excludes that point.  Kept, as
                # the recorded verify-all output carries it; whether the
                # paper means the floor is open (ROADMAP item 5).
                at_zero = sieve.case_slack(SieveCase.CASE2, d, 0, r, alpha)
                g_lo = -at_zero // (sieve.case_slack(SieveCase.CASE2, d, 1, r, alpha) - at_zero)
                for g in range(max(g_lo, d + 1), prof.pi2 + 1):
                    hits.add((d, g))
        expected = {(30, 33), (30, 34)}
        report.audit["m2_eq_2_pairs"] = sorted(hits)
        for pair in sorted(hits - expected):
            report.violations.append({"check": "m2=2 pairs", "unexpected": list(pair)})
        for pair in sorted(expected - hits):
            report.violations.append({"check": "m2=2 pairs", "missing": list(pair)})

    if r == 4:
        cross = []
        claims = [(claim, claim[0], claim[0].partner) for claim in _DERIVED_CLAIMS[r]]
        for alpha in range(alpha_lo, alpha_max + 1):
            for d in range(alpha + 2, m_max * alpha + alpha + 1):
                prof = bounds.castelnuovo_profile(d, alpha)
                # Each inequality is evaluated at most once per (alpha, d),
                # and only when a claim reaches it.
                holds = {}
                for claim, which, partner in claims:
                    if _side(which, alpha, d) < 0:
                        continue
                    for ineq in (which, partner):
                        if ineq not in holds:
                            value = sieve.derived_slack(ineq, r, alpha, *ineq.division(prof))
                            holds[ineq] = sieve.derived_satisfied(ineq, value)
                        if not holds[ineq]:
                            break
                    else:
                        if not _claim_holds(claim, alpha, which.division(prof)[0], d):
                            cross.append({"ineq": which.value, "claim": _claim_text(claim), "d": d, "alpha": alpha})
        report.audit["cross_encoding_violations"] = len(cross)
        primary_keys = {(v["ineq"], v["d"], v["alpha"]) for v in tuple_violations}
        cross_keys = {(v["ineq"], v["d"], v["alpha"]) for v in cross}
        if primary_keys != cross_keys:
            report.violations.append(
                {
                    "check": "encoding cross-assert",
                    "tuple_only": sorted(primary_keys - cross_keys),
                    "pair_only": sorted(cross_keys - primary_keys),
                }
            )
    return report


def check_r11_args(r: int, d_max: int) -> None:
    """Raise ValueError unless verify_r_ge_11 accepts these bounds."""
    if r < 11:
        raise ValueError(f"need r >= 11, got {r}")
    if d_max < 1:
        raise ValueError(f"need d_max >= 1, got {d_max}")


def _covered(intervals) -> list:
    """The distinct g of the (g_lo, g_hi) intervals, ascending."""
    out, top = [], 0
    for g_lo, g_hi in sorted(intervals):
        out.extend(range(max(g_lo, top + 1), g_hi + 1))
        top = max(top, g_hi)
    return out


def verify_r_ge_11(r: int, d_max: int) -> VerificationReport:
    """Check the three steps of the high-r exclusion over d <= d_max,
    g in [2, 2d]:

    (a) any slack-feasible alpha at or above the boundary (ceil(d/3) for
        the d < g cases, ceil((2d-g)/3) for the d >= g cases) has second
        profile with denominator count 2, correction 0, and second genus
        cap at most d resp. g-1 — hence is cap-excluded;
    (b) every surviving witness at interior alpha satisfies the per-case
        degree bound in terms of g;
    (c) no survivor lies in the theorem's hypothesis range.
    """
    check_r11_args(r, d_max)
    report = VerificationReport("r11", {"r": r, "d_max": d_max, "g": "2..2d"})
    case_bounds = {
        SieveCase.CASE1: lambda d, g: 2 * (r + 1) * d <= 3 * (r - 3) * g - r + 8,
        SieveCase.CASE2: lambda d, g: 2 * (r + 1) * d <= 3 * (r - 3) * g - r + 14,
        SieveCase.CASE3: lambda d, g: (r + 1) * d <= 2 * (r - 5) * g - r + 8,
        SieveCase.CASE4: lambda d, g: (r + 1) * d <= 2 * (r - 5) * g - r + 14,
    }
    survivors = 0
    for d in range(1, d_max + 1):
        # g in [2, 2d] with d <= 2g - 2
        report.checked += len(range(sieve.least_special_genus(d), 2 * d + 1))
        # Violations keyed by (g, case index, part, alpha), sorted at
        # the end of the degree; part (c) sorts after every case.
        found = []
        fired = {case: [] for case in SieveCase}
        cap_alpha = cap = None
        for alpha, case, g_lo, g_hi in sieve.window_intervals(d, r, 2 * d):
            if alpha != cap_alpha:
                cap_alpha, cap = alpha, sieve.genus_cap(d, alpha)
            if g_lo <= cap:
                fired[case].append((g_lo, min(g_hi, cap)))
            # (a): alpha is at or above the boundary on g >= a_lo.
            if case.below:
                a_lo = g_lo if 3 * alpha >= d else g_hi + 1
            else:
                a_lo = max(g_lo, 2 * d - 3 * alpha)
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
        # (b): the per-case degree bound is alpha-free, so it is tested
        # once per g at which the case has a witness.  Each case's
        # intervals are merged, not expanded per alpha as in
        # sieve.witnesses_by_genus: r = 11 and 12 at d <= 400 have
        # about 14 M (g, alpha, case) witnesses.
        surviving = set()
        for case, intervals in fired.items():
            for g in _covered(intervals):
                surviving.add(g)
                if not case_bounds[case](d, g):
                    found.append(((g, case.index, 1, 0), {"part": "b", "d": d, "g": g, "case": case.value}))
        survivors += len(surviving)
        # (c)
        in_range = sieve.range_genera(d, r)
        for g in surviving:
            if g in in_range:
                found.append(((g, len(SieveCase) + 1, 2, 0), {"part": "c", "d": d, "g": g}))
        found.sort(key=lambda entry: entry[0])
        report.violations.extend(violation for _, violation in found)
    report.audit["survivors"] = survivors
    return report


def check_r5window_args(d_lo: int, d_hi: int) -> None:
    """Raise ValueError unless verify_r5_window accepts these bounds."""
    if not 1 <= d_lo <= d_hi:
        raise ValueError(f"need 1 <= d_lo <= d_hi, got ({d_lo}, {d_hi})")


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
        # The grid has d <= g, where agh_cap is d - 3*alpha + 1 and reads
        # no g: the chain gives every g of a degree the same verdict.
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
    lam = bounds.euler_normal(CurveClass(8, 7, 3))
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
    for e in range(0, e_max + 1):
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
