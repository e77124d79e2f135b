"""The rigidity-exclusion sieve.

For r >= 4 a surviving configuration is a series dimension alpha >= r
together with one of four cases (split by the sign of d - g and by
whether the special-series locus has dimension 0 or >= 1) whose
dimension-count inequality is satisfiable and whose genus caps hold.
Everything is exact integer arithmetic; rational thresholds are compared
by cross-multiplication.

The r = 3 path is a separate two-branch chain with its own constant
(derived from requiring the moduli image to have dimension <= 22) plus a
classification table for the handful of exceptional (d, g).
"""

from __future__ import annotations

import collections
import enum
from dataclasses import dataclass
from typing import Iterator, Optional

from . import bounds
from .bounds import CastelnuovoProfile


class SieveCase(enum.Enum):
    """The four exclusion cases: 1/2 (below) for d < g, 3/4 for d >= g;
    odd cases assume a zero-dimensional series locus, even a positive one."""

    CASE1 = "case1"
    CASE2 = "case2"
    CASE3 = "case3"
    CASE4 = "case4"

    def __init__(self, value: str) -> None:
        self.index = int(value[-1])
        self.below = self.index <= 2


class Ineq(enum.Enum):
    """The four derived inequalities obtained by substituting the genus
    caps into the case systems (7/9 via pi1, 8/10 via pi2).  first: 7/9
    read the first profile (m1, eps1, mu1; divisor alpha) and are strict,
    8/10 the second (divisor alpha + 1) and are not.  on_i: 7/8 read the
    side variable i, 9/10 j.  partner: 7 with 8, 9 with 10 (same case)."""

    INEQ7 = "ineq7"
    INEQ8 = "ineq8"
    INEQ9 = "ineq9"
    INEQ10 = "ineq10"

    def __init__(self, value: str) -> None:
        number = int(value[4:])
        self.first = number % 2 == 1
        self.on_i = number <= 8
        self._partner_value = f"ineq{number + 1 if self.first else number - 1}"

    @property
    def partner(self) -> "Ineq":
        return Ineq(self._partner_value)

    def division(self, profile: CastelnuovoProfile) -> tuple[int, int, int]:
        """(m, eps, mu) of the profile in this inequality's convention."""
        if self.first:
            return profile.m1, profile.eps1, profile.mu1
        return profile.m2, profile.eps2, profile.mu2


NON_SPECIAL = "non-special"
NO_ALPHA = "no-alpha"
ALL_CASES_INFEASIBLE = "all-cases-infeasible"
GENUS_ZERO = "genus-zero"


@dataclass(frozen=True)
class SieveWitness:
    """A surviving (alpha, case) configuration with its slack and profile."""

    alpha: int
    case: SieveCase
    i: int
    j: int
    profile: CastelnuovoProfile
    slack: int

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "case": self.case.value,
            "i": self.i,
            "j": self.j,
            "slack": self.slack,
            "profile": self.profile._asdict(),
        }


@dataclass(frozen=True)
class R3Witness:
    """A surviving alpha in the r = 3 chain; branch records which of the
    two series-locus branches fired."""

    alpha: int
    branch: str  # "dim-w-0" or "dim-w-pos"
    slack: int

    def to_dict(self) -> dict:
        return {"alpha": self.alpha, "branch": self.branch, "slack": self.slack}


SURVIVORS = "survivors"
EXCLUDED = "excluded"
OUT_OF_SCOPE = "out-of-scope"


@dataclass(frozen=True)
class Verdict:
    """Outcome of a scan: survivors with witnesses, an exclusion with
    machine-checkable reasons, or out-of-scope.  The witnesses are a
    tuple, or a WitnessStream in a verdict from scan_streamed."""

    outcome: str
    witnesses: tuple = ()
    reasons: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.outcome == SURVIVORS and not self.witnesses:
            raise ValueError("survivor verdict requires at least one witness")
        if self.outcome == EXCLUDED and not self.reasons:
            raise ValueError("exclusion requires at least one reason")

    @property
    def is_survivor(self) -> bool:
        return self.outcome == SURVIVORS


_EXCLUDED_NON_SPECIAL = Verdict(EXCLUDED, reasons=(NON_SPECIAL,))
_EXCLUDED_NO_ALPHA = Verdict(EXCLUDED, reasons=(NO_ALPHA,))
_EXCLUDED_INFEASIBLE = Verdict(EXCLUDED, reasons=(ALL_CASES_INFEASIBLE,))
_OUT_OF_SCOPE_G0 = Verdict(OUT_OF_SCOPE, reasons=(GENUS_ZERO,))


def case_slack(case: SieveCase, d: int, g: int, r: int, alpha: int) -> int:
    """Right side minus left side of the case's inequality; feasible iff >= 0.

    Case1/Case3: (r-3)g - (r+1)(d-alpha) + 3
    Case2:       (r-3)g - rd + (r-2)alpha + 4
    Case4:       (r-4)g - (r-1)d + (r-2)alpha + 4
    """
    if case is SieveCase.CASE2:
        return (r - 3) * g - r * d + (r - 2) * alpha + 4
    if case is SieveCase.CASE4:
        return (r - 4) * g - (r - 1) * d + (r - 2) * alpha + 4
    return (r - 3) * g - (r + 1) * (d - alpha) + 3


def _cap_numerator(case: SieveCase, d: int, g: int) -> int:
    """3 * alpha is at most this: d + 1, d, 2d - g + 1, 2d - g for
    cases 1..4 respectively."""
    return (d if case.below else 2 * d - g) + case.index % 2


def alpha_cap(case: SieveCase, d: int, g: int) -> int:
    """Largest alpha allowed by the case: floor of (d+1)/3, d/3,
    (2d-g+1)/3, (2d-g)/3 for cases 1..4 respectively."""
    return _cap_numerator(case, d, g) // 3


def case_alpha_range(case: SieveCase, d: int, g: int, r: int) -> tuple[int, int]:
    """The alpha window (lo, hi) of a case, empty when lo > hi.

    lo is the least alpha >= r with case_slack >= 0: each slack is linear
    and increasing in alpha, so lo is read off its values at alpha = 0
    and 1.  hi is the case's alpha_cap, which is never above the
    embedding cap of (d, g).
    """
    at0 = case_slack(case, d, g, r, 0)
    return max(r, -(at0 // (case_slack(case, d, g, r, 1) - at0))), alpha_cap(case, d, g)


def _case_windows(d: int, r: int, g_min: int, g_max: int) -> Iterator[tuple]:
    """(case, g_lo, g_hi, alpha_lo, alpha_hi) in case order, for each case
    with an alpha on g_min..g_max: the case applies on g_lo..g_hi (d < g
    in cases 1/2, d >= g in 3/4), and alpha_lo..alpha_hi span its windows
    (case_alpha_range) there: the floor read at g_hi, as the slack rises
    with g, and the ceiling at g_lo, as the alpha cap does not."""
    for case in SieveCase:
        g_lo, g_hi = (max(g_min, d + 1), g_max) if case.below else (g_min, min(g_max, d))
        if g_lo > g_hi:
            continue
        alpha_lo = case_alpha_range(case, d, g_hi, r)[0]
        alpha_hi = alpha_cap(case, d, g_lo)
        if alpha_lo <= alpha_hi:
            yield case, g_lo, g_hi, alpha_lo, alpha_hi


# The paper's third genus-cap step also asks g < pi1.  That never binds:
# pi2 <= pi1 - 1 whenever d >= 2*alpha + 3.  With n = d - 1 and
# F_q(n) = sum of floor(j/q) over j <= n, pi1 = F_alpha(n) + mu1 and
# pi2 = F_(alpha+1)(n) + m2 + mu2.  F_alpha(n) - F_(alpha+1)(n) counts
# the pairs k >= 1, j <= n with k*alpha <= j <= k*(alpha+1) - 1, and
# each k <= m2 gives k of them, so it is >= m2(m2+1)/2, and
# pi1 - pi2 >= m2(m2-1)/2 - 2 >= 1 once m2 >= 3.  d >= 2*alpha + 3 forces
# m2 >= 2, and at m2 = 2 pi1 - pi2 is 1 + mu1, at least 1, and at least
# 2 when mu2 is 0, 1 and 2 respectively.
def _profile_cap(d: int, alpha: int, cap: int) -> int:
    """cap lowered by the profile's genus caps at (d, alpha): to pi1 once
    d >= 2*alpha + 1, and for alpha >= 8 with d >= 2*alpha + 3 also to
    pi2.  This is the one encoding of the genus-cap rule."""
    prof = bounds.castelnuovo_profile(d, alpha)
    if d >= 2 * alpha + 1 and prof.pi1 < cap:
        cap = prof.pi1
    if alpha >= 8 and d >= 2 * alpha + 3 and prof.pi2 < cap:
        cap = prof.pi2
    return cap


def genus_cap(d: int, alpha: int) -> int:
    """The largest genus that survives the three-step genus caps at
    (d, alpha): pi(d, alpha) lowered by the profile's caps."""
    return _profile_cap(d, alpha, bounds.max_genus_pi(d, alpha))


def genus_caps_ok(d: int, g: int, alpha: int) -> bool:
    """Whether genus g survives the three-step genus caps at (d, alpha):
    g <= pi(d, alpha), and g at most the profile's caps (_profile_cap),
    read only when g <= pi."""
    pi = bounds.max_genus_pi(d, alpha)
    return g <= pi and g <= _profile_cap(d, alpha, pi)


def iter_witnesses(d: int, g: int, r: int) -> Iterator[SieveWitness]:
    """Every (alpha, case) configuration of (d, g, r) passing slack,
    alpha caps and genus caps, in (alpha, case) order, built only as the
    iterator reaches it.

    One ascending walk over the union of the applicable case windows
    (_case_windows at g): the genus caps and the profile do not depend
    on the case, so each is evaluated once per alpha.  The union has no
    gap, since the first case's window ends at or one above the
    second's.  The gates of scan are not applied here.
    """
    windows = [(case, lo, hi) for case, _, _, lo, hi in _case_windows(d, r, g, g)]
    if not windows:
        return
    for alpha in range(min(w[1] for w in windows), max(w[2] for w in windows) + 1):
        if not genus_caps_ok(d, g, alpha):
            continue
        profile = bounds.castelnuovo_profile(d, alpha)
        i = d + 1 - 3 * alpha
        for case, lo, hi in windows:
            if lo <= alpha <= hi:
                yield SieveWitness(alpha, case, i, i - 1, profile, case_slack(case, d, g, r, alpha))


def _check_domain(d: int, r: int) -> None:
    if r < 4:
        raise ValueError(f"scan requires r >= 4 (got {r}); use r3_sieve for r = 3")
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")


def least_special_genus(d: int) -> int:
    """The least g with g >= 2 and d <= 2g - 2; every (d, g) with
    1 <= g below it is non-special."""
    return (d + 3) // 2


def _gate(d: int, g: int, r: int) -> Optional[Verdict]:
    """The verdict of scan when it is settled before any alpha is walked
    (out of scope, non-special or no alpha), else None."""
    _check_domain(d, r)
    if g == 0:
        return _OUT_OF_SCOPE_G0
    if g < least_special_genus(d):
        return _EXCLUDED_NON_SPECIAL
    if bounds.embed_dim_cap(d, g) < r:
        return _EXCLUDED_NO_ALPHA
    return None


def scan(d: int, g: int, r: int) -> Verdict:
    """Full sieve verdict for (d, g, r) with r >= 4.

    Out-of-scope for genus 0; non-special exclusion for g = 1 or
    d > 2g - 2; otherwise enumerates alpha from r up to the embedding
    cap in the two applicable cases and returns all witnesses, or an
    exclusion naming why none exist.
    """
    verdict = _gate(d, g, r)
    if verdict is None:
        found = tuple(iter_witnesses(d, g, r))
        verdict = Verdict(SURVIVORS, found) if found else _EXCLUDED_INFEASIBLE
    return verdict


@dataclass(frozen=True)
class WitnessStream:
    """The witnesses of scan(d, g, r) for output that writes them one at
    a time: each iteration runs iter_witnesses afresh, and none is kept."""

    d: int
    g: int
    r: int

    def __iter__(self) -> Iterator[SieveWitness]:
        return iter_witnesses(self.d, self.g, self.r)


def scan_streamed(d: int, g: int, r: int) -> Verdict:
    """scan(d, g, r) with a survivor verdict's witnesses left as a
    WitnessStream, so that memory does not grow with their number; only
    the first witness is enumerated here, to settle the outcome."""
    verdict = _gate(d, g, r)
    if verdict is None:
        witnesses = WitnessStream(d, g, r)
        if next(iter(witnesses), None) is None:
            verdict = _EXCLUDED_INFEASIBLE
        else:
            verdict = Verdict(SURVIVORS, witnesses)
    return verdict


def window_intervals(d: int, r: int, g_top: int) -> Iterator[tuple]:
    """(alpha, case, g_lo, g_hi) in (alpha, case) order, for each
    (alpha, case) with a g <= g_top at which scan's gates pass, the case
    applies and alpha lies in the case's window (case_alpha_range):
    those g are exactly g_lo..g_hi.  The genus caps are not applied.

    Every such condition is monotone in g, so the g form one interval:
    the gates and the case split bound g below (cases 3/4 also above,
    by d), the slack is linear in g with coefficient r - 3 or r - 4,
    which is >= 0, and the alpha caps of cases 3/4 bound g above.  The
    alphas of a case are those of its _case_windows.
    """
    _check_domain(d, r)
    spans = []
    for case, g_min, g_max, alpha_lo, alpha_hi in _case_windows(d, r, least_special_genus(d), g_top):
        # case_slack = at_zero + per_g * g + per_alpha * alpha.
        at_zero = case_slack(case, d, 0, r, 0)
        per_g = case_slack(case, d, 1, r, 0) - at_zero
        per_alpha = case_slack(case, d, 0, r, 1) - at_zero
        # cap_top: alpha <= alpha_cap(case, d, g) means g <= cap_top - 3*alpha
        # in cases 3/4; the alpha caps of cases 1/2 do not depend on g.
        cap_top = None if case.below else _cap_numerator(case, d, 0)
        spans.append((case, g_min, g_max, alpha_lo, alpha_hi, at_zero, per_g, per_alpha, cap_top))
    if not spans:
        return
    first = min(span[3] for span in spans)
    last = max(span[4] for span in spans)
    for alpha in range(first, last + 1):
        for case, g_min, g_max, alpha_lo, alpha_hi, at_zero, per_g, per_alpha, cap_top in spans:
            if not alpha_lo <= alpha <= alpha_hi:
                continue
            slack_at_zero = at_zero + per_alpha * alpha
            if per_g:
                g_lo = max(g_min, -(slack_at_zero // per_g))
            elif slack_at_zero >= 0:
                g_lo = g_min
            else:
                continue
            g_hi = g_max if cap_top is None else min(g_max, cap_top - 3 * alpha)
            if g_lo <= g_hi:
                yield alpha, case, g_lo, g_hi


def genus_intervals(d: int, r: int, g_top: int) -> Iterator[tuple]:
    """(alpha, case, g_lo, g_hi) in (alpha, case) order, for each
    (alpha, case) that is a witness of scan(d, g, r) for some g <= g_top:
    the window_intervals cut by genus_cap(d, alpha), which depends on
    (d, alpha) only.  As in genus_caps_ok, pi(d, alpha) is read once per
    alpha with a window interval, and the profile only once some
    interval of that alpha reaches down to pi."""
    cap_alpha = pi = cap = None
    for alpha, case, g_lo, g_hi in window_intervals(d, r, g_top):
        if alpha != cap_alpha:
            cap_alpha, pi, cap = alpha, bounds.max_genus_pi(d, alpha), None
        if g_lo > pi:
            continue
        if cap is None:
            cap = _profile_cap(d, alpha, pi)
        if g_lo <= cap:
            yield alpha, case, g_lo, min(g_hi, cap)


def witnesses_by_genus(d: int, r: int, g_top: int) -> dict:
    """g -> the (alpha, case) of every witness of scan(d, g, r), in
    (alpha, case) order, for each g <= g_top that has one; the keys
    ascend.  It expands the genus_intervals, so it is meant for universes
    where few g survive."""
    by_genus = collections.defaultdict(list)
    for alpha, case, g_lo, g_hi in genus_intervals(d, r, g_top):
        witness = (alpha, case)
        for g in range(g_lo, g_hi + 1):
            by_genus[g].append(witness)
    return dict(sorted(by_genus.items()))


def derived_slack(which: Ineq, r: int, alpha: int, m: int, eps: int, mu: int) -> int:
    """Twice the derived-inequality expression (doubling clears the
    (r-3)/2 half-integer coefficient).

    INEQ7/INEQ9 take (m, eps, mu) in the alpha-division convention
    (0 <= eps <= alpha-1, mu = [eps == alpha-1]) and are satisfied when
    the value is > 0; INEQ8/INEQ10 take the (alpha+1)-division convention
    (0 <= eps <= alpha, mu in {0,1,2} by the three-way split) and are
    satisfied when >= 0.
    """
    if alpha < 8:
        raise ValueError(f"need alpha >= 8, got {alpha}")
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if which.first:
        if not 0 <= eps <= alpha - 1:
            raise ValueError(f"eps={eps} out of range for alpha={alpha}")
        if mu != (1 if eps == alpha - 1 else 0):
            raise ValueError(f"mu={mu} inconsistent with eps={eps}, alpha={alpha}")
    else:
        if not 0 <= eps <= alpha:
            raise ValueError(f"eps={eps} out of range for alpha={alpha}")
        expected = 2 if eps == alpha else (1 if eps >= alpha - 2 else 0)
        if mu != expected:
            raise ValueError(f"mu={mu} inconsistent with eps={eps}, alpha={alpha}")

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


def derived_satisfied(which: Ineq, value: int) -> bool:
    """Strict positivity for INEQ7/INEQ9 (which.first), else non-negativity."""
    return value > 0 if which.first else value >= 0


# The hypothesis range of the r >= 4 theorem: r -> an OR of ANDs of
# clauses (p, q, s), each meaning s*d > p*g + q.  Every p is positive,
# so a clause holds exactly for g up to its limit (s*d - q - 1) // p,
# and the in-range g of one degree run from 1 to the largest AND limit.
# Rows for r >= 11 come from _range_rows; range_genera adds the r = 9
# exception.  The clause the paper's r = 5 range adds on the degree
# window 101..113 is left out: the r = 5 row implies it there
# (verify.r5_window_limit).
#
# The paper's r = 6 range has a fourth term, 2d > g + 10 and
# 5d > 3g - 1, which adds nothing over the integers: 5d > 3g - 1 means
# 5d >= 3g, which gives 22d > 13g + 10 (so the third term) once g > 50;
# for g <= 50 the fourth term holds outside 5d > 3g + 3 only at
# (30, 49), which meets the third term too.
_RANGE_ROWS: dict[int, tuple] = {
    4: (((17, 72, 64),), ((4, 15, 15),), ((1, 18, 4), (17, 44, 64))),
    5: (((9, 20, 20),), ((10, 17, 22),), ((2, 25, 5), (9, 10, 20))),
    6: (((13, 20, 22),), ((3, 3, 5),), ((1, 10, 2), (13, 10, 22))),
    7: (((19, 24, 27),), ((4, 39, 7), (76, 71, 108))),
    8: (((4, 1, 5),), ((5, -4, 6),)),
    9: (((9, -5, 10),), ((29, 3, 33),)),
    10: (((21, -4, 22),), ((17, 12, 18),)),
}

def _range_rows(r: int) -> tuple:
    """The range row of r; for r >= 11 the single clause
    (r+1)d > 2(r-5)g - r + 14 (at r = 11 that is d > g)."""
    if r < 4:
        raise ValueError(f"hypothesis ranges are defined for r >= 4, got {r}")
    return _RANGE_ROWS.get(r) or (((2 * (r - 5), 14 - r, r + 1),),)


def _clause_limit(d: int, clause: tuple) -> int:
    """The largest g with s*d > p*g + q for the clause (p, q, s)."""
    p, q, s = clause
    return (s * d - q - 1) // p


def range_g_limit(d: int, r: int) -> int:
    """The largest g >= 1 meeting the range row of r, or 0 if none: the
    greatest over its ANDs of the least clause limit."""
    limit = 0
    for clauses in _range_rows(r):
        limit = max(limit, min(_clause_limit(d, clause) for clause in clauses))
    return limit


def range_genera(d: int, r: int, *, honor_exception: bool = True) -> range | tuple:
    """The g >= 1 with (d, g) in the hypothesis range of the r >= 4
    theorem, ascending: 1..range_g_limit; r = 9 excepts a single point
    unless honor_exception is disabled.
    """
    genera = range(1, range_g_limit(d, r) + 1)
    if r == 9 and honor_exception:
        except_d, except_g = (30, 34)
        if d == except_d:
            return tuple(g for g in genera if g != except_g)
    return genera


def range_thm41(d: int, g: int, r: int) -> bool:
    """Whether (d, g) lies in the hypothesis range of the r >= 4 theorem,
    i.e. whether g is among range_genera(d, r)."""
    if g < 1:
        raise ValueError(f"need g >= 1, got {g}")
    return g in range_genera(d, r)


def r3_genera(d: int) -> range:
    """The g of the r = 3 reduced grid at degree d, ascending: g >= 5
    and g >= d, up to pi(d, 3); empty for d < 3."""
    if d < 3:
        return range(0)
    return range(max(d, 5), bounds.max_genus_pi(d, 3) + 1)


def r3_sieve(d: int, g: int) -> Verdict:
    """The r = 3 exclusion chain on the reduced range g >= 5, d <= g.

    A configuration survives if 4d <= 4*alpha + 25 for some
    3 <= alpha <= (d+1)/3 (zero-dimensional branch), or
    4d <= cap + 4*alpha + 25 for some 3 <= alpha <= d/3 whose
    positive-dimension cap is >= 1.  Witnesses carry branch and slack.
    """
    if g < 5:
        raise ValueError(f"r = 3 sieve requires g >= 5, got {g}")
    if d > g:
        raise ValueError(f"r = 3 sieve requires d <= g, got d={d}, g={g}")
    found: list[R3Witness] = []
    # Both slacks increase by at least 1 per unit of alpha, so each branch
    # fires exactly on an upper interval of its alpha range.
    lo = max(3, -(-(4 * d - 25) // 4))
    for alpha in range(lo, (d + 1) // 3 + 1):
        found.append(R3Witness(alpha, "dim-w-0", 4 * alpha + 25 - 4 * d))
    lo = max(3, 3 * d - 26)
    for alpha in range(lo, d // 3 + 1):
        cap = bounds.agh_cap(d, g, alpha)
        if cap < 1:
            continue
        slack = cap + 4 * alpha + 25 - 4 * d
        if slack >= 0:
            found.append(R3Witness(alpha, "dim-w-pos", slack))
    if found:
        return Verdict(SURVIVORS, tuple(found))
    if (d + 1) // 3 < 3:
        return _EXCLUDED_NO_ALPHA
    return _EXCLUDED_INFEASIBLE


EMPTY = "empty"
DOMINATES = "dominates"
EXACT_IMAGE = "exact-image"
MIN_IMAGE_IF_NONEMPTY = "min-image-if-nonempty"


@dataclass(frozen=True)
class R3Classification:
    """Moduli-image classification of (d, g) in 3-space: empty scheme,
    dominating component, known exact image dimension, or a certified
    lower bound conditional on nonemptiness."""

    kind: str
    image_dim: Optional[int] = None

    def render(self) -> str:
        if self.image_dim is None:
            return self.kind
        return f"{self.kind}({self.image_dim})"


_R3_TABLE: dict[tuple[int, int], int] = {
    (7, 6): 13,
    (8, 7): 17,
    (8, 8): 17,
    (8, 9): 18,
    (9, 9): 21,
    (9, 10): 21,
    (9, 12): 23,
}


def r3_classify(d: int, g: int) -> R3Classification:
    """Decision table for curves in 3-space (see class docstring)."""
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    if g == 0:
        return R3Classification(OUT_OF_SCOPE)
    max_g = bounds.max_genus_pi(d, 3) if d >= 3 else 0
    if g > max_g:
        return R3Classification(EMPTY)
    if d == g + 1 and g <= 5:
        return R3Classification(EMPTY)
    if (d, g) == (9, 11):
        return R3Classification(EMPTY)
    if (d, g) in _R3_TABLE:
        return R3Classification(EXACT_IMAGE, _R3_TABLE[(d, g)])
    if d == g + 1 and g >= 8:
        return R3Classification(DOMINATES)
    if d >= g + 3 or (d == g + 2 and g >= 5) or 1 <= g <= 4:
        return R3Classification(DOMINATES)
    return R3Classification(MIN_IMAGE_IF_NONEMPTY, 23)
