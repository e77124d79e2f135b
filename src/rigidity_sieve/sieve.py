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
from typing import Iterator, NamedTuple, Optional

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


# Iterating the Enum runs a Python-level generator; a tuple does not.
_CASES = tuple(SieveCase)


class Ineq(enum.Enum):
    """The four derived inequalities obtained by substituting the genus
    caps into the case systems (7/9 via pi1, 8/10 via pi2).  first: 7/9
    read the first profile (m1, eps1, mu1; divisor alpha) and are strict,
    8/10 the second (divisor alpha + 1) and are not.  case: the source
    case, CASE1 for 7/8 (side variable i), CASE2 for 9/10 (j).
    partner: 7 with 8, 9 with 10 (same case)."""

    INEQ7 = "ineq7"
    INEQ8 = "ineq8"
    INEQ9 = "ineq9"
    INEQ10 = "ineq10"

    def __init__(self, value: str) -> None:
        number = int(value[4:])
        self.first = number % 2 == 1
        self.case = SieveCase.CASE1 if number <= 8 else SieveCase.CASE2
        self._partner_value = f"ineq{number + 1 if self.first else number - 1}"

    @property
    def partner(self) -> "Ineq":
        return Ineq(self._partner_value)

    def divisor(self, alpha: int) -> int:
        """The divisor q of this inequality's convention, d - 1 = m*q + eps:
        alpha for INEQ7/INEQ9, alpha + 1 for INEQ8/INEQ10."""
        return alpha if self.first else alpha + 1

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
    """The case's dimension bound minus lambda (bounds.euler_normal), the
    least dimension of a component; feasible iff >= 0.

    The bound is (r+1)alpha + r in cases 1/3 (zero-dimensional series
    locus), and (r+1)alpha + r plus the side variable + 1 in cases 2/4,
    the side variable (cap_numerator less 3*alpha) bounding the
    dimension of the series locus.
    """
    bound = (r + 1) * alpha + r
    if not case.index % 2:
        bound += cap_numerator(case, d, g) - 3 * alpha + 1
    return bound - bounds.euler_normal(d, g, r)


def cap_numerator(case: SieveCase, d: int, g: int) -> int:
    """3 * alpha is at most this: d + 1, d, 2d - g + 1, 2d - g for
    cases 1..4 respectively, from the series-locus bound.  Less 3*alpha
    it is the case's side variable (i in case 1, j in case 2), which
    must be >= 0.  Cases 1/2 read no g."""
    return (d if case.below else 2 * d - g) + case.index % 2


def alpha_cap(case: SieveCase, d: int, g: int) -> int:
    """Largest alpha allowed by the case: cap_numerator floored by 3."""
    return cap_numerator(case, d, g) // 3


def embed_dim_cap(d: int, g: int) -> int:
    """Largest ambient dimension of a smooth nondegenerate model of
    (d, g): the case-1 alpha cap when d <= g, else the case-3 one (the
    two agree at d = g)."""
    return alpha_cap(SieveCase.CASE1 if d <= g else SieveCase.CASE3, d, g)


# The paper's third genus-cap step also asks g < pi1.  That never binds:
# pi2 <= pi1 - 1 whenever d >= 2*alpha + 3.  With n = d - 1 and
# F_q(n) = sum of floor(j/q) over j <= n, pi1 = F_alpha(n) + mu1 and
# pi2 = F_(alpha+1)(n) + m2 + mu2.  F_alpha(n) - F_(alpha+1)(n) counts
# the pairs k >= 1, j <= n with k*alpha <= j <= k*(alpha+1) - 1, and
# each k <= m2 gives k of them, so it is >= m2(m2+1)/2, and
# pi1 - pi2 >= m2(m2-1)/2 - 2 >= 1 once m2 >= 3.  d >= 2*alpha + 3 forces
# m2 >= 2, and at m2 = 2 pi1 - pi2 is 1 + mu1, at least 1, and at least
# 2 when mu2 is 0, 1 and 2 respectively.
def genus_cap(d: int, alpha: int) -> int:
    """The largest genus that survives the three-step genus caps at
    (d, alpha): pi(d, alpha), lowered to pi1 once d >= 2*alpha + 1, and
    for alpha >= 8 with d >= 2*alpha + 3 also to pi2.  This is the one
    encoding of the genus-cap rule."""
    cap = bounds.max_genus_pi(d, alpha)
    prof = bounds.castelnuovo_profile(d, alpha)
    if d >= 2 * alpha + 1 and prof.pi1 < cap:
        cap = prof.pi1
    if alpha >= 8 and d >= 2 * alpha + 3 and prof.pi2 < cap:
        cap = prof.pi2
    return cap


def genus_caps_ok(d: int, g: int, alpha: int) -> bool:
    """Whether genus g survives the three-step genus caps at (d, alpha):
    g <= genus_cap(d, alpha), which reads pi and the profile at every g."""
    return g <= genus_cap(d, alpha)


def iter_witnesses(d: int, g: int, r: int) -> Iterator[SieveWitness]:
    """Every (alpha, case) configuration of (d, g, r) passing slack,
    alpha caps and genus caps, in (alpha, case) order, built only as the
    iterator reaches it.

    The alpha windows of the cases that apply at g are the _spans at
    g_min = g_max = g, and the alpha line is cut by _alpha_segments, the
    cutter _span_intervals walks too.  The genus caps (genus_caps_ok)
    and the profile do not depend on the case, so each is read once per
    alpha a window holds, and each span that holds it gives a witness.
    The gates of scan are not applied here.
    """
    spans = _spans(d, r, g, g)
    if not spans:
        return
    i_top = cap_numerator(SieveCase.CASE1, d, g)
    j_top = cap_numerator(SieveCase.CASE2, d, g)
    for start, stop, active in _alpha_segments([(span, span.alpha_lo, span.alpha_hi) for span in spans]):
        for alpha in range(start, stop):
            if not genus_caps_ok(d, g, alpha):
                continue
            profile = bounds.castelnuovo_profile(d, alpha)
            i, j = i_top - 3 * alpha, j_top - 3 * alpha
            for span in active:
                yield SieveWitness(alpha, span.case, i, j, profile, case_slack(span.case, d, g, r, alpha))


def _check_domain(d: int, r: int) -> None:
    if r < 4:
        raise ValueError(f"scan requires r >= 4 (got {r}); use r3_sieve for r = 3")
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")


def least_special_genus(d: int) -> int:
    """The least g with g >= 2 and d <= 2g - 2; every (d, g) with
    1 <= g below it is non-special."""
    return (d + 3) // 2


@dataclass(frozen=True)
class WitnessStream:
    """The witnesses of scan(d, g, r) for output that writes them one at
    a time: each iteration runs iter_witnesses afresh, and none is kept."""

    d: int
    g: int
    r: int

    def __iter__(self) -> Iterator[SieveWitness]:
        return iter_witnesses(self.d, self.g, self.r)


def _verdict(d: int, g: int, r: int, collect) -> Verdict:
    """The sieve verdict of (d, g, r) with r >= 4, a survivor's witnesses
    held as collect(WitnessStream(d, g, r)), built once the gates pass.

    Out-of-scope for genus 0; non-special exclusion for g = 1 or
    d > 2g - 2; no-alpha exclusion when the embedding cap is below r;
    otherwise survivors exactly when the held witnesses have a first
    one, else an all-cases-infeasible exclusion.
    """
    _check_domain(d, r)
    if g == 0:
        return _OUT_OF_SCOPE_G0
    if g < least_special_genus(d):
        return _EXCLUDED_NON_SPECIAL
    if embed_dim_cap(d, g) < r:
        return _EXCLUDED_NO_ALPHA
    witnesses = collect(WitnessStream(d, g, r))
    if next(iter(witnesses), None) is None:
        return _EXCLUDED_INFEASIBLE
    return Verdict(SURVIVORS, witnesses)


def scan_streamed(d: int, g: int, r: int) -> Verdict:
    """The sieve verdict of (d, g, r), a survivor's witnesses left as a
    WitnessStream, so that memory does not grow with their number; only
    the first witness is enumerated here, to settle the outcome."""
    return _verdict(d, g, r, lambda stream: stream)


def scan(d: int, g: int, r: int) -> Verdict:
    """The verdict of scan_streamed(d, g, r), a survivor's witnesses
    collected into a tuple by the one walk that settles the outcome."""
    return _verdict(d, g, r, tuple)


class _Span(NamedTuple):
    """One case's window intervals at one degree: at each alpha of
    alpha_lo..alpha_hi, the g of interval(alpha), within g_min..g_max.
    The case's slack is at_zero + per_g*g + per_alpha*alpha, and in
    cases 3/4 the alpha cap reads g <= cap_top - 3*alpha (cap_top is
    None in cases 1/2, whose alpha caps read no g)."""

    case: SieveCase
    g_min: int
    g_max: int
    alpha_lo: int
    alpha_hi: int
    at_zero: int
    per_g: int
    per_alpha: int
    cap_top: Optional[int]

    def interval(self, alpha: int) -> tuple[int, int]:
        """(g_lo, g_hi) at alpha: g_min raised to the slack's g floor,
        g_max lowered to the alpha cap's g ceiling."""
        g_lo = max(self.g_min, -((self.at_zero + self.per_alpha * alpha) // self.per_g))
        g_hi = self.g_max if self.cap_top is None else min(self.g_max, self.cap_top - 3 * alpha)
        return g_lo, g_hi


def _spans(d: int, r: int, g_min: int, g_max: int) -> list:
    """The _Span of each case with an alpha on g_min..g_max, in case
    order; the one setup of a case's window.

    The case applies on its g sub-range (d < g in cases 1/2, d >= g in
    3/4).  Its alpha window starts at the least alpha >= r whose slack
    is >= 0 at the sub-range's top g, as the slack rises with g and with
    alpha, and ends at the alpha cap at its least g, as the cap does not
    rise with g.  At g_min = g_max that is the case's slack-feasible
    window at g.  In cases 3/4 the window is cut to the alphas at which
    the slack's g floor is at most the alpha cap's g ceiling, so no
    alpha of a span has an empty interval.
    """
    spans = []
    for case in _CASES:
        g_lo, g_hi = (max(g_min, d + 1), g_max) if case.below else (g_min, min(g_max, d))
        # At r = 4, 5 cases 3/4 have no alpha at any g: with 3*alpha at
        # most 2d - g + 1 (case 3) or 2d - g (case 4), the slack is at
        # most 5 - 2d or 4 - 2d at r = 5, and three times it at most
        # 14 - 5d - 2g or 12 - 5d - 2g at r = 4; so an alpha needs
        # d <= 2, where the alpha cap is at most 1 < r.
        if g_lo > g_hi or (not case.below and r <= 5):
            continue
        at_zero = case_slack(case, d, 0, r, 0)
        per_g = case_slack(case, d, 1, r, 0) - at_zero
        per_alpha = case_slack(case, d, 0, r, 1) - at_zero
        alpha_lo = max(r, -((at_zero + per_g * g_hi) // per_alpha))
        alpha_hi = alpha_cap(case, d, g_lo)
        # cap_top: alpha <= alpha_cap(case, d, g) means g <= cap_top - 3*alpha
        # in cases 3/4; the alpha caps of cases 1/2 do not depend on g.
        cap_top = None if case.below else cap_numerator(case, d, 0)
        if cap_top is not None and alpha_lo <= alpha_hi:
            # The slack's g floor, ceil(-(at_zero + per_alpha*alpha) / per_g),
            # is at most cap_top - 3*alpha iff coef*alpha <= bound, as
            # per_g (r - 3 or r - 4) and coef (2r - 10) are > 0 at r >= 6.
            coef = 3 * per_g - per_alpha
            bound = per_g * cap_top + at_zero
            alpha_hi = min(alpha_hi, bound // coef)
        if alpha_lo <= alpha_hi:
            spans.append(_Span(case, g_lo, g_hi, alpha_lo, alpha_hi, at_zero, per_g, per_alpha, cap_top))
    return spans


def _alpha_segments(pieces: list) -> Iterator[tuple]:
    """(start, stop, active), ascending, for each run start..stop - 1 of
    the alpha line on which the same pieces (item, lo, hi) hold alpha,
    lo <= alpha <= hi; active lists their items in piece order.  The
    line is cut where a piece starts or ends, an empty piece (lo > hi)
    cuts nothing, and no run is yielded for the alphas no piece holds.
    The one cutter of the alpha line, for iter_witnesses at one g and
    _span_intervals over a genus range."""
    edges = sorted({cut for _, lo, hi in pieces if lo <= hi for cut in (lo, hi + 1)})
    for start, stop in zip(edges, edges[1:]):
        active = [item for item, lo, hi in pieces if lo <= start and stop <= hi + 1]
        if active:
            yield start, stop, active


def _span_intervals(d: int, pieces: list) -> Iterator[tuple]:
    """(alpha, case, g_lo, g_hi, cap) in (alpha, case) order: at every
    alpha of every segment of the pieces (span, lo, hi) that
    _alpha_segments cuts, one per span that holds alpha, in case order,
    with cap = genus_cap(d, alpha), read once per alpha."""
    for start, stop, active in _alpha_segments(pieces):
        for alpha in range(start, stop):
            cap = genus_cap(d, alpha)
            for span in active:
                yield (alpha, span.case, *span.interval(alpha), cap)


# The exact pi cut.  With n = d - 1, q = alpha - 1 and m = n // q,
# pi(d, alpha) = castelnuovo_core(m, n - m*q, q) = m*n - C(m+1, 2)*q.  On a
# block of alphas with one m it is linear in alpha and falls by
# C(m+1, 2) per step.  pi is an integer, so g_lo <= pi exactly when
# g_min <= pi and the slack's real g floor -(at_zero +
# per_alpha*alpha)/per_g is at most pi, that is when at_zero +
# per_g*pi + per_alpha*alpha >= 0, a line that falls by
# per_g*C(m+1, 2) - per_alpha per step.  Both lines fall on every block
# a span holds, and across blocks, so the kept alphas are one prefix:
# pi(d, alpha) - pi(d, alpha + 1) = F_(alpha-1)(n - 1) - F_alpha(n - 1)
# (F_q as above genus_cap) gets k from each k with k*alpha <= n.
# - cases 1/2: 3*alpha <= d + 1 gives n >= 3q + 1, so m >= 3, and pi
#   falls by at least 6 to the span's next alpha; 6(r - 3) > r + 1 >=
#   per_alpha at r >= 4;
# - cases 3/4 (spans only at r >= 6): the span's cut, the slack's g
#   floor at most 2d - 3*alpha (+ 1 in case 3), gives (2r - 10)*alpha
#   <= (r - 7)d + r, so 2*alpha <= d + 1 once d >= 3, n >= 2q, m >= 2
#   and pi falls by at least 3; 3(r - 3) > r + 1, 3(r - 4) > r - 2.
def _under_pi(d: int, span: _Span) -> int:
    """The last alpha of the span with g_lo <= pi(d, alpha) (alpha_lo - 1
    if none), found on the first quotient block where that prefix ends;
    pi is read off bounds.castelnuovo_core, with no cached call."""
    n, alpha = d - 1, span.alpha_lo
    while alpha <= span.alpha_hi:
        m = n // (alpha - 1)
        end = min(span.alpha_hi, n // m + 1)
        pi = bounds.castelnuovo_core(m, n - m * (alpha - 1), alpha - 1)
        step = pi - bounds.castelnuovo_core(m, n - m * alpha, alpha)
        slack = span.at_zero + span.per_g * pi + span.per_alpha * alpha
        last = min(end, alpha + slack // (span.per_g * step - span.per_alpha), alpha + (pi - span.g_min) // step)
        if last < end:
            return max(last, alpha - 1)
        alpha = end + 1
    return span.alpha_hi


# The certified runs of r11_intervals, on r11's special g up to top, the
# last alpha below both of step (a)'s boundaries, where (a) has no g:
# 3*alpha < the case-2 numerator, and the case-4 numerator - 3*alpha > d
# >= g.  Both give 3*alpha < d; both are read once, for top and every
# a_lo, so a change to either moves both.  A span's interval at alpha is
# [L(alpha), g_max] cut by the genus cap, with L falling as alpha
# rises, while the alpha cap does not cut it: in cases 1/2 always,
# in cases 3/4 while 3*alpha <= cap_top - g_max, which top keeps
# (cap_top >= 2d and g_max <= d).  A run starts at alpha_lo if the cap
# there is at g_max or above, and a later alpha keeps the union
# [L(alpha), g_max] if it passes the join test genus_cap(d, alpha) + 1
# >= L(alpha - 1).  r11 has alpha >= r >= 11, and 3(alpha + 1) <= n =
# d - 1 for any two alphas alpha, alpha + 1 at or below top.  There
# pi, pi1 and pi2 are all active, and with F_q as above genus_cap
# each falls by at least 2 from alpha to alpha + 1.  F_q(n) - F_(q+1)(n)
# counts, for each k >= 1, the j <= n with k*q <= j <= k(q + 1) - 1: k of
# them once k(q + 1) - 1 <= n, and at least one once k*q <= n.  So:
# - pi = F_(alpha-1)(n - 1) falls by at least 1 + 2;
# - pi1 = F_alpha(n) + mu1 by at least 1 + 2, less a mu1 swing of 1;
# - pi2 = F_(alpha+1)(n) + m2 + mu2 by at least 1 + 2 + 1 (k = 3 from
#   3(alpha + 1) <= n; m2 does not rise), less a mu2 swing of at most 2.
# So genus_cap falls by at least 2.  L is the ceiling of a line that
# falls by per_alpha/per_g < 2 per alpha, raised to g_min, so it falls by
# at most 2: per_alpha < 2*per_g in every case at r >= 8 (r + 1 <
# 2(r - 3), r - 2 < 2(r - 3), r - 2 < 2(r - 4)).  So genus_cap(d, alpha)
# + 1 - L(alpha - 1) does not rise with alpha, and the join test holds
# at every alpha of a run once it holds at the run's last.
def r11_intervals(d: int, r: int) -> tuple:
    """(universe, runs, walk), r11's plan at degree d, r >= 11.  universe:
    the special g, least_special_genus(d)..2d.  runs: (case, g_lo, g_max)
    per _span over them whose start test at alpha_lo and join test at last
    = min(alpha_hi, top) hold, the union of its capped intervals up to it.
    walk: lazily, (alpha, case, g_lo, g_hi, cap, a_lo) of _span_intervals
    past the runs, a_lo the least g of the interval where step (a) applies,
    3*alpha >= the case-2 (in cases 3/4 case-4) numerator; else g_hi + 1."""
    below_top = cap_numerator(SieveCase.CASE2, d, 0)
    above_top = cap_numerator(SieveCase.CASE4, d, 0)
    top = min(below_top - 1, above_top - d - 1) // 3
    universe = range(least_special_genus(d), 2 * d + 1)
    runs, pieces = [], []
    for span in _spans(d, r, universe.start, 2 * d):
        last = min(span.alpha_hi, top)
        starts = span.alpha_lo <= last and genus_cap(d, span.alpha_lo) >= span.g_max
        if starts and (last == span.alpha_lo or genus_cap(d, last) + 1 >= span.interval(last - 1)[0]):
            runs.append((span.case, span.interval(last)[0], span.g_max))
        else:
            last = span.alpha_lo - 1
        pieces.append((span, last + 1, span.alpha_hi))

    def walk() -> Iterator[tuple]:
        for alpha, case, g_lo, g_hi, cap in _span_intervals(d, pieces):
            if case.below:
                a_lo = g_lo if 3 * alpha >= below_top else g_hi + 1
            else:
                a_lo = min(max(g_lo, above_top - 3 * alpha), g_hi + 1)
            yield alpha, case, g_lo, g_hi, cap, a_lo

    return universe, runs, walk()


def genus_intervals(d: int, r: int, g_top: int) -> Iterator[tuple]:
    """(alpha, case, g_lo, g_hi) in (alpha, case) order, for each
    (alpha, case) that is a witness of scan(d, g, r) for some g <= g_top:
    the window intervals of the _spans over the special g <= g_top, cut
    by genus_cap(d, alpha), which depends on (d, alpha) only.

    Every condition of scan but the genus caps is monotone in g, so the
    g of one (alpha, case) form one interval: the gates and the case
    split bound g below (cases 3/4 also above, by d), the slack is
    linear in g with coefficient r - 3 or r - 4, and the alpha caps of
    cases 3/4 bound g above.

    The genus cap is at most pi(d, alpha), so the (alpha, case) with
    g_lo > pi are cut out exactly by quotient blocks (_under_pi); pi and
    the profile are read once per alpha that is left."""
    _check_domain(d, r)
    pieces = [(span, span.alpha_lo, _under_pi(d, span)) for span in _spans(d, r, least_special_genus(d), g_top)]
    for alpha, case, g_lo, g_hi, cap in _span_intervals(d, pieces):
        if g_lo <= cap:
            yield alpha, case, g_lo, min(g_hi, cap)


def witnesses_by_genus(d: int, r: int, g_top: int) -> dict:
    """g -> the (alpha, case) of every witness of scan(d, g, r), in
    (alpha, case) order, for each g <= g_top that has one; the keys
    ascend.  It expands the genus_intervals: the thm41 and case34 suites
    read it where few g survive, sweep at every g <= 2d of its rows,
    holding each surviving g's witnesses at once (ROADMAP item 11)."""
    by_genus = collections.defaultdict(list)
    for alpha, case, g_lo, g_hi in genus_intervals(d, r, g_top):
        witness = (alpha, case)
        for g in range(g_lo, g_hi + 1):
            by_genus[g].append(witness)
    return dict(sorted(by_genus.items()))


def check_division(which: Ineq, alpha: int, eps: int, mu: int) -> None:
    """Raise ValueError unless eps is a remainder of the division
    convention of the inequality (0..divisor - 1, Ineq.divisor) and mu
    its correction, bounds.mu."""
    if not 0 <= eps < which.divisor(alpha):
        raise ValueError(f"eps={eps} out of range for alpha={alpha}")
    if mu != bounds.mu(eps, alpha, which.first):
        raise ValueError(f"mu={mu} inconsistent with eps={eps}, alpha={alpha}")


def derived_slack(which: Ineq, r: int, alpha: int, m: int, eps: int, mu: int) -> int:
    """Twice the case slack at pi: the source case's slack (case_slack
    of which.case) at the degree d = m*q + eps + 1, q the divisor of the
    convention (Ineq.divisor), and at the genus bound g = pi1 or pi2 of
    that division (bounds.castelnuovo_bound).  The paper's expansions of
    these inequalities carry (r-3)/2 as a coefficient, and twice clears it.

    INEQ7/INEQ9 take (m, eps, mu) in the alpha-division convention
    (0 <= eps <= alpha-1) and are satisfied when the value is > 0;
    INEQ8/INEQ10 take the (alpha+1)-division convention (0 <= eps <=
    alpha) and are satisfied when >= 0.  mu must be bounds.mu of eps
    in the convention (check_division).
    """
    if alpha < 8:
        raise ValueError(f"need alpha >= 8, got {alpha}")
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    check_division(which, alpha, eps, mu)
    d = m * which.divisor(alpha) + eps + 1
    pi = bounds.castelnuovo_bound(m, eps, mu, alpha, which.first)
    return 2 * case_slack(which.case, d, pi, r, alpha)


def derived_satisfied(which: Ineq, value: int) -> bool:
    """Strict positivity for INEQ7/INEQ9 (which.first), else non-negativity."""
    return value > 0 if which.first else value >= 0


# The hypothesis range of the r >= 4 theorem: r -> an OR of ANDs of
# clauses (p, q, s), each meaning s*d > p*g + q.  Every p is positive,
# so a clause holds exactly for g up to its limit (s*d - q - 1) // p,
# and the in-range g of one degree run from 1 to the largest AND limit.
# The row for r >= 11, one clause, is in range_g_limit; range_genera
# adds the r = 9 exception.  The clause the paper's r = 5 range adds on
# the degree window 101..113 is left out: the r = 5 row implies it
# there (verify.r5_window_limit).
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


def range_g_limit(d: int, r: int) -> int:
    """The largest g >= 1 meeting the range row of r, or 0 if none: the
    greatest over its ANDs of the least clause limit.  The r >= 11 row is
    the clause (r+1)d > 2(r-5)g - r + 14 (d > g at r = 11)."""
    if r < 4:
        raise ValueError(f"hypothesis ranges are defined for r >= 4, got {r}")
    limit = 0
    for clauses in _RANGE_ROWS.get(r) or (((2 * (r - 5), 14 - r, r + 1),),):
        limit = max(limit, min((s * d - q - 1) // p for p, q, s in clauses))
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

    A configuration survives if lambda <= 4*alpha + 25 for some alpha
    from 3 to the case-1 alpha cap (zero-dimensional branch), or
    lambda <= i + 4*alpha + 25 for some alpha from 3 to the case-2
    alpha cap, i being the case-1 side variable, which bounds the
    dimension of the series locus (positive-dimensional branch); lambda
    is bounds.euler_normal, 4d at r = 3.  Witnesses carry branch and
    slack, the bound minus lambda.
    """
    if g < 5:
        raise ValueError(f"r = 3 sieve requires g >= 5, got {g}")
    if d > g:
        raise ValueError(f"r = 3 sieve requires d <= g, got d={d}, g={g}")
    found: list[R3Witness] = []
    top = alpha_cap(SieveCase.CASE1, d, g)
    i_top = cap_numerator(SieveCase.CASE1, d, g)
    lam = bounds.euler_normal(d, g, 3)
    # Both slacks increase by at least 1 per unit of alpha, so each branch
    # fires exactly on an upper interval of its alpha range, from the
    # least alpha at which its slack is >= 0 (i + 4*alpha = i_top + alpha).
    # Up to the case-2 cap i >= 1, as the positive-dimensional branch needs.
    lo = max(3, -(-(lam - 25) // 4))
    for alpha in range(lo, top + 1):
        found.append(R3Witness(alpha, "dim-w-0", 4 * alpha + 25 - lam))
    lo = max(3, lam - i_top - 25)
    for alpha in range(lo, alpha_cap(SieveCase.CASE2, d, g) + 1):
        i = i_top - 3 * alpha
        found.append(R3Witness(alpha, "dim-w-pos", i + 4 * alpha + 25 - lam))
    if found:
        return Verdict(SURVIVORS, tuple(found))
    if top < 3:
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
    if (d, g) == (9, 11):
        return R3Classification(EMPTY)
    if (d, g) in _R3_TABLE:
        return R3Classification(EXACT_IMAGE, _R3_TABLE[(d, g)])
    if d == g + 1 and g >= 8:
        return R3Classification(DOMINATES)
    if d >= g + 3 or (d == g + 2 and g >= 5) or 1 <= g <= 4:
        return R3Classification(DOMINATES)
    return R3Classification(MIN_IMAGE_IF_NONEMPTY, 23)
