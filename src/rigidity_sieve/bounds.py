"""Exact-integer numerical invariants of curves in projective space.

Every function is pure and total on its stated domain, works over plain
Python integers (arbitrary precision) and never touches floating point:
all rational comparisons elsewhere in the package are done by
cross-multiplication against these values.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple


class CastelnuovoProfile(NamedTuple):
    """Division data and the second/third maximal-genus bounds at (d, alpha).

    m1 = floor((d-1)/alpha), eps1 = d-1 - m1*alpha; m2/eps2 are the same
    for divisor alpha+1; mu1 and mu2 are their corrections (mu).  pi1 and
    pi2 are the genus bounds built from them (castelnuovo_bound).
    """

    alpha: int
    m1: int
    eps1: int
    mu1: int
    pi1: int
    m2: int
    eps2: int
    mu2: int
    pi2: int


def brill_noether(d: int, g: int, r: int) -> int:
    """Brill-Noether number rho(d,g,r) = g - (r+1)(g-d+r); may be negative."""
    return g - (r + 1) * (g - d + r)


def euler_normal(d: int, g: int, r: int) -> int:
    """lambda = (r+1)d - (r-3)(g-1), the Euler characteristic of the
    normal bundle and the least dimension of a component of the Hilbert
    scheme; 4d for r = 3.  The one encoding of lambda: each case slack
    of the sieve is its dimension bound minus it."""
    return (r + 1) * d - (r - 3) * (g - 1)


def castelnuovo_core(m: int, eps: int, q: int) -> int:
    """C(m, 2)*q + m*eps, the core of every Castelnuovo bound of a degree
    d with d - 1 = m*q + eps: pi at q = alpha - 1, and pi1, pi2 through
    castelnuovo_bound.  This is the one encoding of that term."""
    return m * (m - 1) // 2 * q + m * eps


@lru_cache(maxsize=None)
def max_genus_pi(d: int, r: int) -> int:
    """Maximal genus of an irreducible nondegenerate degree-d curve in P^r.

    With m = floor((d-1)/(r-1)) and eps = d-1 - m(r-1), the core
    C(m,2)(r-1) + m*eps (castelnuovo_core).

    Cached, without a bound: `verify all` on its default universe leaves
    7,220 entries, and `query --r 100 --d 985000 --g 985001` 298,182,
    one per alpha of its window.
    """
    if r < 2:
        raise ValueError(f"ambient dimension must be >= 2, got {r}")
    if d < r:
        raise ValueError(f"need d >= r, got d={d}, r={r}")
    m, eps = divmod(d - 1, r - 1)
    return castelnuovo_core(m, eps, r - 1)


def mu(eps: int, alpha: int, first: bool) -> int:
    """The Castelnuovo correction of remainder eps at series dimension
    alpha: in the first convention (divisor alpha) 1 exactly when
    eps = alpha-1; in the second (divisor alpha+1) 2 when eps = alpha,
    1 when alpha-2 <= eps <= alpha-1, else 0."""
    if first:
        return 1 if eps == alpha - 1 else 0
    return 2 if eps == alpha else 1 if eps >= alpha - 2 else 0


def castelnuovo_bound(m: int, eps: int, mu: int, alpha: int, first: bool) -> int:
    """The genus bound pi1 (first: divisor q = alpha) or pi2 (divisor
    q = alpha + 1) of a degree d with d - 1 = m*q + eps and correction
    mu: castelnuovo_core(m, eps + 1, q) + mu, plus m in the second
    convention.  This is the one encoding of the pi1/pi2 formula."""
    if first:
        return castelnuovo_core(m, eps + 1, alpha) + mu
    return castelnuovo_core(m, eps + 2, alpha + 1) + mu


@lru_cache(maxsize=None)
def castelnuovo_profile(d: int, alpha: int) -> CastelnuovoProfile:
    """Profile (m1, eps1, mu1, pi1, m2, eps2, mu2, pi2) at degree d, series dim alpha.

    Requires alpha >= 3 and d >= alpha + 2 so that m2 >= 1 and the three
    mu2 cases are disjoint and exhaustive.

    Cached: genus-cap checks evaluate the same (d, alpha) for many genera.
    """
    if alpha < 3:
        raise ValueError(f"need alpha >= 3, got {alpha}")
    if d < alpha + 2:
        raise ValueError(f"need d >= alpha + 2, got d={d}, alpha={alpha}")
    m1, eps1 = divmod(d - 1, alpha)
    mu1 = mu(eps1, alpha, True)
    pi1 = castelnuovo_bound(m1, eps1, mu1, alpha, True)
    m2, eps2 = divmod(d - 1, alpha + 1)
    mu2 = mu(eps2, alpha, False)
    pi2 = castelnuovo_bound(m2, eps2, mu2, alpha, False)
    return CastelnuovoProfile(alpha, m1, eps1, mu1, pi1, m2, eps2, mu2, pi2)


def quadric_types(d: int, g: int) -> list[tuple[int, int]]:
    """All bidegrees a >= b >= 0 with a + b = d and (a-1)(b-1) = g.

    These are the classes of smooth curves of degree d and genus g on a
    smooth quadric surface; the list (possibly empty) is sorted by
    decreasing a.
    """
    return [(d - b, b) for b in range(0, d // 2 + 1) if (d - b - 1) * (b - 1) == g]


def image_dim_r3(d: int, h1_normal: int) -> int:
    """Dimension lambda - 15 + h1 of the moduli image of a (generically
    smooth) component of curves of degree d in 3-space, h1 of the normal
    bundle given; 15 = dim PGL(4), and lambda = 4d reads no g at r = 3.
    """
    return euler_normal(d, 0, 3) - 15 + h1_normal

