"""Exact-integer numerical invariants of curves in projective space.

Every function is pure and total on its stated domain, works over plain
Python integers (arbitrary precision) and never touches floating point:
all rational comparisons elsewhere in the package are done by
cross-multiplication against these values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple


@dataclass(frozen=True)
class CurveClass:
    """A triple (d, g, r): degree-d, genus-g curves in projective r-space."""

    d: int
    g: int
    r: int

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError(f"degree must be >= 1, got {self.d}")
        if self.g < 0:
            raise ValueError(f"genus must be >= 0, got {self.g}")
        if self.r < 3:
            raise ValueError(f"ambient dimension must be >= 3, got {self.r}")


class CastelnuovoProfile(NamedTuple):
    """Division data and the second/third maximal-genus bounds at (d, alpha).

    m1 = floor((d-1)/alpha), eps1 = d-1 - m1*alpha, and mu1 = 1 exactly when
    eps1 = alpha-1; m2/eps2 are the same for divisor alpha+1, with mu2 = 2
    when eps2 = alpha, 1 when alpha-2 <= eps2 <= alpha-1, else 0.  pi1 and
    pi2 are the genus bounds built from them.
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


def brill_noether(c: CurveClass) -> int:
    """Brill-Noether number rho(d,g,r) = g - (r+1)(g-d+r); may be negative."""
    return c.g - (c.r + 1) * (c.g - c.d + c.r)


def euler_normal(c: CurveClass) -> int:
    """Euler characteristic (r+1)d - (r-3)(g-1) of the normal bundle.

    This is the expected dimension of the Hilbert scheme at a smooth
    point; for r = 3 it collapses to 4d.
    """
    return (c.r + 1) * c.d - (c.r - 3) * (c.g - 1)


@lru_cache(maxsize=None)
def max_genus_pi(d: int, r: int) -> int:
    """Maximal genus of an irreducible nondegenerate degree-d curve in P^r.

    Closed form with m = floor((d-1)/(r-1)) and eps = d-1 - m(r-1):
    C(m,2)(r-1) + m*eps.

    Cached: grid sweeps evaluate the same (d, r) many times.
    """
    if r < 2:
        raise ValueError(f"ambient dimension must be >= 2, got {r}")
    if d < r:
        raise ValueError(f"need d >= r, got d={d}, r={r}")
    m, eps = divmod(d - 1, r - 1)
    return m * (m - 1) // 2 * (r - 1) + m * eps


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
    mu1 = 1 if eps1 == alpha - 1 else 0
    pi1 = m1 * (m1 - 1) // 2 * alpha + m1 * (eps1 + 1) + mu1
    m2, eps2 = divmod(d - 1, alpha + 1)
    if eps2 == alpha:
        mu2 = 2
    elif eps2 >= alpha - 2:
        mu2 = 1
    else:
        mu2 = 0
    pi2 = m2 * (m2 - 1) // 2 * (alpha + 1) + m2 * (eps2 + 2) + mu2
    return CastelnuovoProfile(alpha, m1, eps1, mu1, pi1, m2, eps2, mu2, pi2)


def agh_cap(d: int, g: int, rho_dim: int) -> int:
    """Upper bound for the dimension of a positive-dimensional W^r_d locus.

    d - 3r + 1 when d <= g, else 2d - 3r - g + 1 (the two branches agree at
    d = g).  A value <= 0 signals that dim W >= 1 is infeasible.
    """
    if rho_dim < 1:
        raise ValueError(f"series dimension must be >= 1, got {rho_dim}")
    if d <= g:
        return d - 3 * rho_dim + 1
    return 2 * d - 3 * rho_dim - g + 1


def embed_dim_cap(d: int, g: int) -> int:
    """Largest ambient dimension of a smooth nondegenerate model of (d, g).

    floor((d+1)/3) when d <= g, else floor((2d-g+1)/3).
    """
    if d <= g:
        return (d + 1) // 3
    return (2 * d - g + 1) // 3


def quadric_types(d: int, g: int) -> list[tuple[int, int]]:
    """All bidegrees a >= b >= 0 with a + b = d and (a-1)(b-1) = g.

    These are the classes of smooth curves of degree d and genus g on a
    smooth quadric surface; the list (possibly empty) is sorted by
    decreasing a.
    """
    return [(d - b, b) for b in range(0, d // 2 + 1) if (d - b - 1) * (b - 1) == g]


def image_dim_r3(d: int, h1_normal: int) -> int:
    """Dimension 4d - 15 + h1 of the moduli image of a (generically smooth)
    component of curves of degree d in 3-space, h1 of the normal bundle given.
    """
    return 4 * d - 15 + h1_normal

