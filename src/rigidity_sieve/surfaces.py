"""Divisor-class arithmetic on the ruled surfaces X_e.

Classes aC0 + bf on X_e carry the intersection pairing C0^2 = -e,
C0.f = 1, f^2 = 0.  The split machinery produces certificates that a
class with genus >= 2 degenerates to a union of two smooth irreducible
curves meeting in >= 3 points (a singular stable curve).  One of three
closed-form constructions (minimal-section multiples, section + comb,
residual + fiber) covers every such class, so no search is needed.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DivisorClass:
    """The class a*C0 + b*f on X_e; classes combine only for equal e."""

    a: int
    b: int
    e: int

    def __post_init__(self) -> None:
        if self.a < 0 or self.b < 0 or self.e < 0:
            raise ValueError(f"coefficients and e must be >= 0, got {self}")

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        if self.e != other.e:
            raise ValueError(f"surface mismatch: e={self.e} vs e={other.e}")
        return DivisorClass(self.a + other.a, self.b + other.b, self.e)

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.e)


@dataclass(frozen=True)
class SplitCertificate:
    """A decomposition D = d1 + d2 witnessing a singular stable degeneration."""

    d1: DivisorClass
    d2: DivisorClass
    intersection: int

    def to_dict(self) -> dict:
        return {
            "d1": list(self.d1.as_tuple()),
            "d2": list(self.d2.as_tuple()),
            "intersection": self.intersection,
        }


def intersect(d1: DivisorClass, d2: DivisorClass) -> int:
    """Intersection number -e*a1*a2 + a1*b2 + a2*b1."""
    if d1.e != d2.e:
        raise ValueError(f"surface mismatch: e={d1.e} vs e={d2.e}")
    return -d1.e * d1.a * d2.a + d1.a * d2.b + d2.a * d1.b


def arith_genus(d: DivisorClass) -> int:
    """Arithmetic genus (a-1)(2b - ae - 2)/2 of a class with a >= 1.

    The product (a-1)(2b-ae-2) is even for all integers, so the division
    is exact.
    """
    if d.a < 1:
        raise ValueError(f"need a >= 1, got {d}")
    return (d.a - 1) * (2 * d.b - d.a * d.e - 2) // 2


def smooth_irreducible_exists(d: DivisorClass) -> bool:
    """Whether aC0 + bf contains a smooth irreducible curve, by the
    sufficient criteria actually used: a fiber (0,1); any section (1,b);
    a >= 2 with e = 0 and b >= 1; or a >= 2 with e >= 1 and b >= ae.
    """
    if d.a == 0:
        return d.b == 1
    if d.a == 1:
        return True
    if d.e == 0:
        return d.b >= 1
    return d.b >= d.a * d.e


def find_stable_split(d: DivisorClass) -> SplitCertificate:
    """Split D into two smooth irreducible classes meeting in >= 3 points.

    Requires a >= 2, genus >= 2 and a smooth irreducible representative;
    every such class splits.  The residual-plus-fiber split (D - f) + f
    comes first, and fails exactly where one of the other two applies:
    - b = ae: the minimal-section split (1,e) + (a-1)(1,e), meeting in
      (a-1)e points.  Here e >= 1, as (a, 0) is not smooth on X_0,
      and the genus (a-1)(ae-2)/2 is 0 or 1 at (a-1)e <= 2, so (a-1)e >= 3.
    - a = 2: the section-plus-comb split (1,0) + (1,b), meeting in
      b - e = genus + 1 >= 3 points.
    - a >= 3: D = (D - f) + f, meeting in a >= 3 points.  (a, b-1) is
      smooth: b >= ae + 1 when e >= 1, as b != ae, and genus
      (a-1)(b-1) >= 2 gives b >= 2 when e = 0.
    """
    if d.a < 2:
        raise ValueError(f"need a >= 2, got {d}")
    if not smooth_irreducible_exists(d):
        raise ValueError(f"no smooth irreducible curve in class {d}")
    if arith_genus(d) < 2:
        raise ValueError(f"genus {arith_genus(d)} below stability threshold")
    if d.b == d.a * d.e:
        d1, d2 = DivisorClass(1, d.e, d.e), DivisorClass(d.a - 1, (d.a - 1) * d.e, d.e)
    elif d.a == 2:
        d1, d2 = DivisorClass(1, 0, d.e), DivisorClass(1, d.b, d.e)
    else:
        d1, d2 = DivisorClass(d.a, d.b - 1, d.e), DivisorClass(0, 1, d.e)
    return SplitCertificate(d1, d2, intersect(d1, d2))
