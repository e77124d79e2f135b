"""Exact-integer invariants and exclusion sieves for space-curve moduli.

Subpackages: bounds (numerical invariants and genus caps), surfaces
(divisor arithmetic on ruled surfaces), sieve (the exclusion sieve and
classification tables), verify (brute-force sweeps), cli (command-line
interface).
"""

from .bounds import (
    CastelnuovoProfile,
    CurveClass,
    agh_cap,
    brill_noether,
    castelnuovo_profile,
    embed_dim_cap,
    euler_normal,
    image_dim_r3,
    max_genus_pi,
    quadric_types,
)
from .sieve import (
    Ineq,
    R3Classification,
    R3Witness,
    SieveCase,
    SieveWitness,
    Verdict,
    alpha_cap,
    case_slack,
    derived_satisfied,
    derived_slack,
    genus_caps_ok,
    r3_classify,
    r3_sieve,
    range_thm41,
    scan,
)
from .surfaces import (
    DivisorClass,
    SplitCertificate,
    arith_genus,
    find_stable_split,
    intersect,
    smooth_irreducible_exists,
)

__version__ = "0.1.0"

__all__ = [
    "CastelnuovoProfile",
    "CurveClass",
    "DivisorClass",
    "Ineq",
    "R3Classification",
    "R3Witness",
    "SieveCase",
    "SieveWitness",
    "SplitCertificate",
    "Verdict",
    "agh_cap",
    "alpha_cap",
    "arith_genus",
    "brill_noether",
    "case_slack",
    "castelnuovo_profile",
    "derived_satisfied",
    "derived_slack",
    "embed_dim_cap",
    "euler_normal",
    "find_stable_split",
    "genus_caps_ok",
    "image_dim_r3",
    "intersect",
    "max_genus_pi",
    "quadric_types",
    "r3_classify",
    "r3_sieve",
    "range_thm41",
    "scan",
    "smooth_irreducible_exists",
    "__version__",
]
