"""Exact-integer invariants and exclusion sieves for space-curve moduli.

Modules: bounds (numerical invariants and genus caps), surfaces
(divisor arithmetic on ruled surfaces), sieve (the exclusion sieve and
classification tables), verify (brute-force sweeps), cli (command-line
interface).  Import names from their modules: the package re-exports none.
"""

__version__ = "0.1.0"
