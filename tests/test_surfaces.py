"""Tests for ruled-surface divisor arithmetic and stable splits."""

import itertools

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rigidity_sieve import surfaces
from rigidity_sieve.surfaces import DivisorClass, SplitCertificate

MAX = 2**63 - 1


def grid(a_max=8, b_max=12, e_max=3, a_min=0):
    for e in range(0, e_max + 1):
        for a in range(a_min, a_max + 1):
            for b in range(0, b_max + 1):
                yield DivisorClass(a, b, e)


def is_valid(d):
    """Whether find_stable_split accepts d: a >= 2, a smooth irreducible
    representative and genus >= 2."""
    return d.a >= 2 and surfaces.smooth_irreducible_exists(d) and surfaces.arith_genus(d) >= 2


def naive_certificate(d1, d2, total):
    """The certificate of d1 + d2 = total, if both parts are smooth
    irreducible classes meeting in >= 3 points, else None."""
    if d1.a + d2.a != total.a or d1.b + d2.b != total.b:
        return None
    if not (surfaces.smooth_irreducible_exists(d1) and surfaces.smooth_irreducible_exists(d2)):
        return None
    n = surfaces.intersect(d1, d2)
    return SplitCertificate(d1, d2, n) if n >= 3 else None


def naive_stable_split(d):
    """The split found by search: the three canonical candidates in
    order ((D - f) + f, the minimal-section split, section plus comb),
    then every (a1, b1) in lexicographic order; None if nothing
    qualifies."""
    e = d.e
    candidates = []
    if d.b >= 1:
        candidates.append((DivisorClass(d.a, d.b - 1, e), DivisorClass(0, 1, e)))
    if d.b == d.a * e:
        candidates.append((DivisorClass(1, e, e), DivisorClass(d.a - 1, (d.a - 1) * e, e)))
    if d.a == 2:
        candidates.append((DivisorClass(1, 0, e), DivisorClass(1, d.b, e)))
    search = (
        (DivisorClass(a1, b1, e), DivisorClass(d.a - a1, d.b - b1, e))
        for a1 in range(d.a + 1)
        for b1 in range(d.b + 1)
    )
    for d1, d2 in itertools.chain(candidates, search):
        cert = naive_certificate(d1, d2, d)
        if cert is not None:
            return cert
    return None


class TestDivisorClass:
    def test_rejects_negative(self):
        for bad in [(-1, 0, 0), (0, -1, 0), (0, 0, -1)]:
            with pytest.raises(ValueError):
                DivisorClass(*bad)

    def test_add_same_surface(self):
        assert DivisorClass(1, 2, 3) + DivisorClass(4, 5, 3) == DivisorClass(5, 7, 3)

    def test_add_rejects_surface_mismatch(self):
        with pytest.raises(ValueError):
            DivisorClass(1, 2, 1) + DivisorClass(1, 2, 2)

    def test_as_tuple(self):
        assert DivisorClass(4, 9, 2).as_tuple() == (4, 9, 2)


class TestIntersect:
    def test_generators(self):
        for e in range(0, 4):
            section = DivisorClass(1, 0, e)
            fiber = DivisorClass(0, 1, e)
            assert surfaces.intersect(section, section) == -e
            assert surfaces.intersect(section, fiber) == 1
            assert surfaces.intersect(fiber, fiber) == 0

    def test_symmetric_and_bilinear(self):
        ds = list(grid(4, 5, 2))
        for d1 in ds:
            for d2 in ds:
                if d1.e != d2.e:
                    continue
                assert surfaces.intersect(d1, d2) == surfaces.intersect(d2, d1)
                s = d1 + d2
                for d3 in ds:
                    if d3.e != d1.e:
                        continue
                    assert surfaces.intersect(s, d3) == surfaces.intersect(
                        d1, d3
                    ) + surfaces.intersect(d2, d3)

    def test_rejects_surface_mismatch(self):
        with pytest.raises(ValueError):
            surfaces.intersect(DivisorClass(1, 0, 1), DivisorClass(1, 0, 2))


class TestArithGenus:
    def test_pins(self):
        assert surfaces.arith_genus(DivisorClass(4, 9, 2)) == 12
        assert surfaces.arith_genus(DivisorClass(3, 3, 1)) == 1
        assert surfaces.arith_genus(DivisorClass(1, 5, 0)) == 0

    def test_adjunction_identity(self):
        # 2g - 2 = D.D + D.K with K = -2*C0 - (e+2)*f, expanded by bilinearity.
        for d in grid(a_min=1):
            self_int = -d.e * d.a * d.a + 2 * d.a * d.b
            canon_int = d.a * d.e - 2 * d.a - 2 * d.b
            assert 2 * surfaces.arith_genus(d) - 2 == self_int + canon_int

    def test_parity(self):
        for d in grid(a_min=1):
            assert ((d.a - 1) * (2 * d.b - d.a * d.e - 2)) % 2 == 0

    def test_rejects_fiber_classes(self):
        with pytest.raises(ValueError):
            surfaces.arith_genus(DivisorClass(0, 3, 1))


class TestSmoothIrreducible:
    def test_truth_table_samples(self):
        assert surfaces.smooth_irreducible_exists(DivisorClass(0, 1, 2))
        assert surfaces.smooth_irreducible_exists(DivisorClass(1, 7, 2))
        assert surfaces.smooth_irreducible_exists(DivisorClass(3, 1, 0))
        assert surfaces.smooth_irreducible_exists(DivisorClass(3, 3, 1))
        assert surfaces.smooth_irreducible_exists(DivisorClass(2, 4, 2))
        assert not surfaces.smooth_irreducible_exists(DivisorClass(2, 1, 1))
        assert not surfaces.smooth_irreducible_exists(DivisorClass(3, 0, 0))
        assert not surfaces.smooth_irreducible_exists(DivisorClass(0, 2, 1))

    def test_matches_rule(self):
        for d in grid():
            want = (
                (d.a == 0 and d.b == 1)
                or (d.a == 1)
                or (d.a >= 2 and d.e == 0 and d.b >= 1)
                or (d.a >= 2 and d.e >= 1 and d.b >= d.a * d.e)
            )
            assert surfaces.smooth_irreducible_exists(d) == want


def assert_certifies(cert, total):
    assert cert.d1 + cert.d2 == total
    assert surfaces.smooth_irreducible_exists(cert.d1)
    assert surfaces.smooth_irreducible_exists(cert.d2)
    assert cert.intersection == surfaces.intersect(cert.d1, cert.d2) >= 3


class TestFindStableSplit:
    def test_canonical_splits(self):
        cases = [
            ((4, 9, 2), (4, 8, 2), (0, 1, 2), 4),
            ((4, 4, 1), (1, 1, 1), (3, 3, 1), 3),
            ((2, 5, 1), (1, 0, 1), (1, 5, 1), 4),
        ]
        for total, w1, w2, n in cases:
            cert = surfaces.find_stable_split(DivisorClass(*total))
            assert cert.d1.as_tuple() == w1
            assert cert.d2.as_tuple() == w2
            assert cert.intersection == n

    def test_rejects_low_genus(self):
        with pytest.raises(ValueError, match="genus 1"):
            surfaces.find_stable_split(DivisorClass(3, 3, 1))

    def test_rejects_thin_classes(self):
        with pytest.raises(ValueError, match="a >= 2"):
            surfaces.find_stable_split(DivisorClass(1, 9, 1))
        with pytest.raises(ValueError, match="smooth irreducible"):
            surfaces.find_stable_split(DivisorClass(3, 2, 1))

    def test_certificate_properties_small_grid(self):
        for total in grid(a_max=6, b_max=18, e_max=2, a_min=2):
            if is_valid(total):
                assert_certifies(surfaces.find_stable_split(total), total)

    def test_equals_the_search_on_every_valid_class(self):
        checked = 0
        for total in grid(a_max=30, b_max=200, e_max=6, a_min=2):
            if is_valid(total):
                checked += 1
                assert surfaces.find_stable_split(total) == naive_stable_split(total), total
        assert checked == 30_996

    @given(e=st.integers(0, MAX // 2), a=st.integers(2, MAX), b=st.integers(1, MAX))
    @example(e=1, a=MAX, b=MAX)
    @example(e=0, a=MAX, b=MAX)
    @example(e=1, a=2, b=MAX)
    @example(e=MAX // 2, a=2, b=MAX - 1)
    def test_certificate_properties_up_to_the_input_ceiling(self, e, a, b):
        # Few random classes are smooth (b >= ae once e >= 1), so each
        # draw is moved onto that range with a, b <= 2**63 - 1: a is
        # lowered to at most MAX // e (>= 2, as e <= MAX // 2), and b
        # raised to at least ae.
        if e:
            a = min(a, MAX // e)
            b = max(b, a * e)
        total = DivisorClass(a, b, e)
        if is_valid(total):
            assert_certifies(surfaces.find_stable_split(total), total)

    def test_to_dict(self):
        cert = surfaces.find_stable_split(DivisorClass(4, 9, 2))
        assert cert.to_dict() == {"d1": [4, 8, 2], "d2": [0, 1, 2], "intersection": 4}

