"""Tests for the exact-integer invariant layer."""

import pytest

from rigidity_sieve import bounds


class TestBrillNoether:
    def test_spot_zero(self):
        assert bounds.brill_noether(9, 8, 3) == 0

    def test_matches_definition_on_grid(self):
        for r in (3, 4, 5, 9):
            for d in range(1, 40):
                for g in range(0, 40):
                    got = bounds.brill_noether(d, g, r)
                    assert got == g - (r + 1) * (g - d + r)

    def test_survivor_example(self):
        assert bounds.brill_noether(30, 34, 9) == -96


class TestEulerNormal:
    def test_space_curves_are_4d(self):
        for d in range(1, 60):
            for g in range(0, 60, 7):
                assert bounds.euler_normal(d, g, 3) == 4 * d

    def test_matches_definition(self):
        for r in (4, 7, 11):
            for d in range(1, 30):
                for g in range(0, 30):
                    got = bounds.euler_normal(d, g, r)
                    assert got == (r + 1) * d - (r - 3) * (g - 1)

    def test_survivor_example(self):
        assert bounds.euler_normal(30, 34, 9) == 102


class TestMaxGenusPi:
    def test_frozen_row_in_3_space(self):
        assert [bounds.max_genus_pi(d, 3) for d in range(3, 10)] == [0, 1, 2, 4, 6, 9, 12]

    def test_matches_definition_on_grid(self):
        for r in range(2, 12):
            for d in range(r, 80):
                m, eps = divmod(d - 1, r - 1)
                want = m * (m - 1) // 2 * (r - 1) + m * eps
                assert bounds.max_genus_pi(d, r) == want

    def test_rejects_small_degree(self):
        with pytest.raises(ValueError):
            bounds.max_genus_pi(2, 3)
        with pytest.raises(ValueError):
            bounds.max_genus_pi(10, 1)

    def test_monotone_in_degree(self):
        for r in (3, 5, 8):
            values = [bounds.max_genus_pi(d, r) for d in range(r, 120)]
            assert values == sorted(values)


class TestCastelnuovoCore:
    def test_definition(self):
        for q in range(0, 12):
            for m in range(0, 12):
                for eps in range(-3, q + 3):
                    assert bounds.castelnuovo_core(m, eps, q) == m * (m - 1) // 2 * q + m * eps

    def test_pi_pi1_pi2_are_the_core_plus_their_corrections(self):
        for alpha in range(3, 20):
            for d in range(alpha + 2, 120):
                p = bounds.castelnuovo_profile(d, alpha)
                m, eps = divmod(d - 1, alpha - 1)
                assert bounds.max_genus_pi(d, alpha) == bounds.castelnuovo_core(m, eps, alpha - 1)
                assert p.pi1 == bounds.castelnuovo_core(p.m1, p.eps1, alpha) + p.m1 + p.mu1
                assert p.pi2 == bounds.castelnuovo_core(p.m2, p.eps2, alpha + 1) + 2 * p.m2 + p.mu2


class TestCastelnuovoProfile:
    def test_reconstruction_identities(self):
        for alpha in range(3, 25):
            for d in range(alpha + 2, 140):
                p = bounds.castelnuovo_profile(d, alpha)
                assert p.alpha == alpha
                assert d - 1 == p.m1 * alpha + p.eps1
                assert 0 <= p.eps1 <= alpha - 1
                assert p.mu1 == (1 if p.eps1 == alpha - 1 else 0)
                assert d - 1 == p.m2 * (alpha + 1) + p.eps2
                assert 0 <= p.eps2 <= alpha
                if p.eps2 == alpha:
                    assert p.mu2 == 2
                elif p.eps2 >= alpha - 2:
                    assert p.mu2 == 1
                else:
                    assert p.mu2 == 0

    def test_genus_cap_chain_is_decreasing(self):
        for alpha in range(3, 25):
            for d in range(alpha + 2, 140):
                p = bounds.castelnuovo_profile(d, alpha)
                assert bounds.max_genus_pi(d, alpha) >= p.pi1 >= p.pi2

    def test_closed_forms(self):
        for alpha in range(3, 20):
            for d in range(alpha + 2, 100):
                p = bounds.castelnuovo_profile(d, alpha)
                assert p.pi1 == p.m1 * (p.m1 - 1) // 2 * alpha + p.m1 * (p.eps1 + 1) + p.mu1
                assert (
                    p.pi2
                    == p.m2 * (p.m2 - 1) // 2 * (alpha + 1) + p.m2 * (p.eps2 + 2) + p.mu2
                )

    def test_spots(self):
        assert bounds.castelnuovo_profile(8, 3).pi1 == 7
        assert bounds.castelnuovo_profile(9, 3).pi1 == 10
        p = bounds.castelnuovo_profile(30, 9)
        assert (p.m1, p.eps1, p.mu1, p.pi1) == (3, 2, 0, 36)
        assert (p.m2, p.eps2, p.mu2, p.pi2) == (2, 9, 2, 34)

    def test_mu_conventions(self):
        # The first convention divides by alpha, the second by alpha + 1.
        for alpha in range(3, 40):
            assert [bounds.mu(eps, alpha, True) for eps in range(alpha)] == [0] * (alpha - 1) + [1]
            assert [bounds.mu(eps, alpha, False) for eps in range(alpha + 1)] == [0] * (alpha - 2) + [1, 1, 2]

    def test_rejects_out_of_domain(self):
        with pytest.raises(ValueError):
            bounds.castelnuovo_profile(4, 2)
        with pytest.raises(ValueError):
            bounds.castelnuovo_profile(4, 3)


class TestQuadricTypes:
    def test_pinned_tables(self):
        assert bounds.quadric_types(8, 7) == []
        assert bounds.quadric_types(8, 8) == [(5, 3)]
        assert bounds.quadric_types(8, 9) == [(4, 4)]
        assert bounds.quadric_types(9, 10) == [(6, 3)]
        assert bounds.quadric_types(9, 11) == []
        assert bounds.quadric_types(9, 12) == [(5, 4)]

    def test_every_type_is_consistent(self):
        for d in range(2, 40):
            for g in range(0, 40):
                for a, b in bounds.quadric_types(d, g):
                    assert a + b == d
                    assert a >= b >= 0
                    assert (a - 1) * (b - 1) == g


class TestImageDim:
    def test_pins(self):
        assert bounds.image_dim_r3(8, 0) == 17
        assert bounds.image_dim_r3(8, 1) == 18
        assert bounds.image_dim_r3(9, 0) == 21
        assert bounds.image_dim_r3(9, 2) == 23

    def test_linear_in_both_arguments(self):
        for d in range(4, 30):
            for h1 in range(0, 5):
                assert bounds.image_dim_r3(d, h1) == 4 * d - 15 + h1

