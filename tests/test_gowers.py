"""Tests for the quantitative growth/bounds layer (all logarithms base 2)."""

import math
import random

import mpmath as mp
import pytest

from aporbit import gowers
from aporbit.errors import DomainError
from aporbit.families import szemeredi_r
from aporbit.gowers import (
    gowers_bound,
    gowers_row,
    gowers_table,
    growth_profile,
    guaranteed_ap_length,
    is_vacuous_length,
    power_identity_residual,
    profile_inverse,
)


# ---------------------------------------------------------------------------
# the growth profile f(t) = t * 2^(-sqrt(log2 log2 log2 t)/2)


class TestGrowthProfile:
    def test_fixed_point_at_four(self):
        # log2 log2 log2 4 = 0, so the damping factor is exactly 1
        assert growth_profile(4) == 4.0

    def test_value_at_sixteen(self):
        # inner logs give 1, so f(16) = 16 / sqrt(2)
        assert growth_profile(16) == pytest.approx(16 / math.sqrt(2), rel=1e-14)

    def test_domain_floor(self):
        with pytest.raises(DomainError):
            growth_profile(3)
        with pytest.raises(DomainError):
            growth_profile(0)

    def test_strictly_increasing_on_integer_grid(self):
        prev = growth_profile(4)
        for t in range(5, 3000):
            cur = growth_profile(t)
            assert cur > prev
            prev = cur
        # profile_inverse caps l at 2^49, so m_l ~ 1.73 l stays below 2^51,
        # where doubles still separate neighbouring values
        rng = random.Random(51)
        for octave in range(12, 51):
            for _ in range(200):
                m = rng.randrange(2**octave, 2 ** (octave + 1))
                assert growth_profile(m) < growth_profile(m + 1)

    def test_growing_bounds_extend_the_verified_grid(self, monkeypatch):
        # the bracket of every l in 4..200 costs a doubling and a bisection
        # of about 2 log2(l) evaluations, and nothing else
        evals = []
        real = gowers.growth_profile

        def counting(t):
            evals.append(t)
            return real(t)

        monkeypatch.setattr(gowers, "growth_profile", counting)
        for l in range(4, 201):
            profile_inverse(l)
        assert len(evals) < 4_000


class TestProfileInverse:
    def test_known_value(self):
        assert profile_inverse(11) == 15

    def test_bracket_property(self):
        # m is the unique integer with f(m) <= l < f(m+1)
        for l in range(4, 201):
            m = profile_inverse(l)
            assert growth_profile(m) <= l * (1 + 1e-9)
            assert growth_profile(m + 1) > l * (1 - 1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            profile_inverse(3)
        assert profile_inverse(2**49) > 2**49
        with pytest.raises(DomainError):
            profile_inverse(2**49 + 1)

    def test_agrees_with_high_precision_oracle(self):
        # 60-digit f(m) <= l < f(m + 1); double rounding first moves m_l
        # near l = 2^40, so the oracle's range stops at 2^36
        def f(t):
            lll = mp.log(mp.log(mp.log(mp.mpf(t), 2), 2), 2)
            return t * mp.power(2, -mp.sqrt(lll) / 2)

        rng = random.Random(36)
        with mp.workdps(60):
            for _ in range(400):
                l = int(2 ** rng.uniform(2, 36))
                m = profile_inverse(l)
                assert f(m) <= l < f(m + 1)

    def test_ratio_growth(self):
        # m_l / l creeps upward as the damping factor decays
        ratios = [profile_inverse(10**j) / 10**j for j in range(1, 7)]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))


# ---------------------------------------------------------------------------
# the power identity (2^L)^(1/2) == 2^(L/2) as a float-discipline canary


class TestPowerIdentity:
    def test_exact_at_round_values(self):
        assert power_identity_residual(4) == 0.0
        assert power_identity_residual(1) == 0.0

    def test_small_at_fractional_values(self):
        assert power_identity_residual(6.25) < 1e-9

    def test_random_inputs_stay_tiny(self):
        rng = random.Random(1905)
        for _ in range(100):
            l3 = rng.uniform(1e-6, 32.0)
            assert power_identity_residual(l3) < 1e-9

    def test_domain(self):
        with pytest.raises(DomainError):
            power_identity_residual(0)
        with pytest.raises(DomainError):
            power_identity_residual(1025)


# ---------------------------------------------------------------------------
# density bound for 3-AP-free sets


class TestGowersBound:
    def test_domain(self):
        with pytest.raises(DomainError):
            gowers_bound(15, 3)
        with pytest.raises(DomainError):
            gowers_bound(16, 1)

    def test_underflow_collapses_to_n_minus_one(self):
        # the shrink exponent 2^-(2^(k+9)) underflows double precision for
        # every k >= 2, so at desk scale the bound reads n - 1 exactly
        assert gowers_bound(16, 3) == 15.0
        assert gowers_bound(2**20, 2) == 2**20 - 1.0

    def test_exact_search_stays_below_bound(self):
        for n in range(16, 26):
            r = szemeredi_r(n, 3)
            assert r <= gowers_bound(n, 3)

    def test_agrees_with_high_precision_oracle(self):
        mp.mp.dps = 3000

        def oracle(n: int, k: int) -> mp.mpf:
            shrink = mp.mpf(2) ** (-(2 ** (k + 9)))
            ll = mp.log(mp.log(mp.mpf(n), 2), 2)
            return 2 ** (mp.log(mp.mpf(n), 2) - shrink * mp.log(ll, 2)) - 1

        for n in (16, 100, 1024, 10**6):
            got = gowers_bound(n, 3)
            assert got == pytest.approx(float(oracle(n, 3)), rel=1e-12)

    def test_oracle_is_strictly_increasing_in_k(self):
        # invisible at double precision, but real: larger k means a smaller
        # shrink exponent, hence a larger bound, always below n - 1
        mp.mp.dps = 3000

        def oracle(n: int, k: int) -> mp.mpf:
            shrink = mp.mpf(2) ** (-(2 ** (k + 9)))
            ll = mp.log(mp.log(mp.mpf(n), 2), 2)
            return 2 ** (mp.log(mp.mpf(n), 2) - shrink * mp.log(ll, 2)) - 1

        b2, b3, b4 = (oracle(1024, k) for k in (2, 3, 4))
        assert b2 < b3 < b4 < 1023


# ---------------------------------------------------------------------------
# guaranteed progression length from an iterated-log budget


class TestGuaranteedLength:
    def test_desk_scale_is_vacuous(self):
        # any n below astronomical size yields k <= 1
        for n in (100, 10**6, 10**300):
            lll = math.log2(math.log2(math.log2(n)))
            k = guaranteed_ap_length(lll) if lll > 0 else None
            if k is not None:
                assert is_vacuous_length(k)

    def test_astronomical_threshold(self):
        # l3 = 2^4096 gives half-log 2048 = 2^11, hence k = 11 - 9 = 2
        assert guaranteed_ap_length(2**4096) == 2
        assert not is_vacuous_length(2)

    def test_domain(self):
        with pytest.raises(DomainError):
            guaranteed_ap_length(0)
        with pytest.raises(DomainError):
            guaranteed_ap_length(1)  # log2(1)/2 = 0 is not a usable budget

    def test_vacuous_flag(self):
        assert is_vacuous_length(1)
        assert is_vacuous_length(0)
        assert is_vacuous_length(-3)
        assert not is_vacuous_length(3)


# ---------------------------------------------------------------------------
# assembled rows


class TestRows:
    def test_row_eleven(self):
        row = gowers_row(11)
        assert row.l == 11
        assert row.m_l == 15
        assert row.f_at_m_l == pytest.approx(10.65242224043657, rel=1e-12)
        # m_l = 15 sits below the bound's domain floor of 16
        assert row.bound_r3 is None
        assert row.k_of_n is None
        assert row.vacuous

    def test_row_with_bound(self):
        row = gowers_row(16)
        assert row.m_l >= 16
        assert row.bound_r3 is not None
        assert row.bound_r3 == pytest.approx(row.m_l - 1, rel=1e-9)
        assert row.vacuous  # desk-scale n never certifies length > 1

    def test_table_ordering(self):
        rows = gowers_table(range(4, 40))
        assert [r.l for r in rows] == list(range(4, 40))
        assert all(a.m_l <= b.m_l for a, b in zip(rows, rows[1:]))

    def test_row_bracket_consistency(self):
        for l in (4, 7, 50, 333):
            row = gowers_row(l)
            assert growth_profile(row.m_l) <= l * (1 + 1e-9)
            assert row.f_at_m_l == growth_profile(row.m_l)
