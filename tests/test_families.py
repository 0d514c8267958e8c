"""Tests for the AP / density layer: exact progressions, proxies, small Ramsey searches."""

import json
import random
import tracemalloc
from bisect import bisect_right
from fractions import Fraction
from pathlib import Path

import pytest

from aporbit import families
from aporbit.errors import BudgetExceededError, InvalidArgumentError
from aporbit.families import (
    APWitness,
    HitSet,
    coloring_avoids_progressions,
    density_report,
    find_ap,
    longest_ap,
    szemeredi_r,
    szemeredi_r_naive,
    vdw_check,
    verify_witness,
)


# ---------------------------------------------------------------------------
# independent oracle: cubic scan over all (initial, step) pairs


def naive_longest_ap(elements: frozenset[int]) -> tuple[int, int, int] | None:
    """(length, step, initial) of the longest AP in `elements`, by brute force.

    Ties go to the smallest step, then the smallest initial term; a
    singleton has step 1, and the empty set gives None.
    """
    if not elements:
        return None
    elems = sorted(elements)
    best = (1, -1, -elems[0])  # maximised: longest, then smallest step and initial
    for a in elems:
        for b in elems:
            if b <= a:
                continue
            step = b - a
            length = 2
            nxt = b + step
            while nxt in elements:
                length += 1
                nxt += step
            best = max(best, (length, -step, -a))
    return best[0], -best[1], -best[2]


def random_hitset(rng: random.Random, horizon: int) -> HitSet:
    density = rng.uniform(0.05, 0.6)
    elems = [n for n in range(horizon + 1) if rng.random() < density]
    return HitSet.from_iterable(elems, horizon=horizon)


# ---------------------------------------------------------------------------
# HitSet basics


class TestHitSet:
    def test_from_iterable_sorts_and_dedups(self):
        s = HitSet.from_iterable([5, 1, 5, 3])
        assert list(s) == [1, 3, 5]
        assert s.horizon == 5
        assert len(s) == 3
        assert 3 in s and 4 not in s

    def test_empty(self):
        s = HitSet.from_iterable([])
        assert len(s) == 0
        assert s.horizon == 0

    def test_rejects_negative(self):
        with pytest.raises(InvalidArgumentError):
            HitSet.from_iterable([-1, 2])

    def test_rejects_element_beyond_horizon(self):
        with pytest.raises(InvalidArgumentError):
            HitSet.from_iterable([3, 8], horizon=5)

    def test_rejects_unsorted_direct_construction(self):
        with pytest.raises(InvalidArgumentError):
            HitSet(elements=(3, 1), horizon=3)


# ---------------------------------------------------------------------------
# longest_ap / find_ap / verify_witness


class TestLongestAP:
    def test_mixed_set(self):
        s = HitSet.from_iterable([1, 2, 3, 5, 7, 9])
        w = longest_ap(s)
        assert (w.initial, w.step, w.length) == (1, 2, 5)

    def test_empty_set(self):
        assert longest_ap(HitSet.from_iterable([])) is None

    def test_pure_progression(self):
        w = longest_ap(HitSet.from_iterable([4, 8, 12, 16]))
        assert (w.initial, w.step, w.length) == (4, 4, 4)

    def test_singleton(self):
        w = longest_ap(HitSet.from_iterable([10]))
        assert (w.initial, w.step, w.length) == (10, 1, 1)

    def test_witness_terms_are_members(self):
        rng = random.Random(20210)
        for _ in range(50):
            s = random_hitset(rng, rng.randint(0, 120))
            w = longest_ap(s)
            if w is None:
                assert len(s) == 0
                continue
            assert verify_witness(w, s)
            assert all(t in s for t in w.terms())

    def test_matches_naive_oracle(self):
        rng = random.Random(4177)
        for _ in range(120):
            s = random_hitset(rng, rng.randint(0, 150))
            w = longest_ap(s)
            got = None if w is None else (w.length, w.step, w.initial)
            assert got == naive_longest_ap(frozenset(s))

    def test_monotone_under_inclusion(self):
        rng = random.Random(998)
        for _ in range(40):
            big = random_hitset(rng, 100)
            sub = HitSet.from_iterable(
                [e for e in big if rng.random() < 0.7], horizon=big.horizon
            )
            len_sub = 0 if longest_ap(sub) is None else longest_ap(sub).length
            len_big = 0 if longest_ap(big) is None else longest_ap(big).length
            assert len_sub <= len_big

    @staticmethod
    def spread_set(rng: random.Random, n: int, span: int) -> HitSet:
        """n elements from 0 to span, both ends included."""
        inner = rng.sample(range(1, span), n - 2)
        return HitSet.from_iterable([0, span, *inner])

    def test_both_paths_match_tie_break_oracle(self):
        # both kernels on every set, whichever side of the switch it falls on
        rng = random.Random(7101)
        for _ in range(150):
            n = rng.randint(2, 30)
            s = self.spread_set(rng, n, rng.randint(n - 1, 80 * n))
            expected = naive_longest_ap(frozenset(s))
            assert families._longest_ap_dense(s.elements) == expected
            assert families._longest_ap_sparse(s.elements, frozenset(s)) == expected

    def test_matches_tie_break_oracle_at_the_switch(self):
        rng = random.Random(7102)
        per = families._DENSE_SPAN_PER_ELEMENT
        for _ in range(60):
            n = rng.randint(2, 25)
            for span in (per * n - 1, per * n, per * n + 1):
                s = self.spread_set(rng, n, span)
                w = longest_ap(s)
                assert (w.length, w.step, w.initial) == naive_longest_ap(frozenset(s))

    def test_ties_between_maximal_progressions(self):
        # step 4 from 20, step 3 from 41 and 61: the smallest step, then initial, wins
        for scale in (1, 1000):  # dense, then sparse
            elems = [scale * e for e in (20, 24, 28, 61, 64, 67, 41, 44, 47)]
            w = longest_ap(HitSet.from_iterable(elems))
            assert (w.length, w.step, w.initial) == (3, 3 * scale, 41 * scale)
        rng = random.Random(7103)
        for _ in range(60):
            length = rng.randint(2, 5)
            step = rng.randint(1, 6)
            starts = rng.sample(range(0, 40 * step), rng.randint(2, 4))
            elems = {a + j * step for a in starts for j in range(length)}
            elems |= {a + j * (step + 1) for a in rng.sample(range(300), 2) for j in range(length)}
            s = HitSet.from_iterable(elems)
            w = longest_ap(s)
            assert (w.length, w.step, w.initial) == naive_longest_ap(frozenset(s))

    def test_memory_stays_small_on_large_sets(self):
        # the pair table this replaced peaked near 320 MB at 3000 elements.  The
        # sparse set carries a planted 60-term progression, as the benchmark's
        # planted sets do: it cuts the walk short, which tracing makes slow,
        # and leaves the memory the walk needs unchanged.
        rng = random.Random(7104)
        n = 3000
        per = families._DENSE_SPAN_PER_ELEMENT
        for span, planted in ((4 * n, 0), ((per + 1) * n, 60)):  # dense, then sparse
            elems = set(rng.sample(range(span), n - planted)) | {97 * j for j in range(planted)}
            s = HitSet.from_iterable(elems)
            assert (s.elements[-1] - s.elements[0] > per * len(s)) == (planted > 0)
            tracemalloc.start()
            try:
                w = longest_ap(s)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert verify_witness(w, s)
            assert peak < 5 * 2**20


class TestFindAP:
    def test_lexicographic_tie_break(self):
        # among all 3-term APs in {1,2,3,5,7,9} the (step, initial)-least is (1, 1)
        w = find_ap(HitSet.from_iterable([1, 2, 3, 5, 7, 9]), 3)
        assert (w.initial, w.step, w.length) == (1, 1, 3)

    def test_length_one_convention(self):
        w = find_ap(HitSet.from_iterable([10]), 1)
        assert (w.initial, w.step, w.length) == (10, 1, 1)

    def test_absent_length(self):
        assert find_ap(HitSet.from_iterable([2, 4, 7]), 3) is None

    def test_rejects_nonpositive_length(self):
        with pytest.raises(InvalidArgumentError):
            find_ap(HitSet.from_iterable([1]), 0)

    def test_agrees_with_longest(self):
        rng = random.Random(5521)
        for _ in range(40):
            s = random_hitset(rng, 80)
            w = longest_ap(s)
            if w is None:
                continue
            for length in range(1, w.length + 1):
                found = find_ap(s, length)
                assert found is not None and verify_witness(found, s)
            assert find_ap(s, w.length + 1) is None


class TestVerifyWitness:
    def test_accepts_genuine(self):
        s = HitSet.from_iterable([3, 6, 9, 12])
        assert verify_witness(APWitness(3, 3, 4), s)

    def test_rejects_missing_term(self):
        s = HitSet.from_iterable([3, 6, 12])
        assert not verify_witness(APWitness(3, 3, 4), s)

    def test_degenerate_parameters_rejected_at_construction(self):
        with pytest.raises(InvalidArgumentError):
            APWitness(1, 0, 2)
        with pytest.raises(InvalidArgumentError):
            APWitness(1, 1, 0)
        with pytest.raises(InvalidArgumentError):
            APWitness(-1, 1, 1)


# ---------------------------------------------------------------------------
# density proxies


def scan_prefix_ratios(hits: HitSet) -> tuple[Fraction, Fraction]:
    """(lower, upper) prefix-ratio proxies, by trying every n in [ceil(h/2), h]."""
    h = hits.horizon
    ratios = [
        Fraction(bisect_right(hits.elements, n), n + 1) for n in range((h + 1) // 2, h + 1)
    ]
    return min(ratios), max(ratios)


class TestDensity:
    def test_prefix_ratios_match_full_scan(self):
        rng = random.Random(3303)
        for trial in range(300):
            horizon = rng.randint(0, 120) * 2 + trial % 2  # odd and even horizons
            if trial % 10 == 0:
                s = HitSet.from_iterable([], horizon=horizon)
            else:
                k = rng.randint(1, min(horizon + 1, rng.choice((3, 20, 200))))
                s = HitSet.from_iterable(rng.sample(range(horizon + 1), k), horizon=horizon)
            rep = density_report(s, window=rng.randint(1, horizon + 1))
            assert (rep.lower_proxy, rep.upper_proxy) == scan_prefix_ratios(s)

    def test_long_horizon_is_cheap(self):
        # a scan of every n up to the horizon would not finish
        rep = density_report(HitSet.from_iterable([0, 10**12]), window=1)
        assert rep.lower_proxy == Fraction(1, 10**12)
        assert rep.upper_proxy == Fraction(2, 10**12 + 1)

    def test_even_numbers_near_half(self):
        evens = HitSet.from_iterable(range(0, 101, 2))
        rep = density_report(evens, window=10)
        lo = Fraction(1, 2) - Fraction(1, 50)
        hi = Fraction(1, 2) + Fraction(1, 50)
        for value in (rep.lower_proxy, rep.upper_proxy, rep.banach_upper_proxy):
            assert lo <= value <= hi

    def test_empty_set_is_zero(self):
        rep = density_report(HitSet.from_iterable([], horizon=50), window=10)
        assert rep.lower_proxy == 0
        assert rep.upper_proxy == 0
        assert rep.banach_upper_proxy == 0

    def test_initial_block_saturates_banach(self):
        s = HitSet.from_iterable(range(10), horizon=100)
        rep = density_report(s, window=10)
        assert rep.banach_upper_proxy == 1
        assert rep.lower_proxy <= rep.upper_proxy

    def test_window_validation(self):
        s = HitSet.from_iterable([1, 2], horizon=10)
        with pytest.raises(InvalidArgumentError):
            density_report(s, window=0)
        with pytest.raises(InvalidArgumentError):
            density_report(s, window=12)

    def test_values_are_exact_fractions_in_unit_interval(self):
        rng = random.Random(2024)
        for _ in range(40):
            s = random_hitset(rng, rng.randint(10, 200))
            w = rng.randint(1, s.horizon + 1)
            rep = density_report(s, window=w)
            for value in (rep.lower_proxy, rep.upper_proxy, rep.banach_upper_proxy):
                assert isinstance(value, Fraction)
                assert 0 <= value <= 1
            assert rep.lower_proxy <= rep.upper_proxy

    def test_banach_window_maximum_matches_brute_force(self):
        rng = random.Random(640)
        for _ in range(40):
            s = random_hitset(rng, rng.randint(10, 120))
            w = rng.randint(1, s.horizon)
            rep = density_report(s, window=w)
            elems = set(s)
            brute = max(
                Fraction(sum(1 for e in elems if k <= e < k + w), w)
                for k in range(0, s.horizon - w + 2)
            )
            assert rep.banach_upper_proxy == brute

    def test_banach_stable_under_right_shift(self):
        # translating a set right by c moves the proxy by at most c/window
        rng = random.Random(808)
        for _ in range(25):
            s = random_hitset(rng, 100)
            w = rng.randint(2, 40)
            c = rng.randint(1, 10)
            shifted = HitSet.from_iterable([e + c for e in s], horizon=s.horizon + c)
            a = density_report(s, window=w).banach_upper_proxy
            b = density_report(shifted, window=w).banach_upper_proxy
            assert abs(a - b) <= Fraction(c, w)


# ---------------------------------------------------------------------------
# Szemerédi-style exact searches


class TestSzemerediR:
    def test_r3_of_five(self):
        assert szemeredi_r(5, 3) == 4
        # {1, 2, 4, 5} is a 3-AP-free witness of that size
        s = HitSet.from_iterable([1, 2, 4, 5])
        assert find_ap(s, 3) is None

    def test_r5_of_four(self):
        # no 5-term AP fits in [1, 4] at all, so the whole interval qualifies
        assert szemeredi_r(4, 5) == 4

    def test_matches_naive_oracle_small(self):
        for n in range(1, 11):
            assert szemeredi_r(n, 3) == szemeredi_r_naive(n, 3)
        assert szemeredi_r(9, 3) == szemeredi_r_naive(9, 3)

    def test_k4_matches_naive(self):
        for n in range(1, 9):
            assert szemeredi_r(n, 4) == szemeredi_r_naive(n, 4)

    def test_matches_reference_table(self):
        # perfbench/reference.json was computed by a different exhaustive search
        path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
        table = json.loads(path.read_text())["r_k"]
        for k in (3, 4):
            assert [szemeredi_r(n, k) for n in range(1, 26)] == table[str(k)]

    def test_monotone_in_n(self):
        values = [szemeredi_r(n, 3) for n in range(1, 13)]
        assert all(b - a in (0, 1) for a, b in zip(values, values[1:]))

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            szemeredi_r(26, 3)
        assert szemeredi_r(30, 3, budget=30) >= szemeredi_r(25, 3)

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            szemeredi_r(0, 3)
        with pytest.raises(InvalidArgumentError):
            szemeredi_r(5, 1)


# ---------------------------------------------------------------------------
# van der Waerden certificates


class TestVdwCheck:
    def test_eight_is_colorable(self):
        res = vdw_check(8, 3)
        assert not res.forced
        assert res.coloring is not None and len(res.coloring) == 8
        assert coloring_avoids_progressions(res.coloring, 3)

    def test_lex_first_counterexample(self):
        assert vdw_check(8, 3).coloring == "11001100"

    def test_nine_is_forced(self):
        res = vdw_check(9, 3)
        assert res.forced
        assert res.coloring is None

    def test_tiny_case(self):
        res = vdw_check(2, 3)
        assert not res.forced
        assert coloring_avoids_progressions(res.coloring, 3)

    def test_forced_is_monotone_in_n(self):
        assert vdw_check(10, 3, budget=12).forced
        assert vdw_check(11, 3, budget=12).forced

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            vdw_check(13, 3)

    def test_avoid_checker_rejects_monochromatic_run(self):
        assert not coloring_avoids_progressions("111", 3)
        assert not coloring_avoids_progressions("10101", 3)  # 1,3,5 all "1"... step 2
        assert coloring_avoids_progressions("1100", 3)

    def test_counterexamples_certified_when_present(self):
        for n in range(1, 9):
            res = vdw_check(n, 3)
            if not res.forced:
                assert coloring_avoids_progressions(res.coloring, 3)
            else:
                assert res.coloring is None
