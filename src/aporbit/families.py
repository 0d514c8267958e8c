"""Arithmetic-progression structure and density proxies for finite integer sets.

Progression lengths count terms throughout this module: a singleton is a
progression of length 1 and {a, a+d, ..., a+(L-1)d} has length L.  Callers
that think in "repeats after the first visit" must add one themselves; the
command-line layer is the only place that translation happens.

Density values are finite-horizon proxies computed by exact rational
counting.  They stand in for limit quantities that no finite observation
can certify, so the field names keep the word "proxy".
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExceededError, InvalidArgumentError


@dataclass(frozen=True)
class HitSet:
    """Strictly increasing non-negative integers observed up to a horizon."""

    elements: tuple[int, ...]
    horizon: int

    def __post_init__(self) -> None:
        elems = tuple(self.elements)
        object.__setattr__(self, "elements", elems)
        if self.horizon < 0:
            raise InvalidArgumentError("horizon must be non-negative")
        prev = -1
        for e in elems:
            if e <= prev:
                raise InvalidArgumentError("elements must be strictly increasing")
            prev = e
        if elems and (elems[0] < 0 or elems[-1] > self.horizon):
            raise InvalidArgumentError("elements must lie in [0, horizon]")
        object.__setattr__(self, "_members", frozenset(elems))

    @classmethod
    def from_iterable(cls, values, horizon: int | None = None) -> "HitSet":
        elems = tuple(sorted(set(values)))
        if horizon is None:
            horizon = elems[-1] if elems else 0
        return cls(elems, horizon)

    def __contains__(self, n: int) -> bool:
        return n in self._members

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


@dataclass(frozen=True)
class APWitness:
    """A certified arithmetic progression initial, initial+step, ..."""

    initial: int
    step: int
    length: int

    def __post_init__(self) -> None:
        if self.initial < 0:
            raise InvalidArgumentError("initial term must be non-negative")
        if self.step < 1:
            raise InvalidArgumentError("step must be positive")
        if self.length < 1:
            raise InvalidArgumentError("length counts terms and must be >= 1")

    def terms(self) -> tuple[int, ...]:
        return tuple(self.initial + j * self.step for j in range(self.length))


def verify_witness(witness: APWitness, hits: HitSet) -> bool:
    """Term-by-term membership check, independent of any search code."""
    return all(t in hits for t in witness.terms())


# Above this many positions per element the bitset's ANDs cost more than
# walking the maximal progressions pair by pair (a cost model, not an option).
_DENSE_SPAN_PER_ELEMENT = 32


def longest_ap(hits: HitSet) -> APWitness | None:
    """Longest progression contained in the set.

    Ties are broken by smallest step, then smallest initial term.  A
    singleton set yields a length-1 witness with step 1; the empty set
    yields None.
    """
    elems = hits.elements
    if not elems:
        return None
    if len(elems) == 1:
        return APWitness(elems[0], 1, 1)
    if elems[-1] - elems[0] > _DENSE_SPAN_PER_ELEMENT * len(elems):
        length, step, initial = _longest_ap_sparse(elems, hits._members)
    else:
        length, step, initial = _longest_ap_dense(elems)
    return APWitness(initial, step, length)


def _longest_ap_dense(elems) -> tuple[int, int, int]:
    """Bitset search over the set shifted by its minimum.

    Bit a of `run` says that a, a + step, ..., a + (length - 1)·step are all
    in the set.  Steps go up, and a step is kept only when it is strictly
    longer, so the smallest step wins a tie; the lowest bit of the last
    non-empty `run` is the smallest initial term for that step.
    """
    lo = elems[0]
    span = elems[-1] - lo
    bits = 0
    for e in elems:
        bits |= 1 << (e - lo)
    best = (1, 1, lo)
    step = 1
    while best[0] * step <= span:
        run, length = bits, 1
        while longer := run & (bits >> (length * step)):
            run, length = longer, length + 1
        if length > best[0]:
            best = (length, step, lo + (run & -run).bit_length() - 1)
        step += 1
    return best


def _longest_ap_sparse(elems, members) -> tuple[int, int, int]:
    """Walk each maximal progression once: O(n^2) time and O(n) memory.

    A pair (a, b) starts a walk only when a - (b - a) is not in the set, so
    every (element, step) pair is visited once (cf. J. Erickson, "Finding
    longest arithmetic progressions", 1999).
    """
    last = elems[-1]
    best = (1, 1, elems[0])
    for i, a in enumerate(elems):
        for b in elems[i + 1 :]:
            step = b - a
            if (best[0] - 1) * step > last - a:
                break
            if a - step in members:
                continue
            length, nxt = 2, b + step
            while nxt in members:
                length, nxt = length + 1, nxt + step
            if length > best[0] or (length == best[0] and (step, a) < best[1:]):
                best = (length, step, a)
    return best


def find_ap(hits: HitSet, length: int) -> APWitness | None:
    """First progression of exactly the requested length.

    Enumeration order is lexicographic in (step, initial).  Length 1 picks
    the smallest element with the conventional step 1.
    """
    if length < 1:
        raise InvalidArgumentError("length must be >= 1")
    if len(hits) < length:
        return None
    elems = hits.elements
    if length == 1:
        return APWitness(elems[0], 1, 1)
    max_step = (elems[-1] - elems[0]) // (length - 1)
    for step in range(1, max_step + 1):
        reach = (length - 1) * step
        for a in elems:
            if a + reach > elems[-1]:
                break
            if all(a + j * step in hits for j in range(1, length)):
                return APWitness(a, step, length)
    return None


@dataclass(frozen=True)
class DensityEstimate:
    """Finite-horizon density proxies.

    lower/upper proxies scan prefix ratios |S cap [0,n]|/(n+1) over the
    second half of the horizon; the windowed proxy maximises over blocks
    of the given window length.  For windows that are small relative to
    the horizon the three values sit in the familiar order; a window
    comparable to the horizon can pull the windowed value below the upper
    proxy, so no ordering is enforced here.
    """

    lower_proxy: Fraction
    upper_proxy: Fraction
    banach_upper_proxy: Fraction


def density_report(hits: HitSet, window: int) -> DensityEstimate:
    h = hits.horizon
    if window < 1 or window > h + 1:
        raise InvalidArgumentError("window must lie in [1, horizon+1]")
    elems = hits.elements
    # prefix ratios over n in [ceil(h/2), h], compared by cross-multiplication.
    # Between elements the count is constant and the ratio falls, so the
    # maximum sits at ceil(h/2) or an element, the minimum at ceil(h/2),
    # just before an element, or at h.
    start = (h + 1) // 2
    later = elems[bisect_right(elems, start) :]
    lo_num, lo_den = 1, 0  # +infinity
    hi_num, hi_den = -1, 1
    for n in {start, h, *later, *(e - 1 for e in later)}:
        c = bisect_right(elems, n)
        if c * lo_den < lo_num * (n + 1):
            lo_num, lo_den = c, n + 1
        if c * hi_den > hi_num * (n + 1):
            hi_num, hi_den = c, n + 1
    best = 0
    if elems:
        starts = {min(e, h + 1 - window) for e in elems}
        for k in starts:
            c = bisect_right(elems, k + window - 1) - bisect_left(elems, k)
            if c > best:
                best = c
    return DensityEstimate(
        lower_proxy=Fraction(lo_num, lo_den),
        upper_proxy=Fraction(hi_num, hi_den) if hi_den else Fraction(0),
        banach_upper_proxy=Fraction(best, window),
    )


def szemeredi_r(n: int, k: int, budget: int = 25) -> int:
    """Largest size of a k-progression-free subset of {1..n}, exactly.

    r(1), ..., r(n) are found in turn.  Since r(top) is r(top - 1) or one
    more, each step asks whether {1..top} holds a free subset of the larger
    size, by a bitmask branch and bound: element x joins unless a
    progression closing at x is already chosen, and a branch is cut when
    even r(top - x + 1) more elements (x..top is a translate of
    1..top-x+1) cannot reach that size.  Exponential in the worst case,
    hence the budget; the result is a number, so the search order cannot
    change it.
    """
    if n < 1:
        raise InvalidArgumentError("n must be positive")
    if k < 2:
        raise InvalidArgumentError("progression length must be >= 2")
    if n > budget:
        raise BudgetExceededError(f"n={n} exceeds the search budget {budget}")
    if k > n:
        return n
    # closing[x]: the other k-1 terms of each progression whose largest term
    # is x, as a mask with bit i-1 for element i
    closing = [
        [sum(1 << (x - j * d - 1) for j in range(1, k)) for d in range(1, (x - 1) // (k - 1) + 1)]
        for x in range(n + 1)
    ]
    r = [0] * (n + 1)

    def reaches(top: int, x: int, chosen: int, size: int) -> bool:
        if size == r[top]:
            return True
        if size + r[top - x + 1] < r[top]:
            return False
        for m in closing[x]:
            if chosen & m == m:
                break
        else:
            if reaches(top, x + 1, chosen | 1 << (x - 1), size + 1):
                return True
        return reaches(top, x + 1, chosen, size)

    for top in range(1, n + 1):
        r[top] = r[top - 1] + 1  # an upper bound until the search fails
        if not reaches(top, 1, 0, 0):
            r[top] -= 1
    return r[n]


def _progression_masks(n: int, k: int) -> list[int]:
    # bit i-1 stands for element i
    out = []
    for d in range(1, (n - 1) // (k - 1) + 1):
        for a in range(1, n - (k - 1) * d + 1):
            m = 0
            for j in range(k):
                m |= 1 << (a + j * d - 1)
            out.append(m)
    return out


def szemeredi_r_naive(n: int, k: int) -> int:
    """Exhaustive oracle: scans all 2^n subsets as bitmasks.

    Kept deliberately separate from the branch-and-bound path so the two
    can confirm each other in tests.
    """
    if n < 1:
        raise InvalidArgumentError("n must be positive")
    if k < 2:
        raise InvalidArgumentError("progression length must be >= 2")
    if k > n:
        return n
    masks = _progression_masks(n, k)
    best = 0
    for subset in range(1 << n):
        c = subset.bit_count()
        if c <= best:
            continue
        if any(subset & m == m for m in masks):
            continue
        best = c
    return best


def vdw_check(n: int, k: int, budget: int = 12) -> str | None:
    """The first two-coloring of {1..n} with no monochromatic k-progression, or None.

    The scan is exhaustive, in lexicographic order, element i at string
    position i-1.  None means every coloring has one: the progression is
    forced (an exhaustively verified fact, not a table lookup).
    """
    if n < 1:
        raise InvalidArgumentError("n must be positive")
    if k < 2:
        raise InvalidArgumentError("progression length must be >= 2")
    if n > budget:
        raise BudgetExceededError(f"n={n} exceeds the search budget {budget}")
    masks = _progression_masks(n, k)
    for bits in range(1 << n):
        good = True
        for m in masks:
            x = bits & m
            if x == m or x == 0:
                good = False
                break
        if good:
            return "".join("1" if bits >> i & 1 else "0" for i in range(n))
    return None


def coloring_avoids_progressions(coloring: str, k: int) -> bool:
    """Independent verifier: no color class contains a k-progression."""
    if k < 2:
        raise InvalidArgumentError("progression length must be >= 2")
    n = len(coloring)
    for d in range(1, (n - 1) // (k - 1) + 1):
        for a in range(1, n - (k - 1) * d + 1):
            if len({coloring[a + j * d - 1] for j in range(k)}) == 1:
                return False
    return True
