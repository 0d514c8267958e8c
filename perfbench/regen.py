"""Rebuild the stored reference values in reference.json by exhaustive search.

    python3 perfbench/regen.py           # recompute and compare with the file
    python3 perfbench/regen.py --write   # recompute and overwrite the file

Written apart from `aporbit.families`, with other algorithms:

* r_k(n), the largest subset of {1..n} with no k-term progression, uses
  r_k(n) in {r_k(n-1), r_k(n-1) + 1}: a set of size r_k(n-1) + 1 must
  contain n, so one exhaustive existence search per n settles it.  The
  search places elements from n downwards and keeps, as a bit mask, the
  elements each choice forbids.
* W(k;2), the least n with every 2-colouring of {1..n} holding a
  monochromatic k-term progression, is found by a depth-first search over
  colourings of 1, 2, ... that extends a colouring only while it stays
  progression-free; W is one more than the longest colouring reached.
  Colour symmetry fixes the colour of 1.
"""

import argparse
import json
import sys
import time
from pathlib import Path

FILE = Path(__file__).with_name("reference.json")
N_MAX = 25
KS = (3, 4)


def _forbid_tables(n: int, k: int) -> list:
    """table[a]: the masks of the other terms of each k-progression in
    {1..n} whose smallest term is a.  Elements are placed from n down, so
    when a is placed every other term of those progressions is decided."""
    table = [[] for _ in range(n + 1)]
    for d in range(1, n):
        for a in range(1, n - (k - 1) * d + 1):
            terms = [a + j * d for j in range(k)]
            mask = 0
            for t in terms[1:]:
                mask |= 1 << t
            table[a].append(mask)
    return table


def has_free_set(n: int, k: int, size: int) -> bool:
    """Is there a k-progression-free subset of {1..n} of the given size?"""
    table = _forbid_tables(n, k)

    def place(x: int, chosen: int, count: int) -> bool:
        if count == size:
            return True
        if count + x < size:
            return False
        if all(chosen & m != m for m in table[x]):
            if place(x - 1, chosen | (1 << x), count + 1):
                return True
        return place(x - 1, chosen, count)

    # a set of this size that avoided n would already fit in {1..n-1}
    return place(n - 1, 1 << n, 1)


def szemeredi_numbers(k: int, n_max: int) -> list:
    out = []
    best = 0
    for n in range(1, n_max + 1):
        if has_free_set(n, k, best + 1):
            best += 1
        out.append(best)
    return out


def van_der_waerden(k: int) -> int:
    # (next element, mask of colour-1 elements, mask of colour-0 elements);
    # colour symmetry fixes element 1 to colour 1
    longest = 1
    stack = [(2, 1 << 1, 0)]
    while stack:
        x, ones, zeros = stack.pop()
        longest = max(longest, x - 1)
        for colour in (0, 1):
            mine = ones if colour else zeros
            closes = any(
                all(mine >> (x - j * d) & 1 for j in range(1, k))
                for d in range(1, (x - 1) // (k - 1) + 1)
            )
            if not closes:
                bit = 1 << x
                stack.append((x + 1, ones | bit, zeros) if colour else (x + 1, ones, zeros | bit))
    return longest + 1


def compute() -> dict:
    ref = {"r_k": {}, "W": {}}
    for k in KS:
        t = time.perf_counter()
        ref["r_k"][str(k)] = szemeredi_numbers(k, N_MAX)
        print(f"r_{k}(1..{N_MAX}) in {time.perf_counter() - t:.1f} s", file=sys.stderr)
    for k in KS:
        t = time.perf_counter()
        ref["W"][str(k)] = van_der_waerden(k)
        print(f"W({k};2) in {time.perf_counter() - t:.1f} s", file=sys.stderr)
    return ref


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true", help="overwrite reference.json")
    args = ap.parse_args()
    ref = compute()
    if args.write:
        FILE.write_text(json.dumps(ref) + "\n")
        print(f"wrote {FILE.name}")
        return 0
    stored = json.loads(FILE.read_text())
    if stored != ref:
        print(f"reference.json differs from the recomputed values:\n{json.dumps(ref)}")
        return 1
    print("reference.json matches the recomputed values")
    return 0


if __name__ == "__main__":
    sys.exit(main())
