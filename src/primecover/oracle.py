"""Brute-force ground truth for small variable counts.

``all_primes`` enumerates every prime implicant by iterative pairwise
merging of minterm groups; the care-true region is the complement of
the off-set.  Nothing here shares logic with the indicator-based fast
path beyond the cube carriers, so the two can check each other.
"""

from __future__ import annotations

from collections.abc import Sequence

from .bitcube import BitVec, Cube, FrozenRecord, cube_contains, minterm_to_cube
from .errors import InconsistentFunction
from .pla_io import LogicFunction

DC = 2

_PRIMES_VAR_CAP = 14
_EQUIV_VAR_CAP = 20
_MIN_COVER_VAR_CAP = 6


def _off_values(f: LogicFunction) -> set[int]:
    out: set[int] = set()
    for z in f.off:
        out.update(m.value for m in z.minterms())
    return out


def all_primes(f: LogicFunction) -> set[Cube]:
    """Every prime implicant of the complement of the off-set."""
    n = f.n
    if n > _PRIMES_VAR_CAP:
        raise ValueError(f"all_primes handles at most {_PRIMES_VAR_CAP} variables, got {n}")
    off = _off_values(f)
    if not off:
        return {Cube.universal(n)}
    true_values = [v for v in range(1 << n) if v not in off]
    current: set[tuple[int, int]] = {(v, 0) for v in true_values}
    primes: set[tuple[int, int]] = set()
    while current:
        merged: set[tuple[int, int]] = set()
        nxt: set[tuple[int, int]] = set()
        for v, dc in current:
            for p in range(n):
                bit = 1 << p
                if dc & bit or v & bit:
                    continue
                partner = (v | bit, dc)
                if partner in current:
                    nxt.add((v, dc | bit))
                    merged.add((v, dc))
                    merged.add(partner)
        primes.update(c for c in current if c not in merged)
        current = nxt
    full = (1 << n) - 1
    return {
        Cube(BitVec(n, (~v | dc) & full), BitVec(n, v | dc)) for v, dc in primes
    }


def primes_containing(primes: set[Cube], P: BitVec) -> set[Cube]:
    point = minterm_to_cube(P)
    return {q for q in primes if cube_contains(q, point)}


class TruthTable(FrozenRecord):
    """Per-minterm values 0, 1 or DC over all 2**n points."""

    __slots__ = ("n", "values")

    def __init__(self, n: int, values: tuple[int, ...]) -> None:
        self._assign(n, values)

    @classmethod
    def from_function(cls, f: LogicFunction) -> TruthTable:
        if f.n > _EQUIV_VAR_CAP:
            raise ValueError(f"truth table cap is {_EQUIV_VAR_CAP} variables, got {f.n}")
        values = [DC] * (1 << f.n)
        for c in f.on:
            for m in c.minterms():
                values[m.value] = 1
        for c in f.off:
            for m in c.minterms():
                if values[m.value] == 1:
                    raise InconsistentFunction(f"minterm {m} is both on and off")
                values[m.value] = 0
        return cls(f.n, tuple(values))


def equivalent(a: Sequence[Cube], b: Sequence[Cube], care: TruthTable) -> bool:
    """True when the two covers agree on every care minterm."""
    if care.n > _EQUIV_VAR_CAP:
        raise ValueError(f"equivalence cap is {_EQUIV_VAR_CAP} variables, got {care.n}")
    for v, val in enumerate(care.values):
        if val == DC:
            continue
        if any(c.covers_value(v) for c in a) != any(c.covers_value(v) for c in b):
            return False
    return True


def minimum_cover_size(f: LogicFunction) -> int:
    """Exact minimum number of primes covering the on-set (small n only)."""
    if f.n > _MIN_COVER_VAR_CAP:
        raise ValueError(
            f"exact minimum cover cap is {_MIN_COVER_VAR_CAP} variables, got {f.n}"
        )
    on_values: list[int] = []
    seen: set[int] = set()
    for c in f.on:
        for m in c.minterms():
            if m.value not in seen:
                seen.add(m.value)
                on_values.append(m.value)
    if not on_values:
        return 0
    primes = sorted(all_primes(f), key=lambda c: (c.left.value, c.right.value))
    index = {v: i for i, v in enumerate(on_values)}
    full_mask = (1 << len(on_values)) - 1
    masks: list[int] = []
    for q in primes:
        mask = 0
        for v in on_values:
            if q.covers_value(v):
                mask |= 1 << index[v]
        if mask:
            masks.append(mask)
    coverers: list[list[int]] = [[] for _ in on_values]
    for mi, mask in enumerate(masks):
        for i in range(len(on_values)):
            if mask >> i & 1:
                coverers[i].append(mi)

    # greedy upper bound
    def greedy() -> int:
        covered = 0
        picks = 0
        while covered != full_mask:
            best = max(masks, key=lambda m: (m & ~covered).bit_count())
            if not best & ~covered:
                break
            covered |= best
            picks += 1
        return picks

    best_size = greedy()

    def search(covered: int, used: int) -> None:
        nonlocal best_size
        if used >= best_size:
            return
        if covered == full_mask:
            best_size = used
            return
        # branch on the uncovered minterm with the fewest coverers
        target = min(
            (i for i in range(len(on_values)) if not covered >> i & 1),
            key=lambda i: len(coverers[i]),
        )
        remaining = full_mask & ~covered
        widest = max((mask & remaining).bit_count() for mask in masks)
        if widest == 0:
            return
        if used + (remaining.bit_count() + widest - 1) // widest >= best_size:
            return
        for mi in sorted(
            coverers[target], key=lambda mi: -(masks[mi] & remaining).bit_count()
        ):
            search(covered | masks[mi], used + 1)

    search(0, 0)
    return best_size
