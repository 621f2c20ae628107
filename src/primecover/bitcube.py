"""Fixed-width bit vectors and positional cubes.

Everything else in the package runs on two carriers.  ``BitVec`` is an
immutable n-bit string; it stores minterms, difference indicators,
literal-position vectors and coverage masks.  ``Cube`` is a pair of
equal-width bit vectors in positional notation: per variable the
(left, right) bit pair encodes 10 for value 0, 01 for value 1 and 11
for a don't care.  A 00 pair is only legal on a value explicitly built
as empty.  ``Slices`` indexes a whole cube list by variable, so that the
cubes meeting a query cube come out of one AND per query literal.

Convention: the leftmost character of any text form is the most
significant bit, so printed values read like product terms over
x1..xn.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence


def _mask(width: int) -> int:
    return (1 << width) - 1


@dataclass(frozen=True, order=True, slots=True)
class BitVec:
    """Immutable bit string; equality, hashing and ordering on (width, value)."""

    width: int
    value: int

    def __post_init__(self) -> None:
        # width 0 is legal only so that coverage masks over an empty
        # minterm list have a value; variable carriers are always >= 1
        if self.width < 0:
            raise ValueError(f"width must be nonnegative, got {self.width}")
        if not 0 <= self.value <= _mask(self.width):
            raise ValueError(f"value {self.value:#x} does not fit in {self.width} bits")

    @classmethod
    def zeros(cls, width: int) -> BitVec:
        return cls(width, 0)

    @classmethod
    def ones(cls, width: int) -> BitVec:
        return cls(width, _mask(width))

    @classmethod
    def from_text(cls, text: str) -> BitVec:
        """Parse an MSB-first string of 0s and 1s."""
        if not text or any(ch not in "01" for ch in text):
            raise ValueError(f"not a bit string: {text!r}")
        return cls(len(text), int(text, 2))

    def to_text(self) -> str:
        if self.width == 0:
            return ""
        return format(self.value, f"0{self.width}b")

    def __str__(self) -> str:
        return self.to_text()

    def _check_width(self, other: BitVec) -> None:
        if self.width != other.width:
            raise ValueError(f"width mismatch: {self.width} vs {other.width}")

    def __and__(self, other: BitVec) -> BitVec:
        self._check_width(other)
        return BitVec(self.width, self.value & other.value)

    def __or__(self, other: BitVec) -> BitVec:
        self._check_width(other)
        return BitVec(self.width, self.value | other.value)

    def __xor__(self, other: BitVec) -> BitVec:
        self._check_width(other)
        return BitVec(self.width, self.value ^ other.value)

    def __invert__(self) -> BitVec:
        return BitVec(self.width, ~self.value & _mask(self.width))

    @property
    def popcount(self) -> int:
        return self.value.bit_count()

    def is_zero(self) -> bool:
        return self.value == 0

    def bit(self, pos: int) -> int:
        """Bit at position ``pos``, counting from the least significant end."""
        if not 0 <= pos < self.width:
            raise ValueError(f"bit position {pos} out of range for width {self.width}")
        return (self.value >> pos) & 1

    def one_positions(self) -> list[int]:
        """Positions of set bits, least significant first."""
        return [p for p in range(self.width) if (self.value >> p) & 1]


@dataclass(frozen=True, slots=True)
class Cube:
    """Positional-notation product term over ``left.width`` variables."""

    left: BitVec
    right: BitVec
    empty: bool = False

    def __post_init__(self) -> None:
        if self.left.width != self.right.width:
            raise ValueError(
                f"left/right width mismatch: {self.left.width} vs {self.right.width}"
            )
        if self.empty:
            if self.left.value or self.right.value:
                raise ValueError("an empty cube must carry all-zero bit pairs")
        elif (self.left.value | self.right.value) != _mask(self.left.width):
            raise ValueError("00 bit pair is only legal on an explicit empty cube")

    @classmethod
    def universal(cls, width: int) -> Cube:
        return cls(BitVec.ones(width), BitVec.ones(width))

    @classmethod
    def empty_cube(cls, width: int) -> Cube:
        return cls(BitVec.zeros(width), BitVec.zeros(width), empty=True)

    @property
    def width(self) -> int:
        return self.left.width

    @property
    def dc_mask(self) -> int:
        """Integer mask of don't-care positions."""
        return self.left.value & self.right.value

    @property
    def specified_mask(self) -> int:
        return self.left.value ^ self.right.value

    @property
    def literal_count(self) -> int:
        return self.specified_mask.bit_count()

    def covers_value(self, v: int) -> bool:
        """True when the minterm with integer value ``v`` lies in this cube."""
        if self.empty:
            return False
        full = _mask(self.width)
        return ((v & self.right.value) | (~v & self.left.value)) & full == full

    def count_minterms(self) -> int:
        if self.empty:
            return 0
        return 1 << self.dc_mask.bit_count()

    def minterms(self) -> Iterator[BitVec]:
        """Minterms of the cube, free positions enumerated in binary order
        (most significant free position varies slowest)."""
        if self.empty:
            return
        width = self.width
        base = self.right.value & ~self.dc_mask
        free = [p for p in range(width - 1, -1, -1) if (self.dc_mask >> p) & 1]
        k = len(free)
        for counter in range(1 << k):
            v = base
            for idx, pos in enumerate(free):
                if (counter >> (k - 1 - idx)) & 1:
                    v |= 1 << pos
            yield BitVec(width, v)

    def raise_literal(self, pos: int) -> Cube:
        """Turn the specified position ``pos`` (LSB-indexed) into a don't care."""
        bit = 1 << pos
        if not self.specified_mask & bit:
            raise ValueError(f"position {pos} is not a specified literal")
        return Cube(
            BitVec(self.width, self.left.value | bit),
            BitVec(self.width, self.right.value | bit),
        )

    def __str__(self) -> str:
        return cube_text(self)


def subset_ones(a: BitVec, b: BitVec) -> bool:
    """True when every 1-bit of ``a`` is also set in ``b``."""
    if a.width != b.width:
        raise ValueError(f"width mismatch: {a.width} vs {b.width}")
    return a.value & b.value == a.value


def split_lowest_one(a: BitVec) -> tuple[BitVec, BitVec]:
    """Split off the least significant set bit; returns (one_hot, rest)."""
    if a.value == 0:
        raise ValueError("cannot split the zero vector")
    rest = a.value & (a.value - 1)
    return BitVec(a.width, rest ^ a.value), BitVec(a.width, rest)


def minterm_to_cube(p: BitVec) -> Cube:
    """The 0-dimensional cube covering exactly the minterm ``p``."""
    return Cube(~p, p)


def cube_contains(c: Cube, d: Cube) -> bool:
    """True when every minterm of ``d`` lies in ``c``."""
    if c.width != d.width:
        raise ValueError(f"width mismatch: {c.width} vs {d.width}")
    if c.empty or d.empty:
        raise ValueError("containment is undefined for empty cubes")
    return (d.left.value & ~c.left.value) == 0 and (d.right.value & ~c.right.value) == 0


def cube_intersects(c: Cube, d: Cube) -> bool:
    """True when the two cubes share at least one minterm."""
    if c.width != d.width:
        raise ValueError(f"width mismatch: {c.width} vs {d.width}")
    both = (c.left.value & d.left.value) | (c.right.value & d.right.value)
    return both == _mask(c.width)


def _transpose(values: Sequence[int], width: int) -> list[int]:
    """Per bit position p, the int whose bit ``len(values) - 1 - i`` is bit
    p of ``values[i]``; one string slice per position."""
    if not values:
        return [0] * width
    top = 1 << width
    text = "".join([bin(v | top)[3:] for v in values])
    return [int(text[width - 1 - p :: width], 2) for p in range(width)]


class Slices:
    """A cube list sliced by index, for many intersection queries.

    Per variable position p it keeps two index sets: the listed cubes
    that allow value 0 at p and those that allow value 1.  Index i is
    bit ``count - 1 - i``, so index 0 is the most significant bit, as in
    coverage masks.  The listed cubes meeting a query cube are then the
    AND, over the query's specified positions, of one set each: O(literals)
    big-int ANDs instead of one ``cube_intersects`` call per listed cube.
    Empty cubes, listed or queried, meet nothing.
    """

    __slots__ = ("count", "_full", "_live", "_zero", "_one")

    def __init__(self, pairs: Sequence[tuple[int, int]], width: int) -> None:
        self.count = len(pairs)
        self._full = _mask(width)
        self._zero = _transpose([left for left, _ in pairs], width)
        self._one = _transpose([right for _, right in pairs], width)
        # cubes allowing some value at every position: all but empty ones
        live = _mask(self.count)
        for zero, one in zip(self._zero, self._one):
            live &= zero | one
        self._live = live

    @classmethod
    def of_minterms(cls, values: Sequence[int], width: int) -> Slices:
        """Slices of the 0-dimensional cubes of the minterm values."""
        full = _mask(width)
        return cls([(full ^ v, v) for v in values], width)

    def meets(self, left: int, right: int) -> int:
        """Index set of the listed cubes sharing a minterm with the cube
        given by its ``(left, right)`` pair values."""
        if left | right != self._full:
            return 0
        hit = self._live
        spec = left ^ right
        while spec and hit:
            low = spec & -spec
            p = low.bit_length() - 1
            hit &= self._zero[p] if left & low else self._one[p]
            spec ^= low
        return hit

    def mask_of(self, c: Cube) -> BitVec:
        """``meets`` for a ``Cube``, as a ``count``-bit vector."""
        return BitVec(self.count, self.meets(c.left.value, c.right.value))


def cube_text(c: Cube) -> str:
    """Render a cube with one character per variable from {0, 1, x}."""
    if c.empty:
        raise ValueError("an empty cube has no text form")
    chars = []
    for pos in range(c.width - 1, -1, -1):
        pair = (c.left.value >> pos & 1, c.right.value >> pos & 1)
        chars.append({(1, 0): "0", (0, 1): "1", (1, 1): "x"}[pair])
    return "".join(chars)


def text_cube(s: str) -> Cube:
    """Parse a cube string; '-' is accepted as an alias for 'x'."""
    if not s:
        raise ValueError("empty cube string")
    left = right = 0
    for ch in s:
        left <<= 1
        right <<= 1
        if ch == "0":
            left |= 1
        elif ch == "1":
            right |= 1
        elif ch in ("x", "-"):
            left |= 1
            right |= 1
        else:
            raise ValueError(f"illegal cube character {ch!r} in {s!r}")
    n = len(s)
    return Cube(BitVec(n, left), BitVec(n, right))
