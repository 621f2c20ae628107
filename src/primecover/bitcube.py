"""Fixed-width bit vectors and positional cubes.

The API edge has two carriers.  ``BitVec`` is an immutable n-bit
string; it stores minterms, difference indicators, literal-position
vectors and coverage masks.  ``Cube`` is a pair of equal-width bit
vectors in positional notation: per variable the (left, right) bit pair
encodes 10 for value 0, 01 for value 1 and 11 for a don't care.  There
is no 00 pair, so every cube holds a minterm.  The pipeline, parser to
writer, runs on the plain ``(left, right)`` int pairs of that notation:
``pair_text`` renders one, ``check_pairs`` guards them and
``check_width`` the carriers' widths.  ``Slices`` indexes a whole cube
list by variable, so that the cubes meeting a query cube come out of
one AND per query literal.  ``Record`` and ``FrozenRecord`` give the
package's records, ``BitVec`` and ``Cube`` among them, value equality,
``repr`` and pickling from the fields their ``__slots__`` name.  A
truth table is one 2^n-bit int with bit v set for the minterm of value
v: ``cube_points`` gives a cube's, ``table_of`` a cube list's, and
``raisable_literals`` tests a cube's literals against one, one mirror
shift each.

Convention: the leftmost character of any text form is the most
significant bit, so printed values read like product terms over
x1..xn.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from operator import attrgetter, ge, gt, le, lt


def _mask(width: int) -> int:
    return (1 << width) - 1


def check_width(width: int, other: int) -> None:
    """Raise ``ValueError`` when two carriers' widths differ."""
    if width != other:
        raise ValueError(f"width mismatch: {width} vs {other}")


# stores a field of a FrozenRecord, whose own __setattr__ raises
_set = object.__setattr__


class Record:
    """A record of the fields its ``__slots__`` name, in that order:
    equality within one class, ``repr`` as ``Name(field=value, ...)``,
    and pickling and copying through ``__init__``, which takes the
    fields in slot order.  Mutable and unhashable; ``FrozenRecord``
    adds immutability and a hash."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        if cls.__slots__:
            # a subclass that adds no slot keeps its base's fields; every
            # record has two or more, so ``_fields`` gives a tuple
            cls._names = cls.__slots__
            cls._fields = attrgetter(*cls.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == self._fields(other)

    def __repr__(self) -> str:
        values = ", ".join(
            f"{name}={value!r}" for name, value in zip(self._names, self._fields(self))
        )
        return f"{self.__class__.__qualname__}({values})"

    def __reduce__(self) -> tuple:
        return self.__class__, self._fields(self)


class FrozenRecord(Record):
    """A ``Record`` whose fields, set once in ``__init__`` by ``_assign``,
    cannot be assigned or deleted; hashed on its field values."""

    __slots__ = ()

    def _assign(self, *values: object) -> None:
        """Set the fields to ``values``, in slot order."""
        for name, value in zip(self._names, values):
            _set(self, name, value)

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def _ordered(op):
    """A ``BitVec`` comparison: ``op`` on (width, value), within the class."""

    def compare(self: BitVec, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return op((self.width, self.value), (other.width, other.value))

    return compare


class BitVec(FrozenRecord):
    """Immutable bit string; equality, hashing and ordering on (width, value)."""

    __slots__ = ("width", "value")

    def __init__(self, width: int, value: int) -> None:
        # direct stores, not ``_assign``: its loop nearly doubles the cost
        # of building the carriers the fold makes by the thousand
        _set(self, "width", width)
        _set(self, "value", value)
        self.__post_init__()

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

    def __and__(self, other: BitVec) -> BitVec:
        check_width(self.width, other.width)
        return BitVec(self.width, self.value & other.value)

    def __or__(self, other: BitVec) -> BitVec:
        check_width(self.width, other.width)
        return BitVec(self.width, self.value | other.value)

    def __xor__(self, other: BitVec) -> BitVec:
        check_width(self.width, other.width)
        return BitVec(self.width, self.value ^ other.value)

    def __invert__(self) -> BitVec:
        return BitVec(self.width, ~self.value & _mask(self.width))

    @property
    def popcount(self) -> int:
        return self.value.bit_count()

    __lt__ = _ordered(lt)
    __le__ = _ordered(le)
    __gt__ = _ordered(gt)
    __ge__ = _ordered(ge)


class Cube(FrozenRecord):
    """Positional-notation product term over ``left.width`` variables."""

    __slots__ = ("left", "right")

    def __init__(self, left: BitVec, right: BitVec) -> None:
        _set(self, "left", left)
        _set(self, "right", right)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.left.width != self.right.width:
            raise ValueError(
                f"left/right width mismatch: {self.left.width} vs {self.right.width}"
            )
        if (self.left.value | self.right.value) != _mask(self.left.width):
            raise ValueError("a cube has no 00 bit pair")

    @classmethod
    def universal(cls, width: int) -> Cube:
        return cls(BitVec.ones(width), BitVec.ones(width))

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
        """True when the minterm with integer value ``v`` lies in this cube:
        it agrees with ``right`` at every specified position."""
        right = self.right.value
        return not (v ^ right) & (self.left.value ^ right)

    def count_minterms(self) -> int:
        return 1 << self.dc_mask.bit_count()

    def minterms(self) -> Iterator[BitVec]:
        """Minterms of the cube in ascending order (most significant free
        position varies slowest)."""
        width, free = self.width, self.dc_mask
        base = self.right.value ^ free
        for sub in free_subsets(free):
            yield BitVec(width, base | sub)

    def __str__(self) -> str:
        return cube_text(self)


def free_subsets(free: int) -> Iterator[int]:
    """Every subset of the set bits of ``free``, in ascending order: each
    next one is ``(sub - free) & free``, until it wraps to 0."""
    sub = 0
    while True:
        yield sub
        sub = (sub - free) & free
        if not sub:
            return


def set_bits(x: int) -> list[int]:
    """Positions of the set bits of ``x >= 0``, ascending.  One scan of
    the binary text, which finds the bits of a wide int faster than
    peeling them off one at a time; ``bin`` writes that text faster
    than ``format``."""
    bits = bin(x)
    top = len(bits) - 1
    out = []
    i = bits.rfind("1")
    while i >= 0:
        out.append(top - i)
        i = bits.rfind("1", 0, i)
    return out


def minimal_ones(values: Sequence[int]) -> list[int]:
    """The values whose ones contain no other value's ones, in input order;
    of equal values only the first is kept.

    A strict subset has fewer ones, so taking the distinct values by
    ascending popcount, each one is checked against the minimal ones
    kept so far, which include a subset of every absorbed value.
    """
    distinct = list(dict.fromkeys(values))
    minimal: list[int] = []
    for v in sorted(distinct, key=int.bit_count):
        for u in minimal:
            if u & v == u:
                break
        else:
            minimal.append(v)
    keep = set(minimal)
    return [v for v in distinct if v in keep]


def minterm_to_cube(p: BitVec) -> Cube:
    """The 0-dimensional cube covering exactly the minterm ``p``."""
    return Cube(~p, p)


def cube_contains(c: Cube, d: Cube) -> bool:
    """True when every minterm of ``d`` lies in ``c``."""
    check_width(c.width, d.width)
    return (d.left.value & ~c.left.value) == 0 and (d.right.value & ~c.right.value) == 0


def cube_points(left: int, right: int) -> int:
    """Truth table of the cube given by its ``(left, right)`` pair
    values: bit v is set when the minterm of value v lies in it."""
    free = left & right
    points = 1 << (right ^ free)
    while free:
        low = free & -free
        # the free position of weight ``low`` doubles the points, ``low`` apart
        points |= points << low
        free ^= low
    return points


def table_of(pairs: Iterable[tuple[int, int]]) -> int:
    """Truth table of the union of the cubes given by their ``(left,
    right)`` pair values: the OR of their ``cube_points``."""
    points = 0
    for left, right in pairs:
        points |= cube_points(left, right)
    return points


def raisable_literals(left: int, right: int, points: int, off: int, n: int) -> list[int]:
    """The literals of the cube ``(left, right)`` whose raising keeps it
    clear of the truth table ``off``, as positions counted from the most
    significant variable, the least significant variable first.
    ``points`` is the cube's own table.  Raising the literal at bit
    position p adds the cube's mirror image across p, its points shifted
    by 2^p towards the other value, so each literal costs one shift and
    one AND."""
    out = []
    spec = left ^ right
    while spec:
        bit = spec & -spec
        mirror = points >> bit if right & bit else points << bit
        if not (points | mirror) & off:
            out.append(n - bit.bit_length())
        spec ^= bit
    return out


def table_cover(points: int, n: int) -> list[tuple[int, int]]:
    """A cover of exactly the minterms set in the truth table ``points``
    by cubes inside it, as ``(left, right)`` pair values.

    Greedy: each cube starts at the lowest point not yet covered and
    raises positions lowest first, each one it can while the cube stays
    inside ``points``.  Per set of free positions F, bit b of
    ``tables[F]``, for b clear on F, is set when the cube of base b and
    free positions F lies inside ``points``; freeing one more position p
    is one AND of that table with itself shifted by 2^p, so no minterm
    is tested on its own.  Bits of bases not clear on F are never read,
    so they are left as the shifts make them.
    """
    full = _mask(n)
    tables = {0: points}
    out: list[tuple[int, int]] = []
    rest = points
    while rest:
        base = (rest & -rest).bit_length() - 1
        free = 0
        table = points
        for p in range(n):
            bit = 1 << p
            wider = tables.get(free | bit)
            if wider is None:
                wider = tables[free | bit] = table & (table >> bit)
            if wider >> (base & ~bit) & 1:
                free |= bit
                base &= ~bit
                table = wider
        left, right = full ^ base, base | free
        out.append((left, right))
        rest &= ~cube_points(left, right)
    return out


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
    big-int ANDs instead of one pairwise test per listed cube (two cubes
    meet when at every position both allow 0 or both allow 1).
    """

    __slots__ = ("count", "_all", "_zero", "_one")

    def __init__(self, pairs: Sequence[tuple[int, int]], width: int) -> None:
        self.count = len(pairs)
        self._all = _mask(self.count)
        self._zero = _transpose([left for left, _ in pairs], width)
        self._one = _transpose([right for _, right in pairs], width)

    @classmethod
    def of_minterms(cls, values: Sequence[int], width: int) -> Slices:
        """Slices of the 0-dimensional cubes of the minterm values."""
        full = _mask(width)
        return cls([(full ^ v, v) for v in values], width)

    def meets(self, left: int, right: int) -> int:
        """Index set of the listed cubes sharing a minterm with the cube
        given by its ``(left, right)`` pair values."""
        hit = self._all
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


# each hex digit is 2 * left + right of one position: 2, 1 or 3, no carries
_TEXT_OF_DIGIT = str.maketrans("213", "01x")


def pair_text(left: int, right: int) -> str:
    """Render the cube of a ``(left, right)`` pair with one character per
    variable from {0, 1, x}; a cube has no 00 pair, so no width is needed."""
    # reading each pair's binary digits in base 16 spreads them one per
    # hex digit; base 16 also avoids the int/str digit limit of base 10
    pairs = 2 * int(f"{left:b}", 16) + int(f"{right:b}", 16)
    return format(pairs, "x").translate(_TEXT_OF_DIGIT)


def cube_text(c: Cube) -> str:
    """Render a cube with one character per variable from {0, 1, x}."""
    return pair_text(c.left.value, c.right.value)


def check_pairs(pairs: Iterable[tuple[int, int]], n: int) -> None:
    """Raise ``ValueError`` naming the first of ``pairs`` that is not a
    cube over ``n`` inputs."""
    full = _mask(n)
    for left, right in pairs:
        if left | right != full:
            raise ValueError(f"({left:#b}, {right:#b}) is not a cube over {n} inputs")


# per cube character: does it allow value 0 (left bit), value 1 (right bit)
_LEFT_OF_CHAR = str.maketrans("01x-", "1011")
_RIGHT_OF_CHAR = str.maketrans("01x-", "0111")
_CUBE_CHARS = str.maketrans("", "", "01x-")


def text_cube(s: str) -> Cube:
    """Parse a cube string; '-' is accepted as an alias for 'x'."""
    if not s:
        raise ValueError("empty cube string")
    illegal = s.translate(_CUBE_CHARS)
    if illegal:
        raise ValueError(f"illegal cube character {illegal[0]!r} in {s!r}")
    n = len(s)
    left = int(s.translate(_LEFT_OF_CHAR), 2)
    right = int(s.translate(_RIGHT_OF_CHAR), 2)
    return Cube(BitVec(n, left), BitVec(n, right))
