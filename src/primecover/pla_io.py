"""Espresso-style PLA reading and writing.

Supported directives: .i .o .p .ilb .ob .type .e/.end.  .i, .o, .p
and .type take exactly one value, and .i, .o and .type come before the
first cube line; a count is ASCII digits with an optional sign, .i and
.o are at least 1, and .ilb must list .i labels.  Input-part
characters are {0, 1, -}; an 'x' in a PLA file is
rejected (the cube text alias applies to diagnostic output only).
Output-part characters are {0, 1, -, ~}, read the same way for one
output and for many: '1' marks the row on for that output, '0' marks it
off under type fr/fdr and carries no information under f/fd, '-' is a
don't care unless a care value marks the same point, and '~' carries no
information.  A point no line marks is off under f/fd and a don't care
under fr/fdr.  Each cube line is scanned into its ``(left, right)``
pair values and checked once: an input part without '-' is read as one
binary int, one with '-' by one translation per half.  The lines are
grouped by output part, in file order, and an output part is checked
when it opens its group.  A plain body, every cube line its input part,
one whitespace character and its output part, is read in one block of
calls over all its lines; any other body, and every fault, goes through
the line-by-line loop, which names the line at fault.

Single-output files produce a ``LogicFunction`` holding its rows as
pairs, with no ``Cube`` per row; its ``on``, ``off`` and ``dc`` cube
tuples are built only when read.  Building one ``validate``s an fr/fdr
file's listed off-set.  For types f and fd the off-set is derived,
unchecked, on the 2^n-bit truth table: the complement of on plus dc is
the function's off table, and its off-cubes, the ``bitcube.table_cover``
of that table, are derived only when read.  Up to ``TABLE_CAP`` inputs
a ``LogicFunction`` holds its on and off truth tables, and ``validate``,
``direct_cover`` and ``verify_cover`` read them.  Multi-output files
produce a ``MultiFunction`` of 2^n-bit on and don't-care tables, one per
output, each group's points ORed into the tables its characters name.
Every 2^n-bit table stops at ``TABLE_CAP`` (16) inputs; only fr/fdr
single-output files, which list their off-set, go past it, and there
every step queries the listed pairs.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import cached_property
from itertools import repeat
from operator import xor

from .bitcube import (
    _LEFT_OF_CHAR,
    _RIGHT_OF_CHAR,
    BitVec,
    Cube,
    FrozenRecord,
    Record,
    Slices,
    check_pairs,
    pair_text,
    table_cover,
    table_of,
)
from .errors import InconsistentFunction, PlaParseError

TABLE_CAP = 16


def _pairs(cubes: Sequence[Cube]) -> tuple[tuple[int, int], ...]:
    return tuple([(c.left.value, c.right.value) for c in cubes])


class LogicFunction:
    """Single-output function over ``n`` inputs: its on-, off- and
    don't-care cubes, held as ``(left, right)`` pair values.

    ``LogicFunction(n, on, off, dc, name=...)`` takes ``n >= 1`` and
    ``Cube``s of width ``n``; ``parse_pla`` builds one from the pairs it
    scans, with no ``Cube`` per row.  Either way only the pairs are
    stored, and a listed off-set is ``validate``d, so every
    ``LogicFunction`` is consistent.  ``on``, ``off`` and ``dc`` are
    ``Cube`` tuples built on first read from ``on_pairs``, ``off_pairs``
    and ``dc_pairs``.  A function parsed from an f/fd file lists no
    off-set: its ``off_table`` is the complement of on plus dc, and its
    ``off_pairs`` are the ``bitcube.table_cover`` of that table, derived
    on first read.  ``labels`` holds the output label of a ``.ob`` line,
    and is ``()`` for a function built by ``LogicFunction(...)``.
    Equality, hashing and ``repr`` read ``n``, ``name`` and the pairs,
    not ``labels``, so a parsed function equals the one built from the
    same cubes.  Immutable.
    """

    def __init__(
        self,
        n: int,
        on: Iterable[Cube],
        off: Iterable[Cube],
        dc: Iterable[Cube] = (),
        name: str = "",
    ) -> None:
        if n < 1:
            raise ValueError(f"a LogicFunction has at least 1 input, not {n}")
        on, off, dc = tuple(on), tuple(off), tuple(dc)
        for c in (*on, *off, *dc):
            if c.width != n:
                raise ValueError(f"cube {c} does not have {n} variables")
        self._set(n, name, _pairs(on), _pairs(off), _pairs(dc), ())

    @classmethod
    def _of_pairs(cls, *args: object, **tables: int) -> LogicFunction:
        """The function of scanned pairs, built without a ``Cube``; the
        arguments are ``_set``'s."""
        f = cls.__new__(cls)
        f._set(*args, **tables)
        return f

    def _set(
        self,
        n: int,
        name: str,
        on: Sequence[tuple[int, int]],
        off: Sequence[tuple[int, int]] | None,
        dc: Sequence[tuple[int, int]],
        labels: tuple[str, ...],
        **tables: int,
    ) -> None:
        # an f/fd file passes off=None and its on and off tables: its off
        # table, the complement of on plus dc, meets no on-cube
        self.__dict__.update(
            tables, n=n, name=name, labels=labels, on_pairs=tuple(on), dc_pairs=tuple(dc)
        )
        if off is not None:
            self.__dict__["off_pairs"] = tuple(off)
            self.validate()

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {key!r}: a LogicFunction is immutable")

    def __delattr__(self, key: str) -> None:
        raise AttributeError(f"cannot delete {key!r}: a LogicFunction is immutable")

    def _key(self) -> tuple:
        return (self.n, self.name, self.on_pairs, self.off_pairs, self.dc_pairs)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"LogicFunction(n={self.n!r}, on={self.on!r}, off={self.off!r}, "
            f"dc={self.dc!r}, name={self.name!r})"
        )

    @cached_property
    def off_pairs(self) -> tuple[tuple[int, int], ...]:
        """Derived only for an f/fd file, whose off-set is not listed:
        the ``table_cover`` of its off table, the cubes
        ``complement_cubes(on + dc, n)`` gives."""
        return tuple(table_cover(self.off_table, self.n))

    def _cubes(self, pairs: Sequence[tuple[int, int]]) -> tuple[Cube, ...]:
        n = self.n
        return tuple([Cube(BitVec(n, left), BitVec(n, right)) for left, right in pairs])

    @cached_property
    def on(self) -> tuple[Cube, ...]:
        return self._cubes(self.on_pairs)

    @cached_property
    def off(self) -> tuple[Cube, ...]:
        return self._cubes(self.off_pairs)

    @cached_property
    def dc(self) -> tuple[Cube, ...]:
        return self._cubes(self.dc_pairs)

    @cached_property
    def on_table(self) -> int:
        """The 2^n-bit truth table of the on-set: bit v is set when the
        minterm of value v is on.  Built on first use; up to ``TABLE_CAP``
        inputs only."""
        return self._table(self.on_pairs)

    @cached_property
    def off_table(self) -> int:
        """The 2^n-bit truth table of the off-set, as ``on_table``."""
        return self._table(self.off_pairs)

    def _table(self, pairs: Sequence[tuple[int, int]]) -> int:
        if self.n > TABLE_CAP:
            raise ValueError(
                f"{self.n} inputs exceed the cap of {TABLE_CAP} on 2^n-bit truth tables"
            )
        return table_of(pairs)

    def validate(self) -> None:
        """Reject functions whose on-set and off-set share a minterm.
        ``LogicFunction(...)`` and an fr/fdr parse call it on building
        the function; an f/fd parse, whose off table is the complement
        of on plus dc, does not.

        Up to ``TABLE_CAP`` inputs a consistent function costs one AND of
        its truth tables.  Otherwise, and to name the culprits, the off-set
        is sliced and each on-cube queried, O((|on| + |off|) * n) big-int
        operations; the message names by their pairs the first on-cube
        meeting an off-cube and the first off-cube it meets.
        """
        if not self.on_pairs:
            return
        if self.n <= TABLE_CAP and not self.on_table & self.off_table:
            return
        off = Slices(self.off_pairs, self.n)
        for left, right in self.on_pairs:
            hit = off.meets(left, right)
            if hit:
                a = pair_text(left, right)
                b = pair_text(*self.off_pairs[off.count - hit.bit_length()])
                raise InconsistentFunction(f"on-cube {a} intersects off-cube {b}")


class MultiFunction(FrozenRecord):
    """Function of two or more outputs as 2^n-bit output tables; a
    single output is a ``LogicFunction``.

    Bit v of ``on[j]`` is set when output j is 1 at the minterm of value
    v, and bit v of ``dc[j]`` when it is a don't care there; output j is
    0 at every other minterm.  ``n`` is at least 1, and the tables cap
    it at 16.
    """

    __slots__ = ("n", "m", "on", "dc", "name", "labels")

    def __init__(
        self,
        n: int,
        m: int,
        on: Iterable[int],
        dc: Iterable[int],
        name: str = "",
        labels: tuple[str, ...] = (),
    ) -> None:
        self._assign(n, m, tuple(on), tuple(dc), name, labels)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"a MultiFunction has at least 1 input, not {self.n}")
        if self.n > TABLE_CAP:
            raise ValueError(
                f"{self.n} inputs exceed the cap of {TABLE_CAP} "
                "on 2^n-bit output tables"
            )
        if self.m < 2:
            raise ValueError(
                f"a MultiFunction has at least 2 outputs, not {self.m}; "
                "a single output is a LogicFunction"
            )
        full = (1 << (1 << self.n)) - 1
        for kind, tables in (("on", self.on), ("dc", self.dc)):
            if len(tables) != self.m:
                raise ValueError(f"{len(tables)} {kind} tables, expected {self.m}")
            for j, table in enumerate(tables):
                if not 0 <= table <= full:
                    raise ValueError(
                        f"{kind} table of output {j} has bits outside its 2^{self.n} minterms"
                    )
        for j, (on, dc) in enumerate(zip(self.on, self.dc)):
            if on & dc:
                raise ValueError(f"output {j} has minterms both on and don't care")

    @property
    def off(self) -> tuple[int, ...]:
        """Per output, the table of the minterms where it is 0."""
        full = (1 << (1 << self.n)) - 1
        return tuple(full ^ (on | dc) for on, dc in zip(self.on, self.dc))

    def value(self, minterm_value: int, output: int) -> int | None:
        """1, 0, or None for a don't care; ``ValueError`` for a minterm
        or an output out of range."""
        if not 0 <= output < self.m:
            raise ValueError(f"output {output} is outside the {self.m} outputs")
        if not 0 <= minterm_value < 1 << self.n:
            raise ValueError(f"minterm value {minterm_value} is outside the 2^{self.n} minterms")
        if self.on[output] >> minterm_value & 1:
            return 1
        if self.dc[output] >> minterm_value & 1:
            return None
        return 0


def complement_cubes(cubes: Sequence[Cube], n: int) -> list[Cube]:
    """A cover of the minterms in none of ``cubes``: the ``table_cover``
    of the complement of their 2^n-bit truth table.  The parser no
    longer calls it (an f/fd function's ``off_pairs`` are these cubes of
    on plus dc, read from its off table); it stays because
    ``perfbench/tracing.py`` wraps it by name."""
    points = table_of((c.left.value, c.right.value) for c in cubes)
    rest = ((1 << (1 << n)) - 1) ^ points
    return [Cube(BitVec(n, l), BitVec(n, r)) for l, r in table_cover(rest, n)]


# deleting the legal characters leaves the illegal ones, in order
_INPUT_CHARS = str.maketrans("", "", "01-")
_OUTPUT_CHARS = str.maketrans("", "", "01-~")


class _RawPla(Record):
    """A scanned PLA file: its cube lines grouped by output part, each
    group the ``(left, right)`` pair values of its input parts in file
    order."""

    __slots__ = ("n", "m", "type_", "groups", "ob")

    def __init__(
        self,
        n: int,
        m: int,
        type_: str,
        groups: dict[str, list[tuple[int, int]]],
        ob: tuple[str, ...],
    ) -> None:
        self.n, self.m, self.type_, self.groups, self.ob = n, m, type_, groups, ob


def _plain_body(lines: list[str], n: int, m: int) -> dict[str, list[tuple[int, int]]] | None:
    """The groups ``_scan``'s loop reads from ``lines``, the lines from
    the first cube line on, when they are a plain body; None for any
    other text, which the loop then reads line by line, naming the line
    at fault if there is one.

    A plain body is the lines up to an optional final .e/.end, each an
    input part of n legal characters, one whitespace character and an
    output part of m legal characters.  Each such line has n + 1 + m
    characters, all in its two tokens but the separator, so a comment, a
    directive, an illegal character or a blank or padded line shows as a
    wrong length or an illegal character.  Three consecutive tokens, of
    lengths n, m, n or m, n, m, would not fit in one line, so with twice
    as many tokens as lines every line holds exactly two: the even
    tokens are the input parts and the odd ones the output parts.  The
    body is then read in a few calls over all of it: one ``split``, one
    ``translate`` of the joined input parts, one ``int(part, 2)`` map
    when no input part has a '-', and one grouping pass.
    """
    if lines[-1].strip() in (".e", ".end"):
        lines = lines[:-1]
    if set(map(len, lines)) != {n + 1 + m}:
        return None
    tokens = "\n".join(lines).split()
    if len(tokens) != 2 * len(lines):
        return None
    ins, outs = tokens[0::2], tokens[1::2]
    joined = "".join(ins)
    if set(map(len, ins)) != {n} or joined.translate(_INPUT_CHARS):
        return None
    groups: dict[str, list[tuple[int, int]]] = {}
    for out in dict.fromkeys(outs):
        if len(out) != m or out.translate(_OUTPUT_CHARS):
            return None
        groups[out] = []
    if "-" in joined:
        lefts = map(int, map(str.translate, ins, repeat(_LEFT_OF_CHAR)), repeat(2))
        rights = map(int, map(str.translate, ins, repeat(_RIGHT_OF_CHAR)), repeat(2))
        pairs = zip(lefts, rights)
    else:
        values = list(map(int, ins, repeat(2)))
        pairs = zip(map(xor, repeat((1 << n) - 1), values), values)
    if len(groups) == 1:
        groups[outs[0]] = list(pairs)
    else:
        for out, pair in zip(outs, pairs):
            groups[out].append(pair)
    return groups


def _count(lineno: int, key: str, value: str) -> int:
    """A .i, .o or .p count: ASCII digits with an optional sign (``int``
    also reads '1_0' and non-ASCII digits), at least 1, or 0 for .p."""
    if not (value.isascii() and value.lstrip("+-").isdigit()):
        raise ValueError(f"not a count: {value!r}")
    count, low = int(value), 0 if key == ".p" else 1
    if count < low:
        raise PlaParseError(f"line {lineno}: {key} {count} is below {low}")
    return count


def _scan(text: str) -> _RawPla:
    n = m = None
    full = 0  # the n-bit mask, set with n
    type_ = "fd"
    ob: tuple[str, ...] | None = None
    ilb: int | None = None  # the input label count; the labels are not kept
    groups: dict[str, list[tuple[int, int]]] = {}  # an output part is checked once
    lines = text.splitlines()
    for lineno, line in enumerate(lines, start=1):
        if "#" in line:
            line = line.split("#", 1)[0]
        line = line.strip()
        if not line:
            continue
        if line[0] == ".":
            key, *values = line.split()
            try:
                # .i and .o fix how a row is read and .type, applied once all
                # are scanned, what it means: none may follow a row
                if groups and key in (".i", ".o", ".type"):
                    raise PlaParseError(f"line {lineno}: {key} after the first cube line")
                if key in (".i", ".o", ".p", ".type"):
                    (value,) = values  # exactly one value, or a malformed directive
                if key in (".i", ".o", ".p"):
                    count = _count(lineno, key, value)  # the term count .p is not kept
                    if key == ".i":
                        n = count
                        full = (1 << n) - 1
                    elif key == ".o":
                        m = count
                elif key == ".ilb":
                    ilb = len(values)
                elif key == ".ob":
                    ob = tuple(values)
                elif key == ".type":
                    type_ = value
                    if type_ not in ("f", "fr", "fd", "fdr"):
                        raise PlaParseError(f"line {lineno}: unsupported type {type_!r}")
                elif key in (".e", ".end"):
                    break
                else:
                    raise PlaParseError(f"line {lineno}: unknown directive {key!r}")
            except ValueError as exc:
                if isinstance(exc, PlaParseError):
                    raise
                raise PlaParseError(f"line {lineno}: malformed directive {line!r}") from exc
            continue
        if n is None or m is None:
            raise PlaParseError(f"line {lineno}: cube line before .i/.o declarations")
        if not groups:
            block = _plain_body(lines[lineno - 1 :], n, m)
            if block is not None:
                groups = block
                break
        tokens = line.split()
        if len(tokens) < 2:
            raise PlaParseError(f"line {lineno}: expected input and output parts")
        token = tokens[0]
        if len(token) != n:
            raise PlaParseError(f"line {lineno}: input part {token!r} is not {n} characters")
        illegal = token.translate(_INPUT_CHARS)
        if illegal:
            raise PlaParseError(
                f"line {lineno}: illegal input character {illegal[0]!r} (use 0, 1 or -)"
            )
        # int(token, 2) alone would accept '_' and '+': the check above comes first
        if "-" in token:
            pair = (
                int(token.translate(_LEFT_OF_CHAR), 2),
                int(token.translate(_RIGHT_OF_CHAR), 2),
            )
        else:
            right = int(token, 2)
            pair = (full ^ right, right)
        outputs = tokens[1] if len(tokens) == 2 else "".join(tokens[1:])
        group = groups.get(outputs)
        if group is None:
            if len(outputs) != m:
                raise PlaParseError(
                    f"line {lineno}: output part {outputs!r} is not {m} characters"
                )
            illegal = outputs.translate(_OUTPUT_CHARS)
            if illegal:
                raise PlaParseError(f"line {lineno}: illegal output character {illegal[0]!r}")
            group = groups[outputs] = []
        group.append(pair)
    if n is None or m is None:
        raise PlaParseError("missing .i/.o declarations")
    if ilb is not None and ilb != n:
        raise PlaParseError(f".ilb names {ilb} inputs but .i declares {n}")
    if ob is not None and len(ob) != m:
        raise PlaParseError(f".ob names {len(ob)} outputs but .o declares {m}")
    return _RawPla(n, m, type_, groups, ob or ())


def _single_output(raw: _RawPla, name: str) -> LogicFunction:
    n, groups = raw.n, raw.groups
    # '~', and a '0' under f/fd, carry no information
    on, dc = groups.get("1", ()), groups.get("-", ())
    if raw.type_ in ("fr", "fdr"):
        return LogicFunction._of_pairs(n, name, on, groups.get("0", ()), dc, raw.ob)
    if n > TABLE_CAP:
        raise PlaParseError(
            f"deriving the off-set needs a complement over {n} variables "
            f"(cap {TABLE_CAP}); supply fr/fdr input"
        )
    # the off-set is the complement of on plus dc: it meets no on-cube
    on_table = table_of(on)
    off_table = ((1 << (1 << n)) - 1) ^ (on_table | table_of(dc))
    return LogicFunction._of_pairs(
        n, name, on, None, dc, raw.ob, on_table=on_table, off_table=off_table
    )


def _multi_output(raw: _RawPla, name: str) -> MultiFunction:
    n, m = raw.n, raw.m
    if n > TABLE_CAP:
        raise PlaParseError(
            f"multi-output minimization builds 2^n-bit output tables, capped at "
            f"{TABLE_CAP} inputs; this file has {n}"
        )
    on, off, dc = [0] * m, [0] * m, [0] * m
    # '~', and a '0' under f/fd, carry no information; under fr/fdr the
    # don't cares are the points neither on nor off, '-' or unlisted
    explicit_off = raw.type_ in ("fr", "fdr")
    tables = {"1": on, "0": off} if explicit_off else {"1": on, "-": dc}
    for out, pairs in raw.groups.items():
        points = table_of(pairs)
        for j, ch in enumerate(out):
            table = tables.get(ch)
            if table is not None:
                table[j] |= points
    # name the lowest minterm on and off for some output, and its lowest such output
    clashes = [
        ((both & -both).bit_length() - 1, j)
        for j, (a, b) in enumerate(zip(on, off))
        if (both := a & b)
    ]
    if clashes:
        v, j = min(clashes)
        raise InconsistentFunction(f"minterm {BitVec(n, v)} is both on and off for output {j}")
    if explicit_off:
        full = (1 << (1 << n)) - 1
        dc = [full ^ (a | b) for a, b in zip(on, off)]
    else:
        dc = [d & ~a for d, a in zip(dc, on)]  # a care value wins over a don't care
    return MultiFunction(n, m, on, dc, name=name, labels=raw.ob)


def parse_pla(text: str, *, name: str = "") -> LogicFunction | MultiFunction:
    """Parse PLA text into a function value; single output gives LogicFunction."""
    raw = _scan(text)
    if raw.m > 1:
        return _multi_output(raw, name)
    return _single_output(raw, name)


def write_pla(
    cover: Iterable,
    n: int,
    *,
    outputs: int = 1,
    ob: Sequence[str] = (),
) -> str:
    """Serialize a cover as PLA text: ``(left, right)`` pairs when
    ``outputs`` is 1, and ``TaggedCube``s otherwise, each marked for
    exactly the outputs of its tag.

    Single-output covers are written as type fr, which round-trips exactly.
    Multi-output covers use type fd: a '0' in a cover line means the term
    does not belong to that output, not that the minterm is off, and two
    overlapping cubes with different tags would otherwise contradict.
    Raises ``ValueError`` for a pair that is not a cube over ``n``
    inputs, for a tag naming an output outside ``range(outputs)``, for
    an empty tag and for ``ob`` labels that do not number ``outputs``,
    which ``parse_pla`` could not read back.
    """
    if ob and len(ob) != outputs:
        raise ValueError(f"ob names {len(ob)} outputs but the cover has {outputs}")
    cover = list(cover)
    if outputs == 1:
        check_pairs(cover, n)
        rows = [(pair, "1") for pair in cover]
    else:
        for item in cover:
            item.check(n, outputs)
        rows = [(item.pair, f"{item.tag:0{outputs}b}"[::-1]) for item in cover]
    lines_out = [f"{pair_text(*pair).replace('x', '-')} {out}" for pair, out in rows]
    header = [f".i {n}", f".o {outputs}"]
    if ob:
        header.append(".ob " + " ".join(ob))
    header.append(f".p {len(lines_out)}")
    header.append(".type fr" if outputs == 1 else ".type fd")
    return "\n".join(header + lines_out + [".e"]) + "\n"
