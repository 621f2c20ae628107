"""Espresso-style PLA reading and writing.

Supported directives: .i .o .p .ilb .ob .type .e/.end.  .i and .o come
before the first cube line and are at least 1; .ilb is accepted and
ignored.  Input-part characters are {0, 1, -}; an 'x' in a PLA file is
rejected (the cube text alias applies to diagnostic output only).
Output-part characters are {0, 1, -, ~}: '1' marks the row on for that
output, '0' marks it off under type fr/fdr and carries no information
under f/fd, '-' is a don't care and '~' carries no information.  Each
cube line is scanned into its ``(left, right)`` pair values and checked
once: an input part without '-' is read as one binary int, one with '-'
by one translation per half, and an output part is checked the first
time it appears.

Single-output files produce a ``LogicFunction`` holding its rows as
pairs, with no ``Cube`` per row; its ``on``, ``off`` and ``dc`` cube
tuples are built only when read.  For types f and fd the off-set is
derived on the 2^n-bit truth table: the complement of on plus dc is the
function's off table, and its off-cubes, the ``bitcube.table_cover`` of
that table, are derived only when read.  Up to ``TABLE_CAP`` inputs a
``LogicFunction`` holds its on and off truth tables, and ``validate``,
``direct_cover`` and ``verify_cover`` read them.  Multi-output files
produce a ``MultiFunction`` of 2^n-bit on and don't-care tables, one per
output, each cube line ORed into them whole.  Every 2^n-bit table stops
at ``TABLE_CAP`` (16) inputs; only fr/fdr single-output files, which
list their off-set, go past it, and there every step queries the listed
pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .bitcube import (
    _LEFT_OF_CHAR,
    _RIGHT_OF_CHAR,
    BitVec,
    Cube,
    Slices,
    cube_points,
    cube_text,
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

    ``LogicFunction(n, on, off, dc, name=...)`` takes ``Cube``s of width
    ``n``; ``parse_pla`` builds one from the pairs it scans, with no
    ``Cube`` per row.  ``on``, ``off`` and ``dc`` are ``Cube`` tuples
    built on first read from ``on_pairs``, ``off_pairs`` and
    ``dc_pairs``.  A function parsed from an f/fd file lists no off-set:
    its ``off_table`` is the complement of on plus dc, and its
    ``off_pairs`` are the ``bitcube.table_cover`` of that table, derived
    on first read.  Equality and hashing read ``n``, ``name`` and the
    pairs, so a parsed function equals the one built from the same
    cubes.  Immutable.
    """

    def __init__(
        self,
        n: int,
        on: Iterable[Cube],
        off: Iterable[Cube],
        dc: Iterable[Cube] = (),
        name: str = "",
    ) -> None:
        on, off, dc = tuple(on), tuple(off), tuple(dc)
        for c in (*on, *off, *dc):
            if c.width != n:
                raise ValueError(f"cube {c} does not have {n} variables")
        self.__dict__.update(
            n=n,
            name=name,
            on=on,
            off=off,
            dc=dc,
            on_pairs=_pairs(on),
            off_pairs=_pairs(off),
            dc_pairs=_pairs(dc),
        )

    @classmethod
    def _of_pairs(
        cls,
        n: int,
        name: str,
        on: Sequence[tuple[int, int]],
        off: Sequence[tuple[int, int]] | None,
        dc: Sequence[tuple[int, int]],
        **tables: int,
    ) -> LogicFunction:
        """The function of scanned pairs, built without a ``Cube``.  An
        f/fd file passes ``off=None`` and its ``on_table`` and
        ``off_table`` in ``tables``."""
        f = cls.__new__(cls)
        f.__dict__.update(tables, n=n, name=name, on_pairs=tuple(on), dc_pairs=tuple(dc))
        if off is not None:
            f.__dict__["off_pairs"] = tuple(off)
        return f

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

        Up to ``TABLE_CAP`` inputs a consistent function costs one AND of
        its truth tables.  Otherwise, and to name the culprits, the off-set
        is sliced and each on-cube queried, O((|on| + |off|) * n) big-int
        operations; the message names the first on-cube meeting an
        off-cube and the first off-cube it meets.
        """
        if not self.on_pairs:
            return
        if self.n <= TABLE_CAP and not self.on_table & self.off_table:
            return
        off = Slices(self.off_pairs, self.n)
        for i, (left, right) in enumerate(self.on_pairs):
            hit = off.meets(left, right)
            if hit:
                a, b = self.on[i], self.off[off.count - hit.bit_length()]
                raise InconsistentFunction(f"on-cube {a} intersects off-cube {b}")


@dataclass(frozen=True)
class MultiFunction:
    """Function of two or more outputs as 2^n-bit output tables; a
    single output is a ``LogicFunction``.

    Bit v of ``on[j]`` is set when output j is 1 at the minterm of value
    v, and bit v of ``dc[j]`` when it is a don't care there; output j is
    0 at every other minterm.  The tables cap the inputs at 16.
    """

    n: int
    m: int
    on: tuple[int, ...]
    dc: tuple[int, ...]
    name: str = ""
    labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
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
        object.__setattr__(self, "on", tuple(self.on))
        object.__setattr__(self, "dc", tuple(self.dc))
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
        """1, 0, or None for a don't care."""
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


@dataclass
class _RawPla:
    """A scanned PLA file; each row is an input part as its ``(left,
    right)`` pair values and its output part as text."""

    n: int
    m: int
    type_: str
    rows: list[tuple[tuple[int, int], str]]
    ob: tuple[str, ...]


def _scan(text: str) -> _RawPla:
    n = m = None
    full = 0  # the n-bit mask, set with n
    type_ = "fd"
    ob: tuple[str, ...] | None = None
    rows: list[tuple[tuple[int, int], str]] = []
    legal: set[str] = set()  # output parts already checked
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line.split("#", 1)[0]
        line = line.strip()
        if not line:
            continue
        if line[0] == ".":
            parts = line.split()
            key = parts[0]
            try:
                if key in (".i", ".o"):
                    if rows:
                        raise PlaParseError(f"line {lineno}: {key} after the first cube line")
                    count = int(parts[1])
                    if count < 1:
                        raise PlaParseError(f"line {lineno}: {key} {count} is below 1")
                    if key == ".i":
                        n = count
                        full = (1 << n) - 1
                    else:
                        m = count
                elif key == ".p":
                    terms = int(parts[1])  # the term count is checked, not kept
                    if terms < 0:
                        raise PlaParseError(f"line {lineno}: .p {terms} is below 0")
                elif key == ".ilb":
                    pass  # input labels are accepted and not kept
                elif key == ".ob":
                    ob = tuple(parts[1:])
                elif key == ".type":
                    type_ = parts[1]
                    if type_ not in ("f", "fr", "fd", "fdr"):
                        raise PlaParseError(f"line {lineno}: unsupported type {type_!r}")
                elif key in (".e", ".end"):
                    break
                else:
                    raise PlaParseError(f"line {lineno}: unknown directive {key!r}")
            except (IndexError, ValueError) as exc:
                if isinstance(exc, PlaParseError):
                    raise
                raise PlaParseError(f"line {lineno}: malformed directive {line!r}") from exc
            continue
        if n is None or m is None:
            raise PlaParseError(f"line {lineno}: cube line before .i/.o declarations")
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
        if outputs not in legal:
            if len(outputs) != m:
                raise PlaParseError(
                    f"line {lineno}: output part {outputs!r} is not {m} characters"
                )
            illegal = outputs.translate(_OUTPUT_CHARS)
            if illegal:
                raise PlaParseError(f"line {lineno}: illegal output character {illegal[0]!r}")
            legal.add(outputs)
        rows.append((pair, outputs))
    if n is None or m is None:
        raise PlaParseError("missing .i/.o declarations")
    if ob is not None and len(ob) != m:
        raise PlaParseError(f".ob names {len(ob)} outputs but .o declares {m}")
    return _RawPla(n, m, type_, rows, ob or ())


def _single_output(raw: _RawPla, name: str) -> LogicFunction:
    on: list[tuple[int, int]] = []
    off: list[tuple[int, int]] = []
    dc: list[tuple[int, int]] = []
    explicit_off = raw.type_ in ("fr", "fdr")
    lists = {"1": on, "-": dc}
    if explicit_off:
        lists["0"] = off
    # '~', and a '0' under f/fd, carry no information
    for pair, out in raw.rows:
        pairs = lists.get(out)
        if pairs is not None:
            pairs.append(pair)
    n = raw.n
    if explicit_off:
        f = LogicFunction._of_pairs(n, name, on, off, dc)
        f.validate()
        return f
    if n > TABLE_CAP:
        raise PlaParseError(
            f"deriving the off-set needs a complement over {n} variables "
            f"(cap {TABLE_CAP}); supply fr/fdr input"
        )
    # the off-set is the complement of on plus dc: it meets no on-cube
    on_table = table_of(on)
    off_table = ((1 << (1 << n)) - 1) ^ (on_table | table_of(dc))
    return LogicFunction._of_pairs(n, name, on, None, dc, on_table=on_table, off_table=off_table)


def _multi_output(raw: _RawPla, name: str) -> MultiFunction:
    if raw.n > TABLE_CAP:
        raise PlaParseError(
            f"multi-output minimization builds 2^n-bit output tables, capped at "
            f"{TABLE_CAP} inputs; this file has {raw.n}"
        )
    on = [0] * raw.m
    dc = [0] * raw.m
    off = [0] * raw.m
    # '~', and a '0' under f/fd, carry no information
    tables = {"1": on, "-": dc}
    if raw.type_ in ("fr", "fdr"):
        tables["0"] = off
    for (left, right), out in raw.rows:
        points = cube_points(left, right)
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
        raise InconsistentFunction(
            f"minterm {BitVec(raw.n, v)} is both on and off for output {j}"
        )
    # a care value wins over a don't care
    dc = [d & ~(a | b) for d, a, b in zip(dc, on, off)]
    return MultiFunction(raw.n, raw.m, on, dc, name=name, labels=raw.ob)


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
    """Serialize a cover as PLA text: ``Cube``s when ``outputs`` is 1, and
    ``TaggedCube``s otherwise, each marked for exactly the outputs of its tag.

    Single-output covers are written as type fr, which round-trips exactly.
    Multi-output covers use type fd: a '0' in a cover line means the term
    does not belong to that output, not that the minterm is off, and two
    overlapping cubes with different tags would otherwise contradict.
    Raises ``ValueError`` for a cube of another width than ``n``, for
    a tag naming an output outside ``range(outputs)`` and for an empty
    tag, which ``parse_pla`` could not read back.
    """
    lines_out: list[str] = []
    for item in cover:
        if outputs == 1:
            cube, out_part = item, "1"
        else:
            cube = item.cube
            if not all(0 <= j < outputs for j in item.tag):
                raise ValueError(f"{item} names an output outside the {outputs} outputs")
            if not item.tag:
                raise ValueError(f"{item} names no output")
            out_part = "".join("1" if j in item.tag else "0" for j in range(outputs))
        if cube.width != n:
            raise ValueError(f"width mismatch: {cube.width} vs {n}")
        lines_out.append(f"{cube_text(cube).replace('x', '-')} {out_part}")
    header = [f".i {n}", f".o {outputs}"]
    if ob:
        header.append(".ob " + " ".join(ob))
    header.append(f".p {len(lines_out)}")
    header.append(".type fr" if outputs == 1 else ".type fd")
    return "\n".join(header + lines_out + [".e"]) + "\n"
