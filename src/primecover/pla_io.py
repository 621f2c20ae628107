"""Espresso-style PLA reading and writing.

Supported directives: .i .o .p .ilb .ob .type .e/.end.  .i and .o come
before the first cube line and are at least 1; .ilb is accepted and
ignored.  Input-part characters are {0, 1, -}; an 'x' in a PLA file is
rejected (the cube text alias applies to diagnostic output only).
Output-part characters are {0, 1, -, ~}: '1' marks the row on for that
output, '0' marks it off under type fr/fdr and carries no information
under f/fd, '-' is a don't care and '~' carries no information.  Each
cube line is scanned into its ``(left, right)`` pair values, checked
once and converted by one translation per half.

Single-output files produce a ``LogicFunction`` holding the cube lists
as written.  For types f and fd the off-set is derived on the 2^n-bit
truth table: the complement of on plus dc, covered by
``bitcube.table_cover``.  Up to ``TABLE_CAP`` inputs a
``LogicFunction`` also holds its on and off truth tables, built on
first use, and ``validate``, ``direct_cover`` and ``verify_cover`` read
them.  Multi-output files produce a ``MultiFunction`` of 2^n-bit on and
don't-care tables, one per output, each cube line ORed into them whole.
Every 2^n-bit table stops at ``TABLE_CAP`` (16) inputs; only fr/fdr
single-output files, which list their off-set, go past it, and there
every step queries the listed cubes.
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


@dataclass(frozen=True)
class LogicFunction:
    """Single-output function as on/off/dc cube lists."""

    n: int
    on: tuple[Cube, ...]
    off: tuple[Cube, ...]
    dc: tuple[Cube, ...] = ()
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "on", tuple(self.on))
        object.__setattr__(self, "off", tuple(self.off))
        object.__setattr__(self, "dc", tuple(self.dc))
        for c in (*self.on, *self.off, *self.dc):
            if c.width != self.n:
                raise ValueError(f"cube {c} does not have {self.n} variables")

    @cached_property
    def on_table(self) -> int:
        """The 2^n-bit truth table of the on-set: bit v is set when the
        minterm of value v is on.  Built on first use; up to ``TABLE_CAP``
        inputs only."""
        return self._table(self.on)

    @cached_property
    def off_table(self) -> int:
        """The 2^n-bit truth table of the off-set, as ``on_table``."""
        return self._table(self.off)

    def _table(self, cubes: Sequence[Cube]) -> int:
        if self.n > TABLE_CAP:
            raise ValueError(
                f"{self.n} inputs exceed the cap of {TABLE_CAP} on 2^n-bit truth tables"
            )
        return table_of((c.left.value, c.right.value) for c in cubes)

    def validate(self) -> None:
        """Reject functions whose on-set and off-set share a minterm.

        Up to ``TABLE_CAP`` inputs a consistent function costs one AND of
        its truth tables.  Otherwise, and to name the culprits, the off-set
        is sliced and each on-cube queried, O((|on| + |off|) * n) big-int
        operations; the message names the first on-cube meeting an
        off-cube and the first off-cube it meets.
        """
        if not (self.on and self.off):
            return
        if self.n <= TABLE_CAP and not self.on_table & self.off_table:
            return
        off = Slices([(b.left.value, b.right.value) for b in self.off], self.n)
        for a in self.on:
            hit = off.meets(a.left.value, a.right.value)
            if hit:
                b = self.off[off.count - hit.bit_length()]
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
    of the complement of their 2^n-bit truth table."""
    points = table_of((c.left.value, c.right.value) for c in cubes)
    rest = ((1 << (1 << n)) - 1) ^ points
    return [Cube(BitVec(n, l), BitVec(n, r)) for l, r in table_cover(rest, n)]


# deleting the legal characters leaves the illegal ones, in order
_INPUT_CHARS = str.maketrans("", "", "01-")
_OUTPUT_CHARS = str.maketrans("", "", "01-~")


def _parse_input_part(token: str, n: int, lineno: int) -> tuple[int, int]:
    """The ``(left, right)`` pair values of a cube line's input part."""
    if len(token) != n:
        raise PlaParseError(f"line {lineno}: input part {token!r} is not {n} characters")
    illegal = token.translate(_INPUT_CHARS)
    if illegal:
        raise PlaParseError(
            f"line {lineno}: illegal input character {illegal[0]!r} (use 0, 1 or -)"
        )
    return int(token.translate(_LEFT_OF_CHAR), 2), int(token.translate(_RIGHT_OF_CHAR), 2)


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
    type_ = "fd"
    ob: tuple[str, ...] | None = None
    rows: list[tuple[tuple[int, int], str]] = []
    ended = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line or ended:
            continue
        if line.startswith("."):
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
                    ended = True
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
        pair = _parse_input_part(tokens[0], n, lineno)
        outputs = "".join(tokens[1:])
        if len(outputs) != m:
            raise PlaParseError(
                f"line {lineno}: output part {outputs!r} is not {m} characters"
            )
        illegal = outputs.translate(_OUTPUT_CHARS)
        if illegal:
            raise PlaParseError(f"line {lineno}: illegal output character {illegal[0]!r}")
        rows.append((pair, outputs))
    if n is None or m is None:
        raise PlaParseError("missing .i/.o declarations")
    if ob is not None and len(ob) != m:
        raise PlaParseError(f".ob names {len(ob)} outputs but .o declares {m}")
    return _RawPla(n, m, type_, rows, ob or ())


def _single_output(raw: _RawPla, name: str) -> LogicFunction:
    on: list[Cube] = []
    off: list[Cube] = []
    dc: list[Cube] = []
    explicit_off = raw.type_ in ("fr", "fdr")
    lists = {"1": on, "-": dc}
    if explicit_off:
        lists["0"] = off
    # '~', and a '0' under f/fd, carry no information
    n = raw.n
    for (left, right), out in raw.rows:
        cubes = lists.get(out)
        if cubes is not None:
            cubes.append(Cube(BitVec(n, left), BitVec(n, right)))
    if not explicit_off:
        if raw.n > TABLE_CAP:
            raise PlaParseError(
                f"deriving the off-set needs a complement over {raw.n} variables "
                f"(cap {TABLE_CAP}); supply fr/fdr input"
            )
        off = complement_cubes(on + dc, raw.n)
    f = LogicFunction(raw.n, tuple(on), tuple(off), tuple(dc), name=name)
    if explicit_off:
        # a derived off-set is the complement of on plus dc: it meets no on-cube
        f.validate()
    return f


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
