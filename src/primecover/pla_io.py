"""Espresso-style PLA reading and writing.

Supported directives: .i .o .p .ilb .ob .type .e/.end.  Input-part
characters are {0, 1, -}; an 'x' in a PLA file is rejected (the cube
text alias applies to diagnostic output only).  Output-part characters
are {0, 1, -, ~}: '1' marks the row on for that output, '0' marks it
off under type fr/fdr and carries no information under f/fd, '-' is a
don't care and '~' carries no information.

Single-output files produce a ``LogicFunction`` holding the cube lists
as written.  For types f and fd the off-set is derived as the
complement of on plus dc, which is refused above a variable cap
(default 16); supply fr/fdr input beyond that.  Multi-output files
produce a ``MultiFunction`` with one row per minterm, up to 16 inputs
whatever the cap: their minimizer builds 2^n-bit output tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .bitcube import BitVec, Cube, Slices, cube_text, text_cube
from .errors import InconsistentFunction, PlaParseError

DEFAULT_COMPLEMENT_CAP = 16


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

    def validate(self) -> None:
        """Reject functions whose on-set and off-set share a minterm.

        The message names the first such on-cube and the first off-cube it
        meets.  Costs O((|on| + |off|) * n) big-int operations.
        """
        if not (self.on and self.off):
            return
        off = Slices([(b.left.value, b.right.value) for b in self.off], self.n)
        for a in self.on:
            hit = off.meets(a.left.value, a.right.value)
            if hit:
                b = self.off[off.count - hit.bit_length()]
                raise InconsistentFunction(f"on-cube {a} intersects off-cube {b}")


@dataclass(frozen=True)
class MultiFunction:
    """Multi-output truth rows: one (minterm, per-output value) per minterm.

    Output values are 1, 0 or None for a don't care; minterms absent from
    ``rows`` are 0 for every output.  ``cube_rows`` preserves the source
    file's cube lines for round-trip checks.
    """

    n: int
    m: int
    rows: tuple[tuple[BitVec, tuple[int | None, ...]], ...]
    name: str = ""
    labels: tuple[str, ...] = ()
    cube_rows: tuple[tuple[Cube, str], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple((m, tuple(v)) for m, v in self.rows))
        object.__setattr__(self, "cube_rows", tuple(self.cube_rows))
        seen = set()
        for minterm, values in self.rows:
            if minterm.width != self.n:
                raise ValueError(f"row minterm {minterm} does not have {self.n} variables")
            if len(values) != self.m:
                raise ValueError(f"row {minterm} carries {len(values)} outputs, expected {self.m}")
            if minterm.value in seen:
                raise ValueError(f"duplicate row for minterm {minterm}")
            seen.add(minterm.value)

    def value(self, minterm_value: int, output: int) -> int | None:
        for m, values in self.rows:
            if m.value == minterm_value:
                return values[output]
        return 0


def _complement_cover(cubes: list[tuple[int, int]], n: int) -> list[tuple[int, int]]:
    """Complement of a cube cover, as disjoint (left, right) pairs."""
    full = (1 << n) - 1
    if not cubes:
        return [(full, full)]
    for left, right in cubes:
        if left == full and right == full:
            return []
    # split on the position specified most often
    counts = [0] * n
    for left, right in cubes:
        spec = left ^ right
        for p in range(n):
            if spec >> p & 1:
                counts[p] += 1
    pos = max(range(n), key=lambda p: counts[p])
    bit = 1 << pos
    zero_branch = [
        (l | bit, r | bit) for l, r in cubes if l & bit  # cube allows value 0
    ]
    one_branch = [
        (l | bit, r | bit) for l, r in cubes if r & bit  # cube allows value 1
    ]
    out = []
    for l, r in _complement_cover(zero_branch, n):
        out.append((l, r & ~bit))  # constrain to value 0
    for l, r in _complement_cover(one_branch, n):
        out.append((l & ~bit, r))  # constrain to value 1
    return out


def complement_cubes(cubes: Sequence[Cube], n: int) -> list[Cube]:
    pairs = [(c.left.value, c.right.value) for c in cubes]
    return [
        Cube(BitVec(n, l), BitVec(n, r)) for l, r in _complement_cover(pairs, n)
    ]


# deleting the legal input characters leaves the illegal ones, in order
_INPUT_CHARS = str.maketrans("", "", "01-")


def _parse_input_part(token: str, n: int, lineno: int) -> Cube:
    if len(token) != n:
        raise PlaParseError(f"line {lineno}: input part {token!r} is not {n} characters")
    illegal = token.translate(_INPUT_CHARS)
    if illegal:
        raise PlaParseError(
            f"line {lineno}: illegal input character {illegal[0]!r} (use 0, 1 or -)"
        )
    return text_cube(token)


@dataclass
class _RawPla:
    n: int
    m: int
    type_: str
    rows: list[tuple[Cube, str]]
    ilb: tuple[str, ...]
    ob: tuple[str, ...]


def _scan(text: str) -> _RawPla:
    n = m = None
    type_ = "fd"
    ilb: tuple[str, ...] = ()
    ob: tuple[str, ...] = ()
    rows: list[tuple[Cube, str]] = []
    ended = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line or ended:
            continue
        if line.startswith("."):
            parts = line.split()
            key = parts[0]
            try:
                if key == ".i":
                    n = int(parts[1])
                elif key == ".o":
                    m = int(parts[1])
                elif key == ".p":
                    int(parts[1])  # the term count is checked, not kept
                elif key == ".ilb":
                    ilb = tuple(parts[1:])
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
        cube = _parse_input_part(tokens[0], n, lineno)
        outputs = "".join(tokens[1:])
        if len(outputs) != m:
            raise PlaParseError(
                f"line {lineno}: output part {outputs!r} is not {m} characters"
            )
        for ch in outputs:
            if ch not in "01-~":
                raise PlaParseError(f"line {lineno}: illegal output character {ch!r}")
        rows.append((cube, outputs))
    if n is None or m is None:
        raise PlaParseError("missing .i/.o declarations")
    return _RawPla(n, m, type_, rows, ilb, ob)


def _single_output(raw: _RawPla, name: str, complement_cap: int) -> LogicFunction:
    on: list[Cube] = []
    off: list[Cube] = []
    dc: list[Cube] = []
    explicit_off = raw.type_ in ("fr", "fdr")
    for cube, out in raw.rows:
        ch = out[0]
        if ch == "1":
            on.append(cube)
        elif ch == "0" and explicit_off:
            off.append(cube)
        elif ch == "-":
            dc.append(cube)
        # '~' and a '0' under f/fd carry no information
    if not explicit_off:
        if raw.n > complement_cap:
            raise PlaParseError(
                f"deriving the off-set needs a complement over {raw.n} variables "
                f"(cap {complement_cap}); supply fr/fdr input or raise the cap"
            )
        off = complement_cubes(on + dc, raw.n)
    f = LogicFunction(raw.n, tuple(on), tuple(off), tuple(dc), name=name)
    f.validate()
    return f


def _multi_output(raw: _RawPla, name: str, expand_cap: int) -> MultiFunction:
    if raw.n > DEFAULT_COMPLEMENT_CAP:
        raise PlaParseError(
            f"multi-output minimization builds 2^n-bit output tables, capped at "
            f"{DEFAULT_COMPLEMENT_CAP} inputs; this file has {raw.n}"
        )
    if raw.n > expand_cap:
        raise PlaParseError(
            f"multi-output rows need minterm expansion over {raw.n} variables "
            f"(cap {expand_cap})"
        )
    explicit_off = raw.type_ in ("fr", "fdr")
    # per (minterm, output): "1", "0" (explicit) or "-"; unmentioned stays 0
    states: dict[int, list[str | None]] = {}
    for cube, out in raw.rows:
        for minterm in cube.minterms():
            row = states.setdefault(minterm.value, [None] * raw.m)
            for j, ch in enumerate(out):
                if ch == "~" or (ch == "0" and not explicit_off):
                    continue
                prev = row[j]
                if prev in ("0", "1") and ch in ("0", "1") and prev != ch:
                    raise InconsistentFunction(
                        f"minterm {BitVec(raw.n, minterm.value)} is both on and off "
                        f"for output {j}"
                    )
                # a care value wins over a don't care
                if prev is None or prev == "-":
                    row[j] = ch
    value_of = {"1": 1, "0": 0, "-": None, None: 0}
    rows = tuple(
        (BitVec(raw.n, v), tuple(value_of[ch] for ch in states[v]))
        for v in sorted(states)
    )
    return MultiFunction(
        raw.n, raw.m, rows, name=name, labels=raw.ob, cube_rows=tuple(raw.rows)
    )


def parse_pla(
    text: str,
    *,
    name: str = "",
    complement_cap: int = DEFAULT_COMPLEMENT_CAP,
) -> LogicFunction | MultiFunction:
    """Parse PLA text into a function value; single output gives LogicFunction."""
    raw = _scan(text)
    if raw.m == 1:
        return _single_output(raw, name, complement_cap)
    return _multi_output(raw, name, complement_cap)


def write_pla(
    cover: Iterable,
    n: int,
    *,
    outputs: int = 1,
    ilb: Sequence[str] = (),
    ob: Sequence[str] = (),
) -> str:
    """Serialize a cover (Cubes, or (Cube, output-index-set) pairs) as PLA text.

    Single-output covers are written as type fr, which round-trips exactly.
    Multi-output covers use type fd: a '0' in a cover line means the term
    does not belong to that output, not that the minterm is off, and two
    overlapping cubes with different tags would otherwise contradict.
    """
    lines_out: list[str] = []
    count = 0
    for item in cover:
        if isinstance(item, Cube):
            cube, tag = item, None
        elif hasattr(item, "cube") and hasattr(item, "tag"):
            cube, tag = item.cube, item.tag
        else:
            cube, tag = item
        text = cube_text(cube).replace("x", "-")
        if outputs == 1:
            out_part = "1"
        else:
            marks = set(tag) if tag is not None else set(range(outputs))
            out_part = "".join("1" if j in marks else "0" for j in range(outputs))
        lines_out.append(f"{text} {out_part}")
        count += 1
    header = [f".i {n}", f".o {outputs}"]
    if ilb:
        header.append(".ilb " + " ".join(ilb))
    if ob:
        header.append(".ob " + " ".join(ob))
    header.append(f".p {count}")
    header.append(".type fr" if outputs == 1 else ".type fd")
    return "\n".join(header + lines_out + [".e"]) + "\n"
