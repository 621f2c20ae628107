"""Shared fixtures: the golden worked examples and random-function builders."""

from __future__ import annotations

import bisect
import itertools
import math
import random

from primecover import (
    BitVec,
    CoverReport,
    CoverResult,
    Cube,
    DiSet,
    EmptyOffset,
    EmptyOnset,
    InconsistentFunction,
    LogicFunction,
    MultiFunction,
    cube_contains,
    cube_text,
    generate_sdm,
    minterm_to_cube,
    text_cube,
    vectors_to_pis,
)
from primecover.bitcube import Slices, cube_points, minimal_ones
from primecover.pla_io import _scan
from primecover.cover import mask_members
from primecover.multi_output import TaggedCube

bv = BitVec.from_text


def count_cubes(monkeypatch) -> list:
    """A list that gains one item per ``Cube`` built from now on."""
    built: list = []
    post_init = Cube.__post_init__

    def counted(c: Cube) -> None:
        built.append(c)
        post_init(c)

    monkeypatch.setattr(Cube, "__post_init__", counted)
    return built


# Cube predicates on the positional pairs, one cube pair at a time, as
# independent references for the sliced set algebra and for primality.


def reference_intersects(c: Cube, d: Cube) -> bool:
    """True when the two cubes share at least one minterm: at every
    position both allow value 0 or both allow value 1."""
    if c.width != d.width:
        raise ValueError(f"width mismatch: {c.width} vs {d.width}")
    both = (c.left.value & d.left.value) | (c.right.value & d.right.value)
    return both == (1 << c.width) - 1


def reference_raise_literal(c: Cube, pos: int) -> Cube:
    """Turn the specified position ``pos`` (LSB-indexed) into a don't care."""
    bit = 1 << pos
    if not c.specified_mask & bit:
        raise ValueError(f"position {pos} is not a specified literal")
    return Cube(BitVec(c.width, c.left.value | bit), BitVec(c.width, c.right.value | bit))


def reference_table_cover(points: int, n: int) -> list[tuple[int, int]]:
    """``bitcube.table_cover`` as it ran on a memo of per-free-mask tables.

    Greedy: each cube starts at the lowest point not yet covered and
    raises positions lowest first, each one it can while the cube stays
    inside ``points``.  Per set of free positions F, bit b of
    ``tables[F]``, for b clear on F, is set when the cube of base b and
    free positions F lies inside ``points``; freeing one more position p
    is one AND of that table with itself shifted by 2^p.  Bits of bases
    not clear on F are never read, so they are left as the shifts make
    them.
    """
    full = (1 << n) - 1
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


def reference_complement(cubes, n: int) -> list[Cube]:
    """The complement of a cube cover by recursive splitting, as pairwise
    disjoint cubes: split on the position specified most often, complement
    each half, and constrain each half's cubes to its value."""

    def split(pairs: list[tuple[int, int]]) -> list[tuple[int, int]]:
        full = (1 << n) - 1
        if not pairs:
            return [(full, full)]
        if (full, full) in pairs:
            return []
        counts = [sum((left ^ right) >> p & 1 for left, right in pairs) for p in range(n)]
        bit = 1 << max(range(n), key=lambda p: counts[p])
        zero = [(l | bit, r | bit) for l, r in pairs if l & bit]  # allows value 0
        one = [(l | bit, r | bit) for l, r in pairs if r & bit]  # allows value 1
        return [(l, r & ~bit) for l, r in split(zero)] + [(l & ~bit, r) for l, r in split(one)]

    pairs = [(c.left.value, c.right.value) for c in cubes]
    return [Cube(BitVec(n, l), BitVec(n, r)) for l, r in split(pairs)]


def minterm_cubes(texts: list[str]) -> tuple[Cube, ...]:
    return tuple(minterm_to_cube(bv(t)) for t in texts)


# Five-variable single-output golden function (13 on / 16 off minterms,
# three implicit don't cares).
FIVE_VAR_ON = (
    "00000 00010 00011 01000 01001 01100 01101 01110 10000 10010 11000 11010 11110"
).split()
FIVE_VAR_OFF = (
    "00001 00100 00110 01010 01111 10001 10011 10100 10101 10110 10111 "
    "11001 11011 11100 11101 11111"
).split()


def five_var_function() -> LogicFunction:
    return LogicFunction(
        5, minterm_cubes(FIVE_VAR_ON), minterm_cubes(FIVE_VAR_OFF), name="fivevar"
    )


# Three-variable golden example: primes covering 001 are {0x1, x01}.
THREE_VAR_P = "001"
THREE_VAR_OFF = ["000", "100", "111"]


def three_var_function() -> LogicFunction:
    on = [v for v in range(8) if v not in (0b000, 0b100, 0b111)]
    return LogicFunction(
        3,
        tuple(minterm_to_cube(BitVec(3, v)) for v in on),
        minterm_cubes(THREE_VAR_OFF),
        name="threevar",
    )


def multi_function(n: int, m: int, rows, **kw) -> MultiFunction:
    """The output tables of ``(minterm, values)`` rows, the minterm a
    ``BitVec`` or its bit text and each value 1, 0 or None for a don't
    care; a minterm without a row is 0 for every output."""
    on = [0] * m
    dc = [0] * m
    for minterm, values in rows:
        v = (bv(minterm) if isinstance(minterm, str) else minterm).value
        for j, value in enumerate(values):
            if value == 1:
                on[j] |= 1 << v
            elif value is None:
                dc[j] |= 1 << v
    return MultiFunction(n, m, on, dc, **kw)


def rows_of(f: MultiFunction) -> list[tuple[BitVec, tuple[int | None, ...]]]:
    """``(minterm, values)`` of every minterm not 0 for every output, in
    ascending order."""
    rows = []
    for v in range(1 << f.n):
        values = tuple(
            1 if on >> v & 1 else None if dc >> v & 1 else 0 for on, dc in zip(f.on, f.dc)
        )
        if any(value != 0 for value in values):
            rows.append((BitVec(f.n, v), values))
    return rows


def pair_cube(n: int, pair: tuple[int, int]) -> Cube:
    """The ``Cube`` of a ``(left, right)`` pair, as ``_scan`` groups and
    covers hold them."""
    left, right = pair
    return Cube(BitVec(n, left), BitVec(n, right))


def cube_pair(c: Cube) -> tuple[int, int]:
    """The ``(left, right)`` pair of a ``Cube``, as covers hold it."""
    return c.left.value, c.right.value


def tagged_cube(c: Cube, outputs) -> TaggedCube:
    """The ``TaggedCube`` of a ``Cube`` for the outputs in ``outputs``."""
    return TaggedCube(cube_pair(c), sum(1 << j for j in set(outputs)))


def as_cubes(cover, n: int) -> list:
    """A cover as the references and the oracle read it: each ``(left,
    right)`` pair as its ``Cube``, and each ``TaggedCube`` as its ``(cube
    text, frozenset of outputs)``, the form of ``TRI_OUTPUT_COVER``."""
    out = []
    for item in cover:
        if isinstance(item, TaggedCube):
            tag = item.tag
            outputs = frozenset(j for j in range(tag.bit_length()) if tag >> j & 1)
            out.append((cube_text(pair_cube(n, item.pair)), outputs))
        else:
            out.append(pair_cube(n, item))
    return out


def reference_parse_multi(text: str) -> MultiFunction:
    """A multi-output PLA text parsed one minterm at a time: each cube
    line is expanded into its minterms and each (minterm, output) state
    is set in turn, a care value winning over a don't care.  A state no
    line sets is 0 under f/fd and a don't care under fr/fdr."""
    raw = _scan(text)
    explicit_off = raw.type_ in ("fr", "fdr")
    # per (minterm, output): "1", "0" (explicit), "-" or None when no line sets it
    states: dict[int, list[str | None]] = {}
    for out, pairs in raw.groups.items():
        for minterm in (m for pair in pairs for m in pair_cube(raw.n, pair).minterms()):
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
                if prev is None or prev == "-":
                    row[j] = ch
    value_of = {"1": 1, "0": 0, "-": None, None: None if explicit_off else 0}
    unset = [None] * raw.m
    rows = [
        (BitVec(raw.n, v), tuple(value_of[ch] for ch in states.get(v, unset)))
        for v in range(1 << raw.n)
    ]
    return multi_function(raw.n, raw.m, rows, labels=raw.ob)


def reference_table(cubes) -> int:
    """The 2^n-bit truth table of a cube list, one minterm at a time."""
    return sum(1 << v for v in {m.value for c in cubes for m in c.minterms()})


def reference_parse_single(text: str, name: str = "") -> LogicFunction:
    """A well-formed single-output PLA text parsed line by line: each
    cube line's input part through ``text_cube``, its output part the
    rest of the line, and for types f and fd the off-set the
    ``reference_complement`` of on plus dc.  '~', and a '0' under f/fd,
    carry no information."""
    n = None
    type_ = "fd"
    on, off, dc = [], [], []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("."):
            key, *args = line.split()
            if key == ".i":
                n = int(args[0])
            elif key == ".type":
                type_ = args[0]
            elif key in (".e", ".end"):
                break
            continue
        inputs, *outputs = line.split()
        kind = "".join(outputs)
        if kind == "1":
            on.append(text_cube(inputs))
        elif kind == "-":
            dc.append(text_cube(inputs))
        elif kind == "0" and type_ in ("fr", "fdr"):
            off.append(text_cube(inputs))
    if type_ in ("f", "fd"):
        off = reference_complement(on + dc, n)
    return LogicFunction(n, on, off, dc, name=name)


# Three-input, three-output golden truth table; output j is y_j.
TRI_OUTPUT_ROWS = [
    ("000", (1, 0, 1)),
    ("001", (0, 1, 1)),
    ("010", (0, 1, 1)),
    ("011", (0, 1, 0)),
    ("100", (1, 0, 0)),
    ("101", (1, 0, 1)),
    ("110", (0, 1, 1)),
    ("111", (1, 0, 1)),
]

TRI_OUTPUT_COVER = {
    ("x00", frozenset({0})),
    ("1x1", frozenset({0, 2})),
    ("00x", frozenset({2})),
    ("x10", frozenset({1, 2})),
    ("0x1", frozenset({1})),
}


def tri_output_function() -> MultiFunction:
    return multi_function(3, 3, TRI_OUTPUT_ROWS, name="trioutput")


TRI_OUTPUT_PLA = """\
.i 3
.o 3
.ob y0 y1 y2
.type fr
000 101
001 011
010 011
011 010
100 100
101 101
110 011
111 101
.e
"""


def five_var_pla() -> str:
    lines = [".i 5", ".o 1", ".type fr"]
    lines += [f"{t} 1" for t in FIVE_VAR_ON]
    lines += [f"{t} 0" for t in FIVE_VAR_OFF]
    lines.append(".e")
    return "\n".join(lines) + "\n"


def random_function(
    rng: random.Random,
    n: int,
    *,
    p_on: float = 0.45,
    p_off: float = 0.45,
) -> LogicFunction:
    """Random minterm partition with nonempty on-set and off-set."""
    while True:
        on: list[int] = []
        off: list[int] = []
        for v in range(1 << n):
            r = rng.random()
            if r < p_on:
                on.append(v)
            elif r < p_on + p_off:
                off.append(v)
        if on and off:
            return LogicFunction(
                n,
                tuple(minterm_to_cube(BitVec(n, v)) for v in on),
                tuple(minterm_to_cube(BitVec(n, v)) for v in off),
            )


def random_cube(rng: random.Random, n: int, dc_prob: float = 0.4) -> Cube:
    left = right = 0
    for _ in range(n):
        left <<= 1
        right <<= 1
        r = rng.random()
        if r < dc_prob:
            left |= 1
            right |= 1
        elif r < dc_prob + (1 - dc_prob) / 2:
            left |= 1
        else:
            right |= 1
    return Cube(BitVec(n, left), BitVec(n, right))


def enumerate_all_cubes(n: int):
    """Every nonempty cube over n variables (3**n of them)."""
    for choices in itertools.product("01x", repeat=n):
        left = right = 0
        for ch in choices:
            left <<= 1
            right <<= 1
            if ch == "0":
                left |= 1
            elif ch == "1":
                right |= 1
            else:
                left |= 1
                right |= 1
        yield Cube(BitVec(n, left), BitVec(n, right))


def naive_primes(f: LogicFunction) -> set[Cube]:
    """All primes by filtering every cube: implicant and maximal."""
    off_values = set()
    for z in f.off:
        off_values.update(m.value for m in z.minterms())

    def is_implicant(c: Cube) -> bool:
        return all(m.value not in off_values for m in c.minterms())

    primes = set()
    for c in enumerate_all_cubes(f.n):
        if not is_implicant(c):
            continue
        maximal = True
        for pos in range(f.n):
            if c.specified_mask >> pos & 1 and is_implicant(reference_raise_literal(c, pos)):
                maximal = False
                break
        if maximal:
            primes.add(c)
    return primes


# Pairwise references for the sliced set algebra: one reference_intersects
# or covers_value call per pair, as the library computed these before.


def reference_validate(on, off) -> None:
    """The pairwise consistency check of the on-cubes against the off-cubes."""
    for a in on:
        for b in off:
            if reference_intersects(a, b):
                raise InconsistentFunction(f"on-cube {a} intersects off-cube {b}")


def reference_coverage_mask(pi: Cube, on_minterms) -> BitVec:
    width = len(on_minterms)
    bits = 0
    for i, m in enumerate(on_minterms):
        if pi.covers_value(m.value):
            bits |= 1 << (width - 1 - i)
    return BitVec(width, bits)


def reference_on_minterms(f: LogicFunction) -> list[BitVec]:
    """On-minterms in ascending order, each once, one ``Cube.minterms()``
    call per cube."""
    out = {m.value: m for c in f.on for m in c.minterms()}
    return [out[v] for v in sorted(out)]


def pairwise_verify_cover(cover, f: LogicFunction) -> CoverReport:
    """``verify_cover`` one cube pair at a time, on the cover's ``Cube``s;
    the report names each cube and off-cube by its pair, as
    ``verify_cover`` does."""
    pairs = list(cover.cubes) if isinstance(cover, CoverResult) else list(cover)
    cubes = list(zip(pairs, as_cubes(pairs, f.n)))
    missing = [
        m
        for m in reference_on_minterms(f)
        if not any(c.covers_value(m.value) for _, c in cubes)
    ]
    off_conflicts = [
        (pair, cube_pair(z)) for pair, c in cubes for z in f.off if reference_intersects(c, z)
    ]
    removable = []
    for pair, c in cubes:
        for pos in range(c.width):
            if not c.specified_mask >> pos & 1:
                continue
            raised = reference_raise_literal(c, pos)
            if not any(reference_intersects(raised, z) for z in f.off):
                removable.append((pair, c.width - 1 - pos))
    return CoverReport(tuple(missing), tuple(off_conflicts), tuple(removable))


def reference_verify_cover(cover, f: LogicFunction) -> CoverReport:
    """``verify_cover`` on the listed sets at every width: the on-minterms
    and the off-cubes sliced, one off-set query per cube and one per
    raised literal, and each cube's off-conflicts listed from its mask.
    The checks read the cover's ``Cube``s; the report names each cube and
    off-cube by its pair, as ``verify_cover`` does."""
    pairs = list(cover.cubes) if isinstance(cover, CoverResult) else list(cover)
    cubes = list(zip(pairs, as_cubes(pairs, f.n)))
    on_values = [m.value for m in reference_on_minterms(f)]
    on = Slices.of_minterms(on_values, f.n)
    off = Slices([(z.left.value, z.right.value) for z in f.off], f.n)
    uncovered = (1 << on.count) - 1
    for _, c in cubes:
        uncovered &= ~on.meets(c.left.value, c.right.value)
    missing = [
        BitVec(f.n, v) for v in mask_members(BitVec(on.count, uncovered), on_values)
    ]
    off_conflicts = []
    removable = []
    for pair, c in cubes:
        off_conflicts.extend(
            (pair, cube_pair(z)) for z in mask_members(off.mask_of(c), f.off)
        )
        left, right, spec = c.left.value, c.right.value, c.specified_mask
        for pos in range(c.width):
            bit = 1 << pos
            if spec & bit and not off.meets(left | bit, right | bit):
                removable.append((pair, c.width - 1 - pos))
    return CoverReport(tuple(missing), tuple(off_conflicts), tuple(removable))


# BitVec references for the int-native generator core: the fold, the
# clause expansion, absorption and cube text as the library computed
# them one carrier object at a time.


def reference_generate_di(P: BitVec, Z) -> BitVec:
    Z = minterm_to_cube(Z) if isinstance(Z, BitVec) else Z
    if P.width != Z.width:
        raise ValueError(f"width mismatch: {P.width} vs {Z.width}")
    d = (P.value ^ Z.right.value) & Z.specified_mask
    if d == 0:
        raise InconsistentFunction(f"minterm {P} is contained in off-cube {Z}")
    return BitVec(P.width, d)


def reference_reform_sdm(S: DiSet, D: BitVec) -> DiSet:
    if D.value == 0:
        raise ValueError("zero difference indicator")
    if S.elements and S.elements[0].width != D.width:
        raise ValueError(f"width mismatch: {S.elements[0].width} vs {D.width}")
    dv = D.value
    removed: list[int] = []
    for idx, s in enumerate(S.elements):
        S.comparisons += 1
        a = s.value & dv
        if a == s.value:
            S.absorptions += 1
            return S
        if a == dv:
            removed.append(idx)
    for idx in reversed(removed):
        del S.elements[idx]
    S.absorptions += len(removed)
    bisect.insort(S.elements, D)
    return S


def reference_generate_sdm(P: BitVec, off_cubes) -> DiSet:
    off = [minterm_to_cube(z) if isinstance(z, BitVec) else z for z in off_cubes]
    if not off:
        raise EmptyOffset("off-set is empty; every point is coverable by the universal cube")
    S = DiSet([BitVec.ones(P.width)])
    for Z in off:
        reference_reform_sdm(S, reference_generate_di(P, Z))
    return S


def reference_minimize_n(vectors) -> list[BitVec]:
    kept: list[BitVec] = []
    for i, v in enumerate(vectors):
        redundant = False
        for j, u in enumerate(vectors):
            if j == i:
                continue
            if u.value == v.value:
                if j < i:
                    redundant = True
                    break
                continue
            if u.value & v.value == u.value:
                redundant = True
                break
        if not redundant:
            kept.append(v)
    return kept


def reference_cross_or(n_vectors, m_vectors) -> list[BitVec]:
    if not n_vectors:
        raise ValueError("vector set must be seeded with the all-zeros vector")
    if not m_vectors:
        raise ValueError("clause set must be nonempty")
    return reference_minimize_n([e | v for e in n_vectors for v in m_vectors])


def reference_generate_n(dis) -> list[BitVec]:
    seq = list(dis)
    n_vectors = [BitVec.zeros(seq[0].width)]
    for d in seq:
        clauses = [BitVec(d.width, 1 << p) for p in range(d.width) if d.value >> p & 1]
        n_vectors = reference_cross_or(n_vectors, clauses)
    return n_vectors


def reference_minimize_sr(cubes) -> list[Cube]:
    seq = list(cubes)
    kept: list[Cube] = []
    for i, c in enumerate(seq):
        redundant = False
        for j, other in enumerate(seq):
            if j == i:
                continue
            if other == c:
                if j < i:
                    redundant = True
                    break
                continue
            if cube_contains(other, c):
                redundant = True
                break
        if not redundant:
            kept.append(c)
    return kept


def reference_cube_text(c: Cube) -> str:
    chars = []
    for pos in range(c.width - 1, -1, -1):
        pair = (c.left.value >> pos & 1, c.right.value >> pos & 1)
        chars.append({(1, 0): "0", (0, 1): "1", (1, 1): "x"}[pair])
    return "".join(chars)


def reference_text_cube(s: str) -> Cube:
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


# One clause expansion as it ran before Berge's step: every product of a
# vector with a clause bit, then absorption over all of them.


def reference_expand(vectors: list[int], d: int) -> list[int]:
    bits = [1 << i for i in range(d.bit_length()) if d >> i & 1]
    return minimal_ones([e | b for e in vectors for b in bits])


# The prime generator as it ran on carriers: the listed fold, then the
# reference clause expansion and one Cube per vector, sorted by cube text.


def reference_generate_spi(P: BitVec, off_cubes) -> list[Cube]:
    try:
        sdm = generate_sdm(P, list(off_cubes))
    except EmptyOffset:
        return [Cube.universal(P.width)]
    vectors = [0]
    for d in sdm.elements:
        vectors = reference_expand(vectors, d.value)
    return sorted(vectors_to_pis(P, [BitVec(P.width, v) for v in vectors]), key=cube_text)


def reference_find_dominant(restricted) -> int | None:
    """Index of the mask strictly containing every other one, if any, by
    a pairwise scan."""
    for i, r in enumerate(restricted):
        if all(
            (o | r) == r and o != r for j, o in enumerate(restricted) if j != i
        ):
            return i
    return None


# The direct cover loop as it ran on carriers: the listed off-cubes go to
# reference_generate_spi on every origin, and candidates are (Cube, mask)
# pairs chosen by dominance, uncovered count and cube text.


def reference_direct_cover(f: LogicFunction) -> CoverResult:
    if not f.on:
        raise EmptyOnset("the on-set is empty")
    on_list = reference_on_minterms(f)
    on = Slices.of_minterms([m.value for m in on_list], f.n)
    width = len(on_list)
    chosen: list[Cube] = []
    uncovered = (1 << width) - 1
    iterations = 0
    while uncovered:
        origin = on_list[width - uncovered.bit_length()]
        candidates = [
            (pi, on.mask_of(pi)) for pi in reference_generate_spi(origin, f.off)
        ]
        restricted = [mask.value & uncovered for _, mask in candidates]
        idx = reference_find_dominant(restricted)
        if idx is None:
            idx = min(
                range(len(candidates)),
                key=lambda i: (-restricted[i].bit_count(), cube_text(candidates[i][0])),
            )
        cube, mask = candidates[idx]
        chosen.append(cube)
        uncovered &= ~mask.value
        iterations += 1
    return CoverResult(tuple(cube_pair(c) for c in chosen), iterations)


# References for the multi-output loop: the joint off-set built by a
# per-output scan of all 2^n minterms, and the loop that rebuilds every
# row's current tag from a set of covered (minterm, output) pairs each
# iteration and scores lookahead neighbours one containment test each.


def reference_subfunction_off(tag, f: MultiFunction) -> list[Cube]:
    if not tag:
        raise ValueError("empty output tag")
    values = {m.value: vals for m, vals in rows_of(f)}
    out: list[Cube] = []
    for v in range(1 << f.n):
        vals = values.get(v)
        if vals is None:
            out.append(minterm_to_cube(BitVec(f.n, v)))
            continue
        if any(vals[j] == 0 for j in tag):
            out.append(minterm_to_cube(BitVec(f.n, v)))
    return out


def reference_current_tags(rows, covered: set[tuple[int, int]]) -> dict[int, frozenset[int]]:
    tags: dict[int, frozenset[int]] = {}
    for m, values in rows:
        cur = frozenset(
            j for j, v in enumerate(values) if v == 1 and (m.value, j) not in covered
        )
        if cur:
            tags[m.value] = cur
    return tags


def reference_best_pi(minterm: BitVec, off) -> Cube:
    pis = reference_generate_spi(minterm, off)
    return min(pis, key=lambda c: (c.literal_count, cube_text(c)))


def reference_edsa_minimize(f: MultiFunction) -> list[TaggedCube]:
    f_rows = rows_of(f)
    if not any(v == 1 for _, values in f_rows for v in values):
        raise EmptyOnset("no output is ever true")
    covered: set[tuple[int, int]] = set()
    committed: list[tuple[Cube, frozenset[int]]] = []
    off_by_tag: dict[frozenset[int], list[Cube]] = {}

    def off_of(tag: frozenset[int]) -> list[Cube]:
        off = off_by_tag.get(tag)
        if off is None:
            off = off_by_tag[tag] = reference_subfunction_off(tag, f)
        return off

    rows = Slices.of_minterms([m.value for m, _ in f_rows], f.n)

    def commit(cube: Cube, tag: frozenset[int]) -> None:
        if (cube, tag) not in committed:
            committed.append((cube, tag))
        for m, values in mask_members(rows.mask_of(cube), f_rows):
            for j in tag:
                if values[j] == 1:
                    covered.add((m.value, j))

    while True:
        tags = reference_current_tags(f_rows, covered)
        if not tags:
            break
        origin_value = min(tags, key=lambda v: (len(tags[v]), v))
        origin = BitVec(f.n, origin_value)
        tag = tags[origin_value]
        pis = reference_generate_spi(origin, off_of(tag))
        universe = [v for v in sorted(tags) if tag <= tags[v]]
        sliced = Slices.of_minterms(universe, f.n)
        candidates = [(pi, sliced.mask_of(pi)) for pi in pis]
        restricted = [mask.value for _, mask in candidates]
        dom = reference_find_dominant(restricted)
        if dom is not None or len(candidates) == 1:
            commit(candidates[dom if dom is not None else 0][0], tag)
            continue
        union = 0
        inter = (1 << len(universe)) - 1
        for r in restricted:
            union |= r
            inter &= r
        width = len(universe)
        neighbor_values = [
            universe[i]
            for i in range(width)
            if (union & ~inter) >> (width - 1 - i) & 1
        ]
        best_by_neighbor = {
            nv: reference_best_pi(BitVec(f.n, nv), off_of(tags[nv]))
            for nv in neighbor_values
        }

        def score(item):
            cube, mask = item
            survivors = [nv for nv in neighbor_values if not cube.covers_value(nv)]
            if survivors:
                quality = min(best_by_neighbor[nv].literal_count for nv in survivors)
            else:
                quality = math.inf
            return (quality, -mask.popcount, cube_text(cube))

        winner = min(candidates, key=score)
        commit(winner[0], tag)
        survivors = [nv for nv in neighbor_values if not winner[0].covers_value(nv)]
        if survivors:
            best_nv = min(
                survivors,
                key=lambda nv: (best_by_neighbor[nv].literal_count, nv),
            )
            commit(best_by_neighbor[best_nv], tags[best_nv])
    return [tagged_cube(cube, tag) for cube, tag in committed]


def reference_verify_multi(cover, f: MultiFunction) -> CoverReport:
    """The three tagged-cover checks, one minterm at a time, on each
    cube's ``Cube`` and frozenset of outputs; the report names each
    ``TaggedCube`` as ``verify_multi`` does."""
    n = f.n
    values = {m.value: vals for m, vals in rows_of(f)}

    def is_off(tag, v: int) -> bool:
        vals = values.get(v)
        return vals is None or any(vals[j] == 0 for j in tag)

    read = [(tc, text_cube(text), tag) for tc, (text, tag) in zip(cover, as_cubes(cover, n))]
    missing = [
        (BitVec(n, v), j)
        for j in range(f.m)
        for v in range(1 << n)
        if v in values
        and values[v][j] == 1
        and not any(j in tag and cube.covers_value(v) for _, cube, tag in read)
    ]
    off_conflicts = [
        (tc, BitVec(n, v))
        for tc, cube, tag in read
        for v in range(1 << n)
        if cube.covers_value(v) and is_off(tag, v)
    ]
    removable = []
    for tc, cube, tag in read:
        for pos in range(n):
            if cube.specified_mask >> pos & 1:
                raised = reference_raise_literal(cube, pos)
                if not any(
                    raised.covers_value(v) and is_off(tag, v) for v in range(1 << n)
                ):
                    removable.append((tc, n - 1 - pos))
    return CoverReport(tuple(missing), tuple(off_conflicts), tuple(removable))


# Acceptance bookkeeping, printed in the terminal summary by conftest.
ACCEPTANCE_RESULTS: list[tuple[int, bool, str]] = []


def record_acceptance(number: int, ok: bool, detail: str) -> None:
    ACCEPTANCE_RESULTS.append((number, ok, detail))
    state = "PASS" if ok else "FAIL"
    print(f"acceptance {number}: {state} ({detail})")
    assert ok, f"acceptance {number} failed: {detail}"
