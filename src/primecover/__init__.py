"""Two-level logic minimization.

The fast path computes, for any chosen on-minterm, the complete set of
prime implicants covering it from single-bit-vector difference
indicators of the off-set, then a greedy direct cover assembles a full
prime cover.  A multi-output mode covers tagged minterms jointly, and a
brute-force oracle provides ground truth at small variable counts.
The minimizing path never calls the oracle, so its names load it on
first access.
"""

from .bitcube import (
    BitVec,
    Cube,
    cube_contains,
    cube_text,
    minterm_to_cube,
    pair_text,
    text_cube,
)
from .cover import (
    CoverReport,
    CoverResult,
    coverage_mask,
    direct_cover,
    verify_cover,
)
from .errors import EmptyOffset, EmptyOnset, InconsistentFunction, PlaParseError
from .multi_output import (
    TaggedCube,
    edsa_minimize,
    subfunction_off,
    verify_multi,
)
from .pi_gen import (
    cross_or,
    generate_m,
    generate_n,
    generate_spi,
    minimize_n,
    vectors_to_pis,
)
from .pla_io import LogicFunction, MultiFunction, parse_pla, write_pla
from .reduced_offset import (
    DiSet,
    derive_rc,
    generate_di,
    generate_sdm,
    minimize_sr,
    reduce_off_cube,
    reform_sdm,
)

__version__ = "0.1.0"

__all__ = [
    "BitVec",
    "Cube",
    "CoverReport",
    "CoverResult",
    "DiSet",
    "EmptyOffset",
    "EmptyOnset",
    "InconsistentFunction",
    "LogicFunction",
    "MultiFunction",
    "PlaParseError",
    "TaggedCube",
    "TruthTable",
    "all_primes",
    "coverage_mask",
    "cross_or",
    "cube_contains",
    "cube_text",
    "derive_rc",
    "direct_cover",
    "edsa_minimize",
    "equivalent",
    "generate_di",
    "generate_m",
    "generate_n",
    "generate_sdm",
    "generate_spi",
    "minimize_n",
    "minimize_sr",
    "minimum_cover_size",
    "minterm_to_cube",
    "pair_text",
    "parse_pla",
    "reduce_off_cube",
    "reform_sdm",
    "subfunction_off",
    "text_cube",
    "vectors_to_pis",
    "verify_cover",
    "verify_multi",
    "write_pla",
]

_ORACLE_NAMES = ("TruthTable", "all_primes", "equivalent", "minimum_cover_size")


def __getattr__(name: str) -> object:
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
