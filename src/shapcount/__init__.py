"""Exact Shapley values for Boolean functions via model counting.

The package has four layers: Boolean functions as gate DAGs, one
`Circuit` type for formulas, d-D circuits and lineage alike, which the
parsers (formats) and generators (gen) write gate by gate, with
brute-force ground-truth oracles (boolfunc), the rational-arithmetic
reductions tying Shapley values to model counting (reductions), the
linear-time passes over deterministic-decomposable circuits (circuit), and
conjunctive-query lineage with the hierarchical dichotomy (lineage).  The
cli module wires them into a command-line tool.
"""

from types import ModuleType as _ModuleType

from .boolfunc import (
    Circuit,
    brute_count,
    brute_kcounts,
    brute_shapley_permutations,
    brute_shapley_subsets,
    evaluate,
)
from .circuit import (
    CircuitBuilder,
    check_decomposable,
    check_deterministic_exhaustive,
    kcounts_circuit,
    model_count_dd,
    parse_nnf,
    shapley_direct,
    size_polynomial_count,
    validate,
)
from .errors import InconsistencyError, InputError, RefusalError
from .formats import format_sexpr, parse_dimacs, parse_function, parse_sexpr
from .lineage import (
    Database,
    Query,
    Schema,
    build_lineage,
    compile_hierarchical_lineage,
    is_hierarchical,
    is_self_join_free,
    parse_query,
    pp2dnf_instance,
    shapley_tuples,
    stretch_database_dummy,
    stretch_database_expand,
    stretch_query,
)
from .reductions import (
    count_from_shapley,
    expansion_weights,
    kcounts_from_counts,
    kcounts_from_counts_and,
    shapley_from_kcounts,
)

__version__ = "0.1.0"

# the submodules bind here too once imported; they are not exported names
__all__ = [
    name for name, value in sorted(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
