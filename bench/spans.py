"""Per-layer spans recorded from outside the program.

`Tracer.install()` replaces every public function defined in a `shapcount`
module by a timing wrapper, in every module namespace (and module-level
dict table, such as the CLI's verb table) that binds it; `restore()` puts
the originals back.  Spans stay in memory: each is [layer, function, start,
end, parent index, attributes].  A layer is named after its module; self time
is a span's duration minus the time covered by its child spans.

While installed, the tracer also counts violations of two rules on the
values flowing through the wrapped calls: substitution growth within 6*k*ell
gates (the paper's bound), and the exact oracle-call count of every
reduction.  Shapley efficiency and the k-count range are checked per case by
the harness, on the CLI outputs.
"""

from __future__ import annotations

import functools
import inspect
import sys
import types
from fractions import Fraction
from time import perf_counter

# layer of each public function, by defining module; the rest of a module
# falls into "<module>.other", and cli.cmd_<verb> into "cli.<verb>"
LAYERS = {
    "formats": {
        "parse_sexpr": "parse",
        "parse_dimacs": "parse",
        "parse_function": "parse",
    },
    "boolfunc": {
        "truth_table": "truth_table",
        "or_substituted_count": "oracle",
        "and_substituted_count": "oracle",
        "or_substituted_kcounts": "oracle",
        "or_substituted_shapley": "oracle",
        "brute_count": "brute",
        "brute_kcounts": "brute",
        "brute_shapley_permutations": "brute",
        "brute_shapley_subsets": "brute",
    },
    "reductions": {
        "solve_exact": "solve",
        "vandermonde_solve": "solve",
        "coefficients": "glue",
        "kcounts_from_counts": "glue",
        "kcounts_from_counts_and": "glue",
        "shapley_from_kcounts": "glue",
        "expansion_weights": "glue",
        "count_from_shapley": "glue",
    },
    "circuit": {
        "parse_nnf": "parse",
        "validate": "validate",
        "check_decomposable": "validate",
        "check_deterministic_exhaustive": "validate",
        "gate_tables": "validate",
        "or_substitute_circuit": "substitute",
        "or_substitute_all": "substitute",
        "model_count_dd": "count",
        "size_polynomial_count": "size_poly",
        "kcounts_circuit": "pipeline",
        "shapley_circuit": "pipeline",
    },
    "lineage": {
        "parse_schema": "load",
        "parse_query": "load",
        "load_database": "load",
        "build_lineage": "build",
        "lineage_by_active_domain": "build",
        "compile_hierarchical_lineage": "compile",
        "stretch_query": "stretch",
        "stretch_database_dummy": "stretch",
        "stretch_database_expand": "stretch",
        "write_database": "stretch",
    },
}

# the one function per layer whose spans the layer's `calls` counts (None:
# every span of the layer; layers not listed also count every span)
CALLS = {
    "formats.parse": "parse_function",
    "boolfunc.truth_table": "truth_table",
    "boolfunc.oracle": None,  # every oracle evaluation
    "reductions.solve": "solve_exact",
    "circuit.substitute": "or_substitute_circuit",
    "circuit.count": "model_count_dd",
    "circuit.size_poly": "size_polynomial_count",
}

# oracle calls each reduction must make, as a function of n
EXPECTED_ORACLE_CALLS = {
    "kcounts_from_counts": lambda n: n + 1,
    "kcounts_from_counts_and": lambda n: n + 1,
    "shapley_from_kcounts": lambda n: n + 1 if n else 0,
    "count_from_shapley": lambda n: n * n,
}

CHECK_LAYER = "bench.check"


def layer_of(module: str, name: str) -> str:
    if module == "cli" and name.startswith("cmd_"):
        return "cli." + name[len("cmd_") :]
    return f"{module}.{LAYERS.get(module, {}).get(name, 'other')}"


def max_bits(value) -> int:
    """Bit length of the largest integer in a result (numerator or
    denominator for fractions), looking through tuples and lists."""
    if isinstance(value, bool):
        return 0
    if isinstance(value, int):
        return abs(value).bit_length()
    if isinstance(value, Fraction):
        return max(abs(value.numerator).bit_length(), value.denominator.bit_length())
    if isinstance(value, (tuple, list)):
        return max((max_bits(v) for v in value), default=0)
    return 0


def shapcount_modules():
    """Every loaded `shapcount` module, the package itself included."""
    return [
        module
        for name, module in sorted(sys.modules.items())
        if isinstance(module, types.ModuleType)
        and (name == "shapcount" or name.startswith("shapcount."))
    ]


def bindings():
    """(namespace, key, value) for every module-level binding of a public
    shapcount function, including values of module-level dicts."""
    out = []
    for module in shapcount_modules():
        for key, value in list(vars(module).items()):
            if _is_target(value):
                out.append((vars(module), key, value))
            elif isinstance(value, dict) and not key.startswith("__"):
                for dkey, dvalue in value.items():
                    if _is_target(dvalue):
                        out.append((value, dkey, dvalue))
    return out


def _is_target(value) -> bool:
    return (
        isinstance(value, types.FunctionType)
        and value.__module__.startswith("shapcount")
        and not value.__name__.startswith("_")
        and value.__qualname__ == value.__name__
    )


class Tracer:
    """Span recorder; install() for one traced pass, then restore()."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.violations = {"growth": 0, "oracle_calls": 0}
        self.oracle_calls = 0
        self._stack: list[int] = []
        self._patched: list[tuple[dict, object, object]] = []
        self._originals: dict[tuple[str, str], object] = {}

    # -- spans -------------------------------------------------------------

    def open(self, layer: str, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, name, perf_counter(), None, parent, None])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int, attrs: dict | None = None) -> None:
        span = self.spans[index]
        span[3] = perf_counter()
        span[5] = attrs
        self._stack.pop()

    # -- wrapping ----------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        found = bindings()
        self._originals = {(fn.__module__, fn.__name__): fn for _, _, fn in found}
        wrappers: dict[int, object] = {}
        for namespace, key, original in found:
            wrapper = wrappers.get(id(original))
            if wrapper is None:
                wrapper = wrappers[id(original)] = self._wrap(original)
            namespace[key] = wrapper
            self._patched.append((namespace, key, original))

    def restore(self) -> None:
        for namespace, key, original in reversed(self._patched):
            namespace[key] = original
        self._patched.clear()

    def _wrap(self, fn):
        module = fn.__module__.rsplit(".", 1)[-1]
        name = fn.__name__
        layer = layer_of(module, name)
        expected_calls = EXPECTED_ORACLE_CALLS.get(name) if module == "reductions" else None
        growth = module == "circuit" and name == "or_substitute_circuit"
        signature = inspect.signature(fn) if expected_calls or growth else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counter = None
            if expected_calls is not None:
                bound = signature.bind(*args, **kwargs)
                counter = _CountingOracle(bound.arguments["oracle"])
                bound.arguments["oracle"] = counter
                args, kwargs = bound.args, bound.kwargs
            index = tracer.open(layer, name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(index)
                raise
            tracer.close(index, _attrs(layer, args, result))
            if counter is not None:
                tracer.oracle_calls += counter.calls
                if counter.calls != expected_calls(bound.arguments["n"]):
                    tracer.violations["oracle_calls"] += 1
            if growth:
                tracer._check_growth(signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def _check_growth(self, arguments, result) -> None:
        """Paper bound: substituting a variable with k literal occurrences by
        a width-ell disjunction adds at most 6*k*ell gates."""
        index = self.open(CHECK_LAYER, "growth")
        literal_occurrences = self._originals[("shapcount.circuit", "literal_occurrences")]
        source, var, ell = arguments["circuit"], arguments["var"], arguments["ell"]
        grown = len(result.circuit.gates) - len(source.gates)
        if grown > 6 * literal_occurrences(source, var) * ell:
            self.violations["growth"] += 1
        self.close(index)


class _CountingOracle:
    def __init__(self, oracle):
        self.oracle = oracle
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.oracle(*args)


def _attrs(layer: str, args, result) -> dict | None:
    """Sizes recorded with a span, read off the wrapped call's result (and,
    for the exact solves, off the system they were given)."""
    if layer in ("circuit.parse", "lineage.compile"):
        return {"gates": len(result.gates)}
    if layer == "circuit.substitute" and hasattr(result, "circuit"):
        return {"gates_out": len(result.circuit.gates)}
    if layer == "circuit.validate" and hasattr(result, "determinism"):
        status = result.determinism
        if any("certified" in note for note in result.notes):
            status = "certified"
        return {"status": status}
    if layer == "reductions.solve":
        return {"bits": max(max_bits(args), max_bits(result))}
    if layer == "circuit.count":
        return {"bits": max_bits(result)}
    if layer == "circuit.size_poly":
        return {"bits": max_bits(result), "degree": len(result) - 1}
    if layer == "lineage.load" and hasattr(result, "rows"):
        return {"rows": sum(len(rows) for rows in result.rows.values())}
    if layer == "lineage.build" and hasattr(result, "clauses"):
        return {"clauses": len(result.clauses)}
    return None


def summarize(spans) -> dict:
    """Per-layer totals over a list of closed spans: self time, calls of the
    layer's counted function, and the sizes recorded in span attributes."""
    child_time = [0.0] * len(spans)
    for layer, name, start, end, parent, attrs in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for i, (layer, name, start, end, parent, attrs) in enumerate(spans):
        entry = out.setdefault(layer, {"self_s": 0.0, "calls": 0})
        entry["self_s"] += (end - start) - child_time[i]
        if CALLS.get(layer, name) in (None, name):
            entry["calls"] += 1
        for key, value in (attrs or {}).items():
            if key == "status":
                entry[value] = entry.get(value, 0) + 1
            elif key in ("bits", "degree"):
                entry["max_" + key] = max(entry.get("max_" + key, 0), value)
            else:
                entry[key] = entry.get(key, 0) + value
    return out
