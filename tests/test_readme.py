import re
from pathlib import Path
from types import ModuleType

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_example_runs():
    # the documented example must keep working as the package's names change
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None
    exec(compile(block.group(1), "README.md", "exec"), {})


def test_star_import_binds_functions_and_classes_only():
    import shapcount
    from shapcount import boolfunc, circuit, lineage, reductions

    namespace = {}
    exec("from shapcount import *", namespace)
    assert [name for name in shapcount.__all__ if isinstance(namespace[name], ModuleType)] == []
    # helpers that only duplicated another are gone
    for name in ("vandermonde_solve", "coefficients", "literal_occurrences"):
        assert name not in shapcount.__all__
        assert not hasattr(reductions, name) and not hasattr(circuit, name)
    # references only the tests use live in tests/helpers.py
    moved = (
        "or_substitute",
        "and_substitute",
        "GroupedSubstitution",
        "_grouped_substitute",
        "_rebuild",
        "unfold",
        "lineage_by_active_domain",
        "active_domain",
        "shapley_circuit",
    )
    for name in moved:
        assert name not in shapcount.__all__
        assert not any(hasattr(module, name) for module in (boolfunc, circuit, lineage))
    assert not hasattr(lineage.Database, "active_domain")
    # the expression-node layer is gone: functions are written as gates,
    # and no test-only copy of the nodes stands in for it
    import helpers

    nodes = (
        "BoolFunc", "Const", "Var", "Not", "And", "Or", "Node",
        "conjunction", "disjunction", "TRUE", "FALSE",
    )
    for name in nodes:
        assert name not in shapcount.__all__
        assert not hasattr(boolfunc, name)
        assert name not in vars(helpers)


def test_readme_lists_every_exported_name():
    import shapcount

    text = README.read_text(encoding="utf-8").split("The package exports these names", 1)[1]
    listing = text.split("\n\n", 2)[1]
    names = re.findall(r"`(\w+)`", listing)
    assert sorted(names) == shapcount.__all__
