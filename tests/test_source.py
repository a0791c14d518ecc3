"""Guards over the package source itself."""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import grrdecomp
from grrdecomp import multicut


def test_package_has_no_assert_statements():
    # python -O strips assert: a budget or an invariant must be checked
    # before the work starts, by a test that raises
    root = Path(grrdecomp.__file__).parent
    found = [f"{path.relative_to(root)}:{node.lineno}"
             for path in sorted(root.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def _named_defs():
    """(label, name, is a method) for each def or class at the top of a
    package module and each public method or property of its classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted(Path(grrdecomp.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (*defs, ast.ClassDef)):
                yield f"{path.name}:{node.name}", node.name, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, defs) and item.name[0] != "_":
                        yield (f"{path.name}:{node.name}.{item.name}",
                               item.name, True)


def test_every_top_level_name_has_a_reader():
    # a helper whose callers were deleted must go with them: each def or
    # class at the top of a package module is named again somewhere in
    # the sources, tests, demos or the bench, and each public method or
    # property of its classes is read there as an attribute, .name
    repo = Path(grrdecomp.__file__).resolve().parents[2]
    texts = [path.read_text(encoding="utf-8")
             for top in ("src", "tests", "demos", "perfbench")
             for path in sorted((repo / top).rglob("*.py"))]
    words = Counter(w for t in texts for w in re.findall(r"\w+", t))
    attrs = Counter(w for t in texts for w in re.findall(r"\.(\w+)", t))
    unread = [label for label, name, method in _named_defs()
              if (attrs[name] < 1 if method else words[name] < 2)]
    assert unread == []


def _perfbench_spans() -> dict:
    """The names perfbench/spans.py defines, run from its source text so
    that nothing is written next to it."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    names: dict = {"__name__": "perfbench_spans"}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), names)
    return names


def test_bench_tracer_names_resolve_in_the_package():
    # the bench's tracer rebinds these by name; a renamed or deleted
    # function would stop it with an AttributeError
    spans = _perfbench_spans()
    for table in (spans["SPANNED"], spans["COUNTED"]):
        for home, names in table.items():
            module = importlib.import_module(f"grrdecomp.{home}")
            for name in names:
                assert callable(getattr(module, name, None)), f"{home}.{name}"
    assert callable(multicut.MulticutInstance.path_edges)
    # self times are split by call site, so these sites must call the
    # function by the name they bind
    for key in (k for keys in spans["SELF_TIME"].values() for k in keys):
        if isinstance(key, tuple):
            (home, name), site = key[0].split("."), key[1]
            module = importlib.import_module(f"grrdecomp.{site}")
            fn = getattr(importlib.import_module(f"grrdecomp.{home}"), name)
            assert vars(module).get(name) is fn, key
            calls = {node.func.id for node in ast.walk(ast.parse(
                Path(module.__file__).read_text(encoding="utf-8")))
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)}
            assert name in calls, key
