"""Every benchmark span still has a function of the package to time."""

import ast
import importlib
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

#: Span names whose function is gone from the package on purpose; the
#: benchmark lists them as missing until it drops them.
KNOWN_MISSING = {"graph.friendship_circle"}


def tracer_hooks():
    """HOOKS as written in the tracer, read without running the tracer."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [
            getattr(target, "id", None) for target in node.targets
        ] == ["HOOKS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no HOOKS")


def test_every_tracer_hook_resolves():
    missing = set()
    for name, (module_name, attribute) in tracer_hooks().items():
        owner = importlib.import_module(module_name)
        for part in attribute.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.add(name)
    assert missing <= KNOWN_MISSING, sorted(missing - KNOWN_MISSING)
