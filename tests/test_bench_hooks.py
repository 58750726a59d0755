"""Every benchmark span still has a function of the package to time."""

import ast
import dataclasses
import importlib
import pathlib
from unittest import mock

import oniontrust.cli
import oniontrust.graph
import oniontrust.simulation
from oniontrust import DrawMode, GeneratorParams, SimScenario, Strategy, generate_graph

from helpers import default_rules

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


def test_calibration_and_generate_call_the_hooked_circle_sizes(tmp_path, capsys):
    # graph.calibrate times graph._mean_circle_size, and
    # graph.mean_circle_size the function the CLI's generate summary calls
    sizes = oniontrust.graph._mean_circle_size
    with mock.patch.object(oniontrust.graph, "_mean_circle_size", wraps=sizes) as step:
        generate_graph(GeneratorParams(n=60, kind="calibrated", value=0.5), seed=3)
    assert step.called
    summary = oniontrust.cli.mean_circle_size
    assert summary is oniontrust.graph.mean_circle_size
    with mock.patch.object(oniontrust.cli, "mean_circle_size", wraps=summary) as size:
        assert oniontrust.cli.main(["generate", "--n", "30", "--out", str(tmp_path)]) == 0
    assert size.called
    assert "mean circle size" in capsys.readouterr().out


def test_run_simulation_calls_the_hooked_round_runners():
    # simulation.run_circuit_rounds and simulation.run_selection_rounds time
    # these two; a run_simulation that went straight to the shared runner
    # would leave both spans at 0
    scenario = SimScenario(
        strategy=Strategy.OPPORTUNISTIC_TOR, fraction=0.1, n=30, generator_kind="er",
        generator_value=0.2, rounds=2, draws=5,
    )
    graph = oniontrust.simulation.build_scenario_graph(scenario, default_rules())
    for draw_mode, name in (
        (DrawMode.CIRCUIT, "run_circuit_rounds"),
        (DrawMode.SELECT, "run_selection_rounds"),
    ):
        runner = getattr(oniontrust.simulation, name)
        with mock.patch.object(oniontrust.simulation, name, wraps=runner) as hooked:
            oniontrust.simulation.run_simulation(
                graph, dataclasses.replace(scenario, draw_mode=draw_mode)
            )
        assert hooked.call_count == 1, name
