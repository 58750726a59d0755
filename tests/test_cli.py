"""End-to-end command line runs, in process."""

import argparse
from collections import Counter
from importlib import resources

import pytest

from oniontrust import (
    AttributeProfile,
    FriendLink,
    SocialGraph,
    compute_trust_values,
    read_graph,
    read_rules,
)
from oniontrust.cli import build_parser, main

from helpers import reference_trust_scores_csv


WORKED_GRAPH = """\
entities 3
entity 1 bandwidth=100.0 malicious=0
entity 2 bandwidth=50.0 malicious=0
entity 3 bandwidth=25.0 malicious=0
link 1 2 network=1 q:freq=3.0 q:time=3.0 c:Major=POSITIVE c:Relationship=POSITIVE
link 1 3 network=1 q:freq=4.0 q:time=4.0 c:Major=POSITIVE c:Relationship=POSITIVE
"""

SCENARIO = """\
strategy = practical_stor
fraction = 0.2
n = 30
generator = er:0.3
rounds = 20
draws = 30
"""


def test_generate_writes_a_parseable_graph(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(
        ["generate", "--n", "20", "--generator", "er:0.3", "--seed", "3",
         "--out", str(out)]
    )
    assert rc == 0
    g = read_graph(out / "graph.txt")
    assert len(g) == 20
    assert "wrote" in capsys.readouterr().out


def test_generate_quiet_and_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        rc = main(
            ["generate", "--n", "15", "--generator", "er:0.4", "--seed", "9",
             "--out", str(out), "--quiet"]
        )
        assert rc == 0
    assert capsys.readouterr().out == ""
    assert (a / "graph.txt").read_bytes() == (b / "graph.txt").read_bytes()


def test_trust_scores_a_known_graph(tmp_path):
    graph_path = tmp_path / "graph.txt"
    graph_path.write_text(WORKED_GRAPH)
    rc = main(["trust", str(graph_path), "--out", str(tmp_path), "--quiet"])
    assert rc == 0
    link_rows = (tmp_path / "link_trust.csv").read_text().splitlines()
    assert link_rows[0] == "source,target,network,trust_value"
    assert link_rows[1] == "1,2,1,0.83125"
    assert link_rows[2] == "1,3,1,0.8333333333333333"
    score_rows = (tmp_path / "trust_scores.csv").read_text().splitlines()
    assert score_rows[1] == "1,2,0.83125,1"
    assert score_rows[2] == "1,3,0.8333333333333333,1"
    assert len(score_rows) == 3


@pytest.mark.parametrize("max_hops", ["1", "3"])
def test_trust_scores_equal_the_row_writer(tmp_path, max_hops):
    assert main(
        ["generate", "--n", "90", "--generator", "er:0.03", "--seed", "4",
         "--out", str(tmp_path), "--quiet"]
    ) == 0
    graph_path = tmp_path / "graph.txt"
    rc = main(
        ["trust", str(graph_path), "--max-hops", max_hops, "--out", str(tmp_path),
         "--quiet"]
    )
    assert rc == 0
    graph = read_graph(graph_path)
    compute_trust_values(graph, read_rules())
    want = reference_trust_scores_csv(graph, int(max_hops))
    assert (tmp_path / "trust_scores.csv").read_bytes() == want


def test_simulate_writes_rounds_and_cdf(tmp_path, capsys):
    scenario_path = tmp_path / "scenario.txt"
    scenario_path.write_text(SCENARIO)
    out = tmp_path / "out"
    rc = main(["simulate", str(scenario_path), "--out", str(out)])
    assert rc == 0
    rounds = (out / "rounds.csv").read_text().splitlines()
    assert rounds[0] == "round,r_mr,r_mc,avg_bandwidth,draws"
    assert len(rounds) == 21
    assert (out / "cdf_r_mr.csv").exists()
    assert not (out / "cdf_r_mc.csv").exists()
    assert "mean R_MR" in capsys.readouterr().out


def test_simulate_reruns_identically(tmp_path):
    scenario_path = tmp_path / "scenario.txt"
    scenario_path.write_text(SCENARIO)
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(["simulate", str(scenario_path), "--out", str(a), "--quiet"]) == 0
    assert main(["simulate", str(scenario_path), "--out", str(b), "--quiet"]) == 0
    assert (a / "rounds.csv").read_bytes() == (b / "rounds.csv").read_bytes()
    assert (a / "cdf_r_mr.csv").read_bytes() == (b / "cdf_r_mr.csv").read_bytes()
    # a different seed changes the outcome
    assert main(
        ["simulate", str(scenario_path), "--out", str(c), "--seed", "4", "--quiet"]
    ) == 0
    assert (a / "rounds.csv").read_bytes() != (c / "rounds.csv").read_bytes()


def test_simulate_circuit_mode_reports_compromise_cdf(tmp_path):
    scenario_path = tmp_path / "scenario.txt"
    scenario_path.write_text(
        "strategy = theoretical_stor\nfraction = 0.1\nn = 30\n"
        "generator = er:0.05\nrounds = 15\ndraws = 25\ndraw_mode = circuit\n"
    )
    out = tmp_path / "out"
    rc = main(["simulate", str(scenario_path), "--out", str(out), "--quiet"])
    assert rc == 0
    # flags never enter the circle, so both rates are exactly zero
    assert (out / "cdf_r_mr.csv").read_text() == (
        "value,cumulative_fraction\n0.0,1.0\n"
    )
    assert (out / "cdf_r_mc.csv").read_text() == (
        "value,cumulative_fraction\n0.0,1.0\n"
    )


def test_sweep_writes_per_value_rounds(tmp_path, capsys):
    scenario_path = tmp_path / "scenario.txt"
    scenario_path.write_text(SCENARIO)
    out = tmp_path / "out"
    rc = main(
        ["sweep", str(scenario_path), "--axis", "omega", "--values", "0.0,0.5",
         "--out", str(out)]
    )
    assert rc == 0
    assert (out / "sweep.csv").exists()
    assert (out / "rounds_omega_0.0.csv").exists()
    assert (out / "rounds_omega_0.5.csv").exists()
    sweep_rows = (out / "sweep.csv").read_text().splitlines()
    assert len(sweep_rows) == 3
    assert sweep_rows[1].startswith("omega,0.0,")
    stdout = capsys.readouterr().out
    assert "omega=0.5" in stdout


def test_errors_exit_with_code_one(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("strategy = original_tor\nfraction = 0.1\nbudget = 3\n")
    assert main(["simulate", str(bad), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "budget" in err
    missing = tmp_path / "nope.txt"
    assert main(["simulate", str(missing), "--out", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err
    scenario_path = tmp_path / "scenario.txt"
    scenario_path.write_text(SCENARIO)
    assert main(
        ["sweep", str(scenario_path), "--axis", "omega", "--values", "a,b",
         "--out", str(tmp_path)]
    ) == 1
    assert "sweep values" in capsys.readouterr().err


def test_an_all_zero_attribute_gives_one_error_line(tmp_path, capsys):
    graph_path = tmp_path / "graph.txt"
    graph_path.write_text(
        "entities 2\n"
        "entity 1 bandwidth=1.0 malicious=0\n"
        "entity 2 bandwidth=1.0 malicious=0\n"
        "link 1 2 network=1 q:freq=0.0 q:time=1.0 c:Major=POSITIVE c:Relationship=POSITIVE\n"
    )
    out = tmp_path / "out"
    assert main(["trust", str(graph_path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "error: link 1->2 network 1: normalizer for 'freq' is 0.0: the attribute's "
        "maximum over the source's links on that network is not positive\n"
    )
    assert captured.out == ""
    assert not out.exists()


def test_an_id_outside_int64_gives_one_error_line(tmp_path, capsys):
    graph_path = tmp_path / "graph.txt"
    graph_path.write_text(
        "entities 2\n"
        "entity 1 bandwidth=1 malicious=0\n"
        "entity 99999999999999999999 bandwidth=1 malicious=0\n"
    )
    assert main(["trust", str(graph_path), "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: line 3: entity id 99999999999999999999 is outside int64\n"
    assert "Traceback" not in captured.err


def test_a_link_without_qualitative_attributes_is_named(tmp_path, capsys):
    graph_path = tmp_path / "graph.txt"
    graph_path.write_text(
        "entities 3\n"
        "entity 1 bandwidth=1.0 malicious=0\n"
        "entity 2 bandwidth=1.0 malicious=0\n"
        "entity 3 bandwidth=1.0 malicious=0\n"
        "link 1 2 network=1 q:freq=1.0 q:time=1.0 c:Major=POSITIVE\n"
        "link 1 3 network=1 q:freq=1.0 q:time=1.0\n"
    )
    out = tmp_path / "out"
    assert main(["trust", str(graph_path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "error: link 1->3 network 1: link has no qualitative assignments\n"
    )
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("token", ["nan", "inf", "40.7"])
def test_sweep_n_axis_names_a_bad_value(tmp_path, capsys, token):
    scenario_path = tmp_path / "scenario.txt"
    scenario_path.write_text(SCENARIO)
    rc = main(
        ["sweep", str(scenario_path), "--axis", "n", "--values", "30," + token,
         "--out", str(tmp_path / "out")]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: n must be a whole number, got %r\n" % float(token)
    assert not (tmp_path / "out" / "sweep.csv").exists()


@pytest.mark.parametrize(
    "argv, scenario, message",
    [
        (["simulate", "{scenario}"], SCENARIO + "seed = -1\n", "seed must be >= 0, got -1"),
        (["simulate", "{scenario}", "--seed", "-3"], SCENARIO, "seed must be >= 0, got -3"),
        (["sweep", "{scenario}", "--axis", "omega", "--values", "0,0.5", "--seed", "-3"],
         SCENARIO, "seed must be >= 0, got -3"),
        (["generate", "--n", "20", "--seed", "-2"], None, "seed must be >= 0, got -2"),
        (["generate", "--n", "20", "--bandwidth-max", "nan"], None,
         "bandwidth_max must be positive and finite, got nan"),
        (["generate", "--n", "20", "--bandwidth-max", "inf"], None,
         "bandwidth_max must be positive and finite, got inf"),
        (["sweep", "{scenario}", "--axis", "omega", "--values", "0,0.5,2"], SCENARIO,
         "omega must be in [0, 1], got 2.0"),
        # a bad code names its line; a bad --generator names the option
        (["simulate", "{scenario}"], SCENARIO.replace("practical_stor", "nope"),
         "line 1: unknown strategy 'nope'"),
        (["simulate", "{scenario}"], SCENARIO + "case = sideways\n",
         "line 7: unknown correlation case 'sideways'"),
        (["generate", "--n", "20", "--generator", "ba:0.3"], None,
         "--generator: unknown generator kind 'ba'"),
        (["generate", "--n", "20", "--generator", "er:x"], None,
         "--generator: bad generator parameter 'x'"),
        (["generate", "--n", "20", "--generator", "er:1.5"], None,
         "er edge probability must be in [0, 1], got 1.5"),
        (["generate", "--n", "20", "--generator", "calibrated:1"], None,
         "calibrated circle fraction must be in (0, 1), got 1.0"),
        # a source outside the generated ids 1..n
        (["simulate", "{scenario}"], SCENARIO + "source = 31\n", "unknown source entity 31"),
        (["sweep", "{scenario}", "--axis", "n", "--values", "30,20"],
         SCENARIO + "source = 25\n", "unknown source entity 25"),
        (["sweep", "{scenario}", "--axis", "omega", "--values", ","], SCENARIO,
         "no sweep values given"),
        # bandwidth-only selection applies no threshold
        (["sweep", "{scenario}", "--axis", "n", "--values", "1"],
         SCENARIO.replace("practical_stor", "original_tor"),
         "no candidates for entity 1: it is the only router"),
    ],
)
def test_bad_numbers_give_one_error_line(tmp_path, capsys, argv, scenario, message):
    scenario_path = tmp_path / "scenario.txt"
    if scenario is not None:
        scenario_path.write_text(scenario)
    out = tmp_path / "out"
    argv = [arg.format(scenario=scenario_path) for arg in argv] + ["--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: %s\n" % message
    assert captured.out == ""
    assert not out.exists()


def test_a_rules_file_scores_as_the_bundled_rules(tmp_path):
    graph_path = tmp_path / "graph.txt"
    graph_path.write_text(WORKED_GRAPH)
    rules_path = tmp_path / "rules.txt"
    bundled = resources.files("oniontrust").joinpath("data/default_rules.txt")
    rules_path.write_bytes(bundled.read_bytes())
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["trust", str(graph_path), "--out", str(a), "--quiet"]) == 0
    assert main(
        ["trust", str(graph_path), "--rules", str(rules_path), "--out", str(b), "--quiet"]
    ) == 0
    for name in ("link_trust.csv", "trust_scores.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.parametrize(
    "argv, bad, message",
    [
        (["trust", "{bad}"], WORKED_GRAPH.replace("entity 3", "entity \xff3"),
         "line 4: byte 0xff is not UTF-8 (invalid start byte)"),
        # a CRLF pair ends one line, as text mode reads it
        (["trust", "{graph}", "--rules", "{bad}"],
         "# comment\r\n\r\nquantitative caf\xe9 weight=1.0\n",
         "line 3: byte 0xe9 is not UTF-8 (invalid continuation byte)"),
        (["simulate", "{bad}"], SCENARIO.replace("n = 30", "n = \xfe30"),
         "line 3: byte 0xfe is not UTF-8 (invalid start byte)"),
    ],
)
def test_a_byte_that_is_not_utf8_gives_one_error_line(tmp_path, capsys, argv, bad, message):
    graph_path = tmp_path / "graph.txt"
    graph_path.write_text(WORKED_GRAPH)
    bad_path = tmp_path / "bad.txt"
    bad_path.write_bytes(bad.encode("latin-1"))
    out = tmp_path / "out"
    argv = [arg.format(graph=graph_path, bad=bad_path) for arg in argv] + ["--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: %s\n" % message
    assert captured.out == ""
    assert not out.exists()


def test_trust_on_a_graph_without_entities_writes_nothing(tmp_path, capsys):
    graph_path = tmp_path / "graph.txt"
    graph_path.write_text("entities 0\n")
    out = tmp_path / "out"
    assert main(["trust", str(graph_path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: graph has no entities\n"
    assert captured.out == ""
    assert not out.exists()


def test_each_subcommand_takes_exactly_the_options_it_reads():
    # An option no command reads would be accepted and silently ignored.
    shared = {"-h", "--help", "--out", "--quiet"}
    want = {
        "generate": {"--n", "--generator", "--bandwidth-max", "--max-hops", "--seed"},
        "trust": {"--rules", "--max-hops"},
        "simulate": {"--rules", "--seed"},
        "sweep": {"--axis", "--values", "--rules", "--seed"},
    }
    parser = build_parser()
    (commands,) = [
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    got = {
        name: {opt for action in sub._actions for opt in action.option_strings}
        for name, sub in commands.choices.items()
    }
    assert got == {name: options | shared for name, options in want.items()}



def test_the_pipeline_builds_no_link_records(tmp_path, monkeypatch):
    # trust, simulate and sweep read the link columns: no FriendLink or
    # AttributeProfile is built and graph.links() is never called.
    assert main(
        ["generate", "--n", "60", "--generator", "er:0.08", "--seed", "2",
         "--out", str(tmp_path), "--quiet"]
    ) == 0
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(SCENARIO)
    circuit = tmp_path / "circuit.txt"
    circuit.write_text(SCENARIO + "draw_mode = circuit\ncase = best\n")
    counts = Counter()

    def counting(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for cls in (FriendLink, AttributeProfile):
        monkeypatch.setattr(cls, "__init__", counting(cls.__name__, cls.__init__))
    monkeypatch.setattr(SocialGraph, "links", counting("links", SocialGraph.links))
    out = str(tmp_path / "out")
    for argv in (
        ["trust", str(tmp_path / "graph.txt")],
        ["simulate", str(scenario)],
        ["simulate", str(circuit)],
        ["sweep", str(scenario), "--axis", "ts_h", "--values", "0,0.2"],
    ):
        assert main(argv + ["--out", out, "--quiet"]) == 0
    assert counts == {}
    read_graph(tmp_path / "graph.txt").links()  # the counters do count
    assert set(counts) == {"FriendLink", "AttributeProfile", "links"}
