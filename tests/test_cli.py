"""End-to-end command line runs, in process."""

import pytest

from oniontrust import compute_trust_values, read_graph, read_rules
from oniontrust.cli import main

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
