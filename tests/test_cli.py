"""End-to-end command line runs, in process."""

import argparse
import tracemalloc
import weakref
from collections import Counter
from importlib import resources

import pytest

import oniontrust.cli
from oniontrust import (
    AttributeProfile,
    FriendLink,
    GeneratorParams,
    SocialGraph,
    compute_trust_values,
    generate_graph,
    propagation,
    read_graph,
    read_rules,
    write_graph,
)
from oniontrust.cli import build_parser, main
from oniontrust.propagation import TrustArrays

from helpers import (
    reference_arrays,
    reference_circle,
    reference_trust_scores_csv,
    reference_write_trust_scores,
)


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


def csv_lines(path):
    """A CSV's lines, read as bytes: each ends in a bare newline."""
    data = path.read_bytes()
    assert data.endswith(b"\n") and b"\r" not in data
    return data.decode("utf-8").split("\n")[:-1]


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
    graph_path.write_text(WORKED_GRAPH, encoding="utf-8")
    rc = main(["trust", str(graph_path), "--out", str(tmp_path), "--quiet"])
    assert rc == 0
    link_rows = csv_lines(tmp_path / "link_trust.csv")
    assert link_rows[0] == "source,target,network,trust_value"
    assert link_rows[1] == "1,2,1,0.83125"
    assert link_rows[2] == "1,3,1,0.8333333333333333"
    score_rows = csv_lines(tmp_path / "trust_scores.csv")
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


def scored_with_zeros(graph, rules):
    """compute_trust_values, then trust 0.0 on every third link."""
    compute_trust_values(graph, rules)
    graph.link_columns().trust[::3] = 0.0


@pytest.mark.parametrize("max_hops", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "n,block_rows",
    [(40, None), (40, 7), (400, None), (1, None)],
    ids=["one-block", "short-last-block", "two-blocks-by-budget", "one-entity"],
)
def test_trust_streams_the_bytes_of_whole_arrays(
    tmp_path, capsys, monkeypatch, n, block_rows, max_hops
):
    graph_path = tmp_path / "graph.txt"
    if n == 1:
        graph_path.write_text("entities 1\nentity 5 bandwidth=1.0 malicious=0\n", encoding="utf-8")
    else:
        write_graph(graph_path, generate_graph(GeneratorParams(n, "er", 4.0 / n), 3))
    if block_rows is None:
        block_rows = propagation.BLOCK_BYTES // (9 * n)
    else:
        monkeypatch.setattr(propagation, "BLOCK_BYTES", 9 * n * block_rows)
    monkeypatch.setattr(oniontrust.cli, "compute_trust_values", scored_with_zeros)
    passes = []
    kernel = propagation._kernel

    def counted(n, src, tgt, tv, rows, *args):
        passes.append(len(rows))
        return kernel(n, src, tgt, tv, rows, *args)

    monkeypatch.setattr(propagation, "_kernel", counted)
    out = tmp_path / "out"
    assert main(["trust", str(graph_path), "--max-hops", str(max_hops), "--out", str(out)]) == 0
    assert passes == [min(block_rows, n - lo) for lo in range(0, n, block_rows)]

    graph = read_graph(graph_path)
    scored_with_zeros(graph, read_rules())
    arrays = TrustArrays(graph.entity_ids(), *reference_arrays(graph, max_hops), max_hops)
    reference_write_trust_scores(tmp_path / "want.csv", arrays)
    assert (out / "trust_scores.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert capsys.readouterr().out == (
        "scored %d links across %d entities; mean circle size %.1f; wrote %s, %s\n"
        % (graph.link_count(), n, reference_circle(arrays),
           out / "link_trust.csv", out / "trust_scores.csv")
    )


def test_trust_holds_less_than_one_square_array(tmp_path):
    # Whole trust arrays took 4.0 MB traced here; streamed, the graph read's
    # 1.7 MB sets the peak.
    n = 600
    graph_path = tmp_path / "graph.txt"
    write_graph(graph_path, generate_graph(GeneratorParams(n, "er", 0.01), 5))
    argv = ["trust", str(graph_path), "--out", str(tmp_path / "out"), "--quiet"]
    assert main(argv) == 0  # imports the writers' modules before the traced run
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8


def test_trust_holds_one_block_at_a_time(tmp_path, monkeypatch):
    graph_path = tmp_path / "graph.txt"
    write_graph(graph_path, generate_graph(GeneratorParams(60, "er", 0.1), 2))
    monkeypatch.setattr(propagation, "BLOCK_BYTES", 9 * 60 * 7)
    kernel = propagation._kernel
    last = []

    def checked(*args):
        # the previous block's arrays are gone before the next is computed
        assert all(ref() is None for ref in last)
        for best, hops in kernel(*args):
            yield best, hops
        last[:] = [weakref.ref(best), weakref.ref(hops)]

    monkeypatch.setattr(propagation, "_kernel", checked)
    assert main(["trust", str(graph_path), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    assert last


def test_simulate_writes_rounds_and_cdf(tmp_path, capsys):
    scenario_path = tmp_path / "scenario.txt"
    scenario_path.write_text(SCENARIO, encoding="utf-8")
    out = tmp_path / "out"
    rc = main(["simulate", str(scenario_path), "--out", str(out)])
    assert rc == 0
    rounds = csv_lines(out / "rounds.csv")
    assert rounds[0] == "round,r_mr,r_mc,avg_bandwidth,draws"
    assert len(rounds) == 21
    assert (out / "cdf_r_mr.csv").exists()
    assert not (out / "cdf_r_mc.csv").exists()
    assert "mean R_MR" in capsys.readouterr().out


def test_simulate_reruns_identically(tmp_path):
    scenario_path = tmp_path / "scenario.txt"
    scenario_path.write_text(SCENARIO, encoding="utf-8")
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
        "generator = er:0.05\nrounds = 15\ndraws = 25\ndraw_mode = circuit\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    rc = main(["simulate", str(scenario_path), "--out", str(out), "--quiet"])
    assert rc == 0
    # flags never enter the circle, so both rates are exactly zero
    assert (out / "cdf_r_mr.csv").read_bytes() == (
        b"value,cumulative_fraction\n0.0,1.0\n"
    )
    assert (out / "cdf_r_mc.csv").read_bytes() == (
        b"value,cumulative_fraction\n0.0,1.0\n"
    )


def test_sweep_writes_per_value_rounds(tmp_path, capsys):
    scenario_path = tmp_path / "scenario.txt"
    scenario_path.write_text(SCENARIO, encoding="utf-8")
    out = tmp_path / "out"
    rc = main(
        ["sweep", str(scenario_path), "--axis", "omega", "--values", "0.0,0.5",
         "--out", str(out)]
    )
    assert rc == 0
    assert (out / "sweep.csv").exists()
    assert (out / "rounds_omega_0.0.csv").exists()
    assert (out / "rounds_omega_0.5.csv").exists()
    sweep_rows = csv_lines(out / "sweep.csv")
    assert len(sweep_rows) == 3
    assert sweep_rows[1].startswith("omega,0.0,")
    stdout = capsys.readouterr().out
    assert "omega=0.5" in stdout


def test_errors_exit_with_code_one(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("strategy = original_tor\nfraction = 0.1\nbudget = 3\n", encoding="utf-8")
    assert main(["simulate", str(bad), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "budget" in err
    missing = tmp_path / "nope.txt"
    assert main(["simulate", str(missing), "--out", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err
    scenario_path = tmp_path / "scenario.txt"
    scenario_path.write_text(SCENARIO, encoding="utf-8")
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
        "link 1 2 network=1 q:freq=0.0 q:time=1.0 c:Major=POSITIVE c:Relationship=POSITIVE\n",
        encoding="utf-8",
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
        "entity 99999999999999999999 bandwidth=1 malicious=0\n",
        encoding="utf-8",
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
        "link 1 3 network=1 q:freq=1.0 q:time=1.0\n",
        encoding="utf-8",
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
    scenario_path.write_text(SCENARIO, encoding="utf-8")
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
        scenario_path.write_text(scenario, encoding="utf-8")
    out = tmp_path / "out"
    argv = [arg.format(scenario=scenario_path) for arg in argv] + ["--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: %s\n" % message
    assert captured.out == ""
    assert not out.exists()


def test_a_rules_file_scores_as_the_bundled_rules(tmp_path):
    graph_path = tmp_path / "graph.txt"
    graph_path.write_text(WORKED_GRAPH, encoding="utf-8")
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
    graph_path.write_text(WORKED_GRAPH, encoding="utf-8")
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
    graph_path.write_text("entities 0\n", encoding="utf-8")
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
    scenario.write_text(SCENARIO, encoding="utf-8")
    circuit = tmp_path / "circuit.txt"
    circuit.write_text(SCENARIO + "draw_mode = circuit\ncase = best\n", encoding="utf-8")
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
