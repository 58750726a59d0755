"""Golden bytes: every file and stdout line of a few small CLI runs, pinned.

Each run's outputs are reduced to sha256 digests. stdout names the output
directory, so that directory is replaced by "OUT" before hashing. A digest
changes only when the bytes a run writes change; a PR that means to change
them says so and records the new digests here.
"""

import hashlib

import pytest

from oniontrust.cli import main

#: Three entities on up to three networks: 1->2 and 1->3 carry parallel
#: links, and 2->3 on network 2 has freq and time 0 next to a positive 2->1
#: link, so its aggregate is 0. With two positive classes that link has
#: zero mass and is scored by the one-sided limit; 3->1 on network 1 is
#: the other zero-aggregate link, with a NEGATIVE class and positive mass.
HAND_GRAPH = """\
entities 4
entity 1 bandwidth=100.0 malicious=0
entity 2 bandwidth=50.0 malicious=1
entity 3 bandwidth=25.0 malicious=0
entity 4 bandwidth=75.5 malicious=0
link 1 2 network=1 q:freq=3.0 q:time=3.0 c:Major=POSITIVE c:Relationship=POSITIVE
link 1 2 network=2 q:freq=1.0 q:time=7.5 c:Major=NEUTRAL c:Relationship=NEGATIVE
link 1 2 network=3 q:freq=2.0 q:time=0.5 c:Major=NEGATIVE c:Relationship=POSITIVE
link 1 3 network=1 q:freq=4.0 q:time=4.0 c:Major=POSITIVE c:Relationship=NEUTRAL
link 1 3 network=2 q:freq=0.25 q:time=1.0 c:Major=NEGATIVE c:Relationship=NEGATIVE
link 2 1 network=2 q:freq=6.0 q:time=2.0 c:Major=POSITIVE c:Relationship=POSITIVE
link 2 3 network=2 q:freq=0.0 q:time=0.0 c:Major=POSITIVE c:Relationship=POSITIVE
link 2 4 network=1 q:freq=1.5 q:time=9.0 c:Relationship=NEUTRAL
link 3 1 network=1 q:freq=0.0 q:time=0.0 c:Major=NEGATIVE c:Relationship=POSITIVE
link 3 4 network=1 q:freq=5.0 q:time=5.0 c:Major=NEUTRAL c:Relationship=NEUTRAL
link 4 1 network=3 q:freq=1.0 q:time=2.0 c:Major=POSITIVE c:Relationship=NEGATIVE
"""

SELECT_SCENARIO = """\
strategy = practical_stor
fraction = 0.2
n = 80
generator = calibrated:0.5
ts_h = 0.2
omega = 0.3
rounds = 6
draws = 40
seed = 3
"""

CIRCUIT_SCENARIO = """\
strategy = practical_stor
fraction = 0.3
n = 80
generator = er:0.05
case = best
draw_mode = circuit
rounds = 5
draws = 20
seed = 4
"""

#: name -> (CLI arguments, input). The input is the text of the file that
#: "{in}" names, or the name of the run whose graph.txt it reads, or None.
RUNS = {
    "generate-calibrated": (
        ["generate", "--n", "80", "--generator", "calibrated:0.8", "--seed", "5"],
        None,
    ),
    "generate-er": (["generate", "--n", "80", "--generator", "er:0.05", "--seed", "6"], None),
    "trust-hand": (["trust", "{in}"], HAND_GRAPH),
    "trust-generated": (["trust", "{in}", "--max-hops", "3"], "generate-er"),
    "simulate-select": (["simulate", "{in}"], SELECT_SCENARIO),
    "simulate-circuit": (["simulate", "{in}"], CIRCUIT_SCENARIO),
    "sweep-ts_h": (["sweep", "{in}", "--axis", "ts_h", "--values", "0.0,0.3"], SELECT_SCENARIO),
}

#: simulate-circuit, simulate-select, sweep-ts_h: rounds read one run's two streams in order.
GOLDEN = {
    "generate-calibrated": {
        "graph.txt":
            "1b02d7fcf3d09935711716a173d7c53281971cc910d194bdb48d49303bb2c9e3",
        "stdout":
            "de6b43c3b4eb954d2251959ac0546c9b0f5eab07a277feaff09bd8ac1b0b4611",
    },
    "generate-er": {
        "graph.txt":
            "b25f742f7605876041ffd7a04794445e7d124e1863f1c5ab03d27ce1516f35b2",
        "stdout":
            "5b6e9314455b68334325f19abc2badff99e5a3a341aa0233b3fefec2ef4df070",
    },
    "simulate-circuit": {
        "cdf_r_mc.csv":
            "a5dd26e3ab1100e1644497c4965135bad75292f1a12f7277baba4db16b030d40",
        "cdf_r_mr.csv":
            "51451a819e2feaf16258403fae2f32b8d9d9b365f21e20445dcbfd28eaa3a042",
        "rounds.csv":
            "340a74783f5916daf4a2bf454728b7948bfafc76b6ea9eb77864d9874f34f0e8",
        "stdout":
            "482b41d430cacdeba4c7d22ce4b9f762820b0a7404fccf0f89307d84ff8ccfef",
    },
    "simulate-select": {
        "cdf_r_mr.csv":
            "0acca4e1a29d27b0d82f5517efe6cd57ff7fdcb05ffc1a2ee2b95b482e297c0e",
        "rounds.csv":
            "358d9871f7b878464d67cd8a2b6066afe09de6a98cd0d65643c25b203fffa225",
        "stdout":
            "55d7b1104fac256975333a9873e5c1b3d9d9a52246db41bfa66f14bc38f4aca9",
    },
    "sweep-ts_h": {
        "rounds_ts_h_0.0.csv":
            "d0ce8e04fdf285d4591775cc5866e6bc91aa00c7e16848baee4dc13bf7bb2b82",
        "rounds_ts_h_0.3.csv":
            "d9cb3a15f0f9ff33b7301c36ac04ee774ba9d180a73fe405b1f78794009cca6c",
        "stdout":
            "a62c23c58b31c33f2d1bc91d473d99ec180279f680c2034931245a16ba0bf928",
        "sweep.csv":
            "365d5133d9f06e67d3b5799de1cfab699de75dc4eeee33537cc04a48b3a423bd",
    },
    "trust-generated": {
        "link_trust.csv":
            "523bc2710e9bb3b0e948a45bffc59174918421f47c488e5456f7f6e866fd2709",
        "stdout":
            "1dd27cb1412a92288888ffe6ea539e3d2c0ec5ee317b6979261a97658f3d4bab",
        "trust_scores.csv":
            "2c3470fcb9320a5c733c5fe44bcdcf5b920ca0cf8f00710e4d1ddb3328e2d625",
    },
    "trust-hand": {
        "link_trust.csv":
            "e3c1b3b6f6179091ff188331583183a364174c8f8e49fd3221365a39071a2c10",
        "stdout":
            "51d64ee67338a31d28849481d4f409ef95b7f59531e4ed16b0fb6460baba1d85",
        "trust_scores.csv":
            "cbb842648d147c2376a963d250ed3e899e328c0525303623fa89cb777b1f89df",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digests(tmp_path, capsys, name):
    """{file name or "stdout": sha256} of one run in RUNS."""
    args, source = RUNS[name]
    out = tmp_path / name
    given = None
    if source in RUNS:  # the graph another run wrote
        run_digests(tmp_path, capsys, source)
        given = tmp_path / source / "graph.txt"
    elif source is not None:
        given = tmp_path / ("%s.in" % name)
        given.write_text(source, encoding="utf-8")
    capsys.readouterr()
    argv = [str(given) if arg == "{in}" else arg for arg in args]
    assert main(argv + ["--out", str(out)]) == 0
    stdout = capsys.readouterr().out.replace(str(out), "OUT")
    digests = {"stdout": _sha(stdout.encode("utf-8"))}
    for path in sorted(out.iterdir()):
        digests[path.name] = _sha(path.read_bytes())
    return digests


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_keep_their_bytes(tmp_path, capsys, name):
    assert run_digests(tmp_path, capsys, name) == GOLDEN[name]
