import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import surveil.cegar
import surveil.cli
from conftest import pillar_problem
from surveil import SolverError
from surveil.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"

MAP = """\
....A
.....
.###.
...T.
.....
"""

TINY = """\
AT
"""


@pytest.fixture()
def paths(tmp_path):
    d = {}
    for name, text in (
        ("map", MAP),
        ("tiny", TINY),
        ("p3", "G p<=3\n"),
        ("p2", "G p<=2\n"),
        ("p1", "G p<=1\n"),
        ("live", "GF p<=2\n"),
    ):
        p = tmp_path / f"{name}.txt"
        p.write_text(text)
        d[name] = str(p)
    d["tmp"] = tmp_path
    return d


def run(argv):
    return main(argv)


def test_synth_realizable_exit_zero(paths, capsys):
    out = paths["tmp"] / "strat.json"
    code = run(["synth", "--map", paths["map"], "--spec", paths["p3"],
                "--out", str(out)])
    assert code == 0
    transcript = capsys.readouterr().out.strip().splitlines()
    assert transcript[-1].endswith("verdict=realizable action=stop")
    payload = json.loads(out.read_text())
    assert payload["digest"]
    assert payload["moves"]
    assert payload["blocks"]


def test_synth_unrealizable_exit_ten_with_dump(paths):
    out = paths["tmp"] / "cex.json"
    code = run(["synth", "--map", paths["map"], "--spec", paths["p2"],
                "--out", str(out)])
    assert code == 10
    dump = json.loads(out.read_text())
    assert dump["verdict"] == "unrealizable"
    assert dump["kind"] == "graph"
    assert dump["nodes"][dump["initial"]]["belief"] == [18]


def test_synth_missing_map_exit_one(paths):
    assert run(["synth", "--map", "/nonexistent.map", "--spec", paths["p3"]]) == 1


def test_synth_bad_spec_exit_one(paths, tmp_path):
    bad = tmp_path / "bad.spec"
    bad.write_text("p<=1 U goal\n")
    assert run(["synth", "--map", paths["map"], "--spec", str(bad)]) == 1


def test_usage_error_exit_one():
    with pytest.raises(SystemExit) as exc:
        run(["synth", "--spec", "x"])
    assert exc.value.code == 1


def test_dump_partition(paths, capsys):
    code = run(["synth", "--map", paths["map"], "--spec", paths["p3"],
                "--out", str(paths["tmp"] / "s.json"), "--dump-partition"])
    assert code == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines()
             if ln.startswith("block ")]
    cells = sorted(
        int(c) for ln in lines for c in ln.split(" ", 1)[1].split(",")
    )
    free = [c for c in range(25) if c not in (11, 12, 13)]
    reachable = [c for c in free if c != 4] + [4]  # all free cells
    assert cells == sorted(set(cells))
    assert set(cells) <= set(reachable)


def test_oracle_verdicts(paths, capsys):
    assert run(["oracle", "--map", paths["map"], "--spec", paths["live"]]) == 0
    assert "realizable=True" in capsys.readouterr().out
    assert run(["oracle", "--map", paths["map"], "--spec", paths["p1"]]) == 10
    assert run(["oracle", "--map", paths["tiny"], "--spec", paths["p1"]]) == 0


def test_oracle_budget_exit_twenty(paths):
    code = run(["oracle", "--map", paths["map"], "--spec", paths["p3"],
                "--max-states", "10"])
    assert code == 20


def test_state_budget_counts_the_states_of_the_pruned_game(tmp_path, capsys):
    """pillars16 at seed 1 with ``G p<=2``: the first full abstract game
    has 7,675 states, but the states built for the safety term stay far
    below a 5,000-state budget, which then changes nothing."""
    map_text, cfg_text = pillar_problem(16, 1)
    files = {"map": map_text, "cfg": cfg_text, "spec": "G p<=2\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = ["synth", "--map", str(tmp_path / "map"), "--config", str(tmp_path / "cfg"),
            "--spec", str(tmp_path / "spec"), "--dump-partition"]
    assert run(argv) == 10
    unbudgeted = capsys.readouterr()
    assert run(argv + ["--max-states", "5000"]) == 10
    assert capsys.readouterr() == unbudgeted


def test_python_dash_m_runs_the_cli():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "surveil", "validate",
         "--map", "bundled:paper5x5.txt", "--config", "bundled:paper5x5.cfg"],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("cells=")


def test_synth_iteration_budget_exit_twenty(paths):
    code = run(["synth", "--map", paths["map"], "--spec", paths["p3"],
                "--max-iters", "1"])
    assert code == 20


def test_simulate_jsonl(paths, capsys):
    code = run(["simulate", "--map", paths["map"], "--spec", paths["p3"],
                "--steps", "6", "--seed", "3"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    recs = [json.loads(ln) for ln in lines if ln.startswith("{")]
    assert len(recs) == 7
    assert recs[0]["agent"] == 4 and recs[0]["target"] == 18


def test_synth_then_simulate_with_strategy_file(paths, capsys):
    strat = paths["tmp"] / "strat.json"
    assert run(["synth", "--map", paths["map"], "--spec", paths["p3"],
                "--out", str(strat)]) == 0
    capsys.readouterr()
    code = run(["simulate", "--map", paths["map"], "--strategy", str(strat),
                "--steps", "4"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len([ln for ln in lines if ln.startswith("{")]) == 5


@pytest.mark.parametrize("policy", ["random", "evasive"])
def test_oracle_controller_replays(paths, capsys, policy):
    """The exact game is the abstract game under the singletons
    partition: its controller carries that partition and plays a move
    the agent sees by its cell, like any other controller."""
    strat = paths["tmp"] / "oracle.json"
    assert run(["oracle", "--map", paths["map"], "--spec", paths["live"],
                "--out", str(strat)]) == 0
    capsys.readouterr()
    code = run(["simulate", "--map", paths["map"], "--strategy", str(strat),
                "--policy", policy, "--steps", "30"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    recs = [json.loads(ln) for ln in lines if ln.startswith("{")]
    assert len(recs) == 31
    # the exact game's label, concretized, is the belief itself
    for r in recs:
        label = r["abstract"]
        assert ([label] if isinstance(label, int) else label) == r["belief"]
    payload = json.loads(strat.read_text())
    assert payload["blocks"] == {str(c): [c] for c in range(25) if c not in (11, 12, 13)}


@pytest.mark.parametrize("blocks", ["null", "missing"])
def test_simulate_rejects_a_controller_without_blocks(paths, capsys, blocks):
    """A controller file that carries no partition ends in an error
    before the agent moves: its block-set labels name blocks of no
    partition."""
    strat = paths["tmp"] / "oracle.json"
    assert run(["oracle", "--map", paths["map"], "--spec", paths["live"],
                "--out", str(strat)]) == 0
    payload = json.loads(strat.read_text())
    if blocks == "null":
        payload["blocks"] = None
    else:
        del payload["blocks"]
    strat.write_text(json.dumps(payload))
    capsys.readouterr()
    code = run(["simulate", "--map", paths["map"], "--strategy", str(strat)])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: strategy file has no partition")


# the bundled map and config of each spec; paper5x5 by default
PROBLEMS = {"GF p<=10 & GF goal": ("bundled:bigroom.txt", "bundled:bigroom.cfg")}


@pytest.mark.parametrize("policy", ["random", "evasive"])
@pytest.mark.parametrize(
    "spec",
    # the last two have two memory modes, the first of them a safety term
    # too; the last is bigroom's bundled liveness spec
    ["G p<=3", "GF p<=2", "G p<=5 & GF p<=2", "GF p<=10 & GF goal"],
)
def test_file_replay_equals_in_process_replay(tmp_path, capsys, spec, policy):
    """The controller holds only the part reachable from its initial
    state, in the file and in process, and that part is all a run needs:
    replaying the file prints what the in-process controller prints."""
    spec_file = tmp_path / "spec.txt"
    spec_file.write_text(spec + "\n")
    map_file, config = PROBLEMS.get(spec, ("bundled:paper5x5.txt", "bundled:paper5x5.cfg"))
    problem = ["--map", map_file, "--config", config]
    strat = tmp_path / "strat.json"
    assert run(["synth", *problem, "--spec", str(spec_file), "--out", str(strat)]) == 0
    capsys.readouterr()
    sim = ["--policy", policy, "--seed", "7", "--steps", "200"]
    assert run(["simulate", *problem, "--strategy", str(strat), *sim]) == 0
    from_file = capsys.readouterr().out
    assert run(["simulate", *problem, "--spec", str(spec_file), *sim]) == 0
    assert capsys.readouterr().out == from_file
    assert from_file.count("\n") == 201


def test_help_describes_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    assert exc.value.code == 0
    # argparse lists a subcommand on a line of its own only with a help text
    described = {
        words[0]
        for words in map(str.split, capsys.readouterr().out.splitlines())
        if len(words) > 1
    }
    assert {"synth", "oracle", "simulate", "render", "validate"} <= described
    # and every option of every subcommand has a help text
    (commands,) = [
        a for a in surveil.cli.build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    undescribed = [
        (name, a.option_strings)
        for name, p in commands.choices.items()
        for a in p._actions
        if not a.help
    ]
    assert undescribed == []


def test_foreign_strategy_rejected(paths, tmp_path, capsys):
    other = tmp_path / "other.map"
    other.write_text("......\nA....T\n")
    strat = tmp_path / "foreign.json"
    assert run(["synth", "--map", str(other), "--spec", paths["p3"],
                "--out", str(strat)]) == 0
    capsys.readouterr()
    code = run(["simulate", "--map", paths["map"], "--strategy", str(strat)])
    assert code == 1
    assert "different map" in capsys.readouterr().err


def test_simulate_rejects_illegal_agent_move(paths, capsys):
    strat = paths["tmp"] / "strat.json"
    assert run(["synth", "--map", paths["map"], "--spec", paths["p3"],
                "--out", str(strat)]) == 0
    payload = json.loads(strat.read_text())
    i = payload["states"].index([4, [9]])
    payload["states"][i][0] = 23  # the agent jumps from 9 to 23
    strat.write_text(json.dumps(payload))
    capsys.readouterr()
    code = run(["simulate", "--map", paths["map"], "--strategy", str(strat),
                "--seed", "1", "--steps", "30"])
    assert code == 1
    assert "illegal" in capsys.readouterr().err


def test_simulate_rejects_out_of_range_state_index(paths, capsys):
    strat = paths["tmp"] / "strat.json"
    assert run(["synth", "--map", paths["map"], "--spec", paths["p3"],
                "--out", str(strat)]) == 0
    payload = json.loads(strat.read_text())
    bad = len(payload["states"]) + 7
    for move in payload["moves"]:
        if move[0] == payload["initial"]:
            move[3] = bad  # the initial state's replies lead past the table
    strat.write_text(json.dumps(payload))
    capsys.readouterr()
    code = run(["simulate", "--map", paths["map"], "--strategy", str(strat),
                "--seed", "1", "--steps", "30"])
    assert code == 1
    assert f"error: strategy file refers to state {bad}," in capsys.readouterr().err


def _start_elsewhere(payload):
    payload["initial"] = payload["states"].index([14, 18])


def _second_move(payload):
    """A second move for the first move's (state, memory, label), to
    another state with its label."""
    i, mem, c, r, mem2 = payload["moves"][0]
    r2 = next(k for k, (_, label) in enumerate(payload["states"]) if label == c and k != r)
    payload["moves"].append([i, mem, c, r2, mem2])


@pytest.mark.parametrize("tamper, message", [
    pytest.param(_start_elsewhere, "[14, 18], not at the map's start [4, 18]", id="start"),
    pytest.param(_second_move, "lists two moves for state", id="duplicate"),
])
def test_simulate_rejects_a_bad_start_or_a_second_move(paths, capsys, tamper, message):
    """A ``GF p<=2`` controller that starts away from the map's start, or
    that lists two moves for one (state, memory, label), ends in an error
    before the agent moves: no step is printed."""
    strat = paths["tmp"] / "strat.json"
    assert run(["synth", "--map", paths["map"], "--spec", paths["live"],
                "--out", str(strat)]) == 0
    payload = json.loads(strat.read_text())
    tamper(payload)
    strat.write_text(json.dumps(payload))
    capsys.readouterr()
    code = run(["simulate", "--map", paths["map"], "--strategy", str(strat),
                "--seed", "0", "--steps", "60"])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and message in err


def _labels_to_999(payload):
    for state in payload["states"]:
        if isinstance(state[1], list):
            state[1] = [999]


def _initial_agent_to_999(payload):
    payload["states"][payload["initial"]][0] = 999


def _int_label_to_999(payload):
    next(s for s in payload["states"] if isinstance(s[1], int))[1] = 999


def _obstacle_in_block(payload):
    first = min(payload["blocks"], key=int)
    payload["blocks"][first].append(12)  # an obstacle of MAP


@pytest.mark.parametrize("tamper, message", [
    pytest.param(_labels_to_999, "names [999], which are not blocks of its partition",
                 id="set-label"),
    pytest.param(_initial_agent_to_999, "puts the agent on 999", id="agent-cell"),
    pytest.param(_int_label_to_999, "puts the target on 999", id="int-label"),
    pytest.param(_obstacle_in_block, "blocks do not cover the target locations",
                 id="partition"),
])
def test_simulate_rejects_tampered_cells(paths, capsys, tamper, message):
    """A controller that names a cell or block the map does not have
    ends in an error, not a traceback, before the agent moves."""
    strat = paths["tmp"] / "strat.json"
    assert run(["synth", "--map", paths["map"], "--spec", paths["p3"],
                "--out", str(strat)]) == 0
    payload = json.loads(strat.read_text())
    tamper(payload)
    strat.write_text(json.dumps(payload))
    capsys.readouterr()
    code = run(["simulate", "--map", paths["map"], "--strategy", str(strat)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("argv", [
    ["oracle", "--max-states", "10"],
    ["simulate", "--max-iters", "1"],
    ["render", "--max-iters", "1"],
])
def test_budget_exit_twenty_names_budget(paths, capsys, argv):
    code = run([argv[0], "--map", paths["map"], "--spec", paths["p3"], *argv[1:]])
    assert code == 20
    assert capsys.readouterr().err.startswith("budget exceeded: ")


def test_out_of_memory_exit_twenty(paths, monkeypatch, capsys):
    """A run that exhausts memory ends in the budget exit with one line,
    not in a traceback."""
    def exhausted(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(surveil.cli, "cegar_loop", exhausted)
    capsys.readouterr()
    assert run(["synth", "--map", paths["map"], "--spec", paths["p3"]]) == 20
    err = capsys.readouterr().err
    assert err == "budget exceeded: out of memory\n"
    assert "Traceback" not in err


def test_simulate_needs_spec_or_strategy(paths):
    assert run(["simulate", "--map", paths["map"]]) == 1


def test_non_numeric_config_value_exit_one(paths, capsys):
    cfg = paths["tmp"] / "bad.cfg"
    cfg.write_text("allow_stay=false\nagent_radius=abc\n")
    code = run(["synth", "--map", paths["map"], "--config", str(cfg),
                "--spec", paths["p3"]])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config line 2: int expected for agent_radius")


def test_nan_vision_range_exit_one(paths, capsys):
    cfg = paths["tmp"] / "nan.cfg"
    cfg.write_text("vision_range=nan\n")
    code = run(["synth", "--map", paths["map"], "--config", str(cfg),
                "--spec", paths["p3"]])
    assert code == 1
    assert capsys.readouterr().err == "error: vision range must be positive\n"


def test_goal_policy_without_goal_cells_exits_before_synthesis(paths, capsys):
    """The target policy is built before the controller, so a map without
    goal cells is refused at once, not after an unrealizable synthesis."""
    code = run(["simulate", "--map", "bundled:paper5x5.txt", "--config",
                "bundled:paper5x5.cfg", "--spec", paths["p1"], "--policy", "goal"])
    assert code == 1
    assert capsys.readouterr() == ("", "error: no goal cells to seek\n")


def test_simulate_refuses_a_counterexample_dump(paths, capsys):
    """An unrealizable synthesis writes a counterexample, which has no
    digest; it is named as such, not as a controller for another map."""
    dump = paths["tmp"] / "cex.json"
    assert run(["synth", "--map", paths["map"], "--spec", paths["p1"],
                "--out", str(dump)]) == 10
    capsys.readouterr()
    code = run(["simulate", "--map", paths["map"], "--strategy", str(dump)])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: strategy file holds a counterexample, not a controller: "
        "its specification is unrealizable\n"
    )


def test_strategy_file_not_an_object_exit_one(paths, capsys):
    strat = paths["tmp"] / "list.json"
    strat.write_text("[]")
    code = run(["simulate", "--map", paths["map"], "--strategy", str(strat)])
    assert code == 1
    assert capsys.readouterr().err == "error: strategy file must hold a JSON object\n"


@pytest.mark.parametrize("kind", ["directory", "non-utf8"])
def test_unreadable_map_exit_one(paths, capsys, kind):
    if kind == "directory":
        bad = paths["tmp"]
    else:
        bad = paths["tmp"] / "latin1.map"
        bad.write_bytes(b"....A\n.\xe9...\n...T.\n")
    code = run(["synth", "--map", str(bad), "--spec", paths["p3"]])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_render_frame_count_matches_steps(paths, capsys):
    code = run(["render", "--map", paths["map"], "--spec", paths["p3"],
                "--steps", "5", "--format", "text"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("step ") == 6


def test_render_svg(paths, capsys):
    code = run(["render", "--map", paths["map"], "--spec", paths["p3"],
                "--steps", "3", "--format", "svg"])
    assert code == 0
    assert "<svg" in capsys.readouterr().out


def test_validate_ok(paths, capsys):
    assert run(["validate", "--map", paths["map"]]) == 0
    assert "invisible_independent=True" in capsys.readouterr().out


def test_bundled_map(capsys, tmp_path):
    spec = tmp_path / "s.spec"
    spec.write_text("G p<=3\n")
    assert run(["validate", "--map", "bundled:paper5x5.txt"]) == 0


def test_determinism(paths, capsys):
    argv = ["simulate", "--map", paths["map"], "--spec", paths["p3"],
            "--steps", "10", "--seed", "5"]
    run(argv)
    first = capsys.readouterr().out
    run(argv)
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("command", ["synth", "oracle"])
def test_solver_error_exit_one(paths, monkeypatch, capsys, command):
    def broken(arena, objective):
        raise SolverError("determinacy check failed")

    monkeypatch.setattr(surveil.cegar, "solve", broken)
    monkeypatch.setattr(surveil.cli, "solve", broken)
    assert run([command, "--map", paths["map"], "--spec", paths["p3"]]) == 1
    assert capsys.readouterr().err.strip() == "error: determinacy check failed"


# sha256 of `surveil synth` output on the bundled paper5x5 map, pinned so
# that solver changes cannot alter a controller or counterexample unseen
GOLDEN = {
    "G p<=3": (0, "1ea52d91dce7c307b8ba84655c200b18cfbf8bcfc4c09b907409a16961b7754b"),
    "GF p<=2": (0, "2499f26da88f6365c2c493ff962c5f45f91378f5953c13e228d35ed12703925b"),
    "G p<=5 & GF p<=2": (
        0, "ea1057b169b38f373150cd7767440ebad7ff87311bbb946388a60b73fa33e769"
    ),
    "G p<=2": (10, "d22c1fb47492daac9e5f1c511cef1bd09da430714a8b0588eeb3313aa3d3342d"),
}


@pytest.mark.parametrize("spec", sorted(GOLDEN))
def test_synth_output_golden_digest(spec, tmp_path, capsys):
    spec_file = tmp_path / "spec.txt"
    spec_file.write_text(spec + "\n")
    out = tmp_path / "out.json"
    code = run(["synth", "--map", "bundled:paper5x5.txt",
                "--config", "bundled:paper5x5.cfg",
                "--spec", str(spec_file), "--out", str(out)])
    assert (code, hashlib.sha256(out.read_bytes()).hexdigest()) == GOLDEN[spec]


@pytest.mark.parametrize("spec, want", [
    # the counterexample graph dump
    ("G p<=3", (10, "dd85ef02c6ed845d3c093076966f2b62a2383088ee9933c4d881217242200bde")),
    ("GF p<=10 & GF goal", (0, "4a768d20775cb3dcf79adf07ecf9c89e622b4df73769c17a5b583926a575ed6f")),
])
def test_bigroom_output_golden_digest(tmp_path, spec, want):
    """bigroom outputs, pinned byte for byte as ``GOLDEN`` pins paper5x5's."""
    spec_file = tmp_path / "spec.txt"
    spec_file.write_text(spec + "\n")
    out = tmp_path / "out.json"
    code = run(["synth", "--map", "bundled:bigroom.txt", "--config", "bundled:bigroom.cfg",
                "--spec", str(spec_file), "--out", str(out)])
    assert (code, hashlib.sha256(out.read_bytes()).hexdigest()) == want


@pytest.mark.parametrize("spec, want", [
    ("GF p<=2", "9f92d080b8b6cda6aa6e1b2cec9c85d5ed2b507243409e4b18ca3befecb1c828"),
    ("G p<=5 & GF p<=2", "d3fc7d44cea0f7296a38cd31ead770c5ac6295ad41580f6ae895ff41bdf2dbd9"),
])
def test_dump_partition_golden_digest(tmp_path, capsys, spec, want):
    """The transcript and final partition that ``--dump-partition``
    prints on paper5x5, pinned byte for byte: refinement must split the
    same blocks in the same order."""
    spec_file = tmp_path / "spec.txt"
    spec_file.write_text(spec + "\n")
    code = run(["synth", "--map", "bundled:paper5x5.txt", "--config", "bundled:paper5x5.cfg",
                "--spec", str(spec_file), "--out", str(tmp_path / "out.json"),
                "--dump-partition"])
    assert (code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()) == (0, want)


@pytest.mark.parametrize("spec, stdout, out", [
    # the bundled spec: 19 iterations through the general analysis's
    # safety step, lassos and the meet of two splits
    ("bundled:bigroom_safety.spec",
     "823bba4caff1e3110f5210339abd94c410fc372c774dbaf972366cef7f629d9f",
     "91be53741e1545f7fba15221429ac1646935bfd7a7def1f48de555b2c398ef2a"),
    # 17 iterations through the safety walk and its refinement
    ("G p<=4",
     "eeca90a895660bda3348ebec5b8aff43e6b07db9e311a691fcac314be3f478de",
     "c4551dd2990ef3a2899f5c295bb1395e0c332986d8681033b4c3c768f2bb9c93"),
])
def test_bigroom_refinement_golden_digest(tmp_path, capsys, spec, stdout, out):
    """bigroom's ``--dump-partition`` transcript and controller, pinned
    byte for byte over long refinement runs."""
    if not spec.startswith("bundled:"):
        (tmp_path / "spec.txt").write_text(spec + "\n")
        spec = str(tmp_path / "spec.txt")
    code = run(["synth", "--map", "bundled:bigroom.txt", "--config", "bundled:bigroom.cfg",
                "--spec", spec, "--out", str(tmp_path / "out.json"), "--dump-partition"])
    assert (
        code,
        hashlib.sha256(capsys.readouterr().out.encode()).hexdigest(),
        hashlib.sha256((tmp_path / "out.json").read_bytes()).hexdigest(),
    ) == (0, stdout, out)


def test_recurrence_dump_golden_digest(tmp_path):
    """The dump of an unrealizable recurrence spec, on paper5x5 with a
    goal on cell 0, pinned byte for byte as the safety dump is in
    ``GOLDEN``."""
    (tmp_path / "map.txt").write_text("G" + MAP[1:])
    (tmp_path / "spec.txt").write_text("GF p<=1 & GF goal\n")
    out = tmp_path / "out.json"
    code = run(["synth", "--map", str(tmp_path / "map.txt"),
                "--config", "bundled:paper5x5.cfg",
                "--spec", str(tmp_path / "spec.txt"), "--out", str(out)])
    assert (code, hashlib.sha256(out.read_bytes()).hexdigest()) == (
        10, "762119e47160832c64d6e23c3fc733d138c489a00312d465b9adfccce5ede29a"
    )


@pytest.mark.parametrize("argv, message", [
    (["synth", "--max-states", "-1"], "argument --max-states: must be at least 1, got -1"),
    (["oracle", "--max-states", "0"], "argument --max-states: must be at least 1, got 0"),
    (["synth", "--max-iters", "0"], "argument --max-iters: must be at least 1, got 0"),
    (["simulate", "--steps", "-2"], "argument --steps: must be at least 0, got -2"),
    (["render", "--steps", "two"], "argument --steps: invalid count value: 'two'"),
])
def test_impossible_counts_are_usage_errors(paths, capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        run([argv[0], "--map", paths["map"], "--spec", paths["p3"], *argv[1:]])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert f"error: {message}\n" in err


def test_oracle_has_no_iteration_budget(paths, capsys):
    """The oracle does not refine, so it takes no ``--max-iters``."""
    with pytest.raises(SystemExit) as exc:
        run(["oracle", "--map", paths["map"], "--spec", paths["p3"], "--max-iters", "1"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --max-iters 1" in capsys.readouterr().err


def test_zero_steps_simulate_only_the_start(paths, capsys):
    assert run(["simulate", "--map", paths["map"], "--spec", paths["p3"],
                "--steps", "0"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1
