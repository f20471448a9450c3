import json
import re
from collections import deque
from dataclasses import replace
from functools import partial

import pytest

from surveil import (
    EvasivePolicy,
    GoalSeekingPolicy,
    RandomPolicy,
    SimulationError,
    cegar_loop,
    export_strategy,
    load_runner,
    parse_spec,
    render_trace,
    simulate,
    trace_jsonl,
)
from surveil.simulate import TargetPolicy


class ScriptedPolicy(TargetPolicy):
    """Replays a fixed move list, validating each against the structure."""

    def __init__(self, moves):
        self.moves = deque(moves)

    def choose(self, G, l_a, l_t):
        if not self.moves:
            raise SimulationError("scripted target ran out of moves")
        l_t2 = self.moves.popleft()
        if l_t2 not in G.target_step(l_a, l_t):
            raise SimulationError(f"scripted move {l_t} -> {l_t2} is illegal")
        return l_t2


@pytest.fixture(scope="module")
def controller(game5):
    out = cegar_loop(game5, parse_spec("G p<=5"))
    assert out.verdict == "realizable"
    return out


def make_runner(game5, controller):
    """A runner for the exported controller, loaded as a file is."""
    payload = export_strategy(
        controller.arena, controller.strategy, "d", controller.final_partition
    )
    return load_runner(game5, payload, expected_digest="d")


def test_tampered_controller_with_illegal_agent_move_rejected(game5, grid5):
    """A controller whose digest matches but whose state ``[4, [9]]``
    puts the agent on cell 23, which no agent move reaches from cell 9,
    is refused when the file loads; a runner whose states are changed so
    after loading is stopped when the agent makes the move."""
    out = cegar_loop(game5, parse_spec("G p<=3"))
    payload = export_strategy(out.arena, out.strategy, "d", out.final_partition)
    i = payload["states"].index([4, [9]])
    runner = load_runner(game5, payload, expected_digest="d")
    payload["states"][i][0] = 23
    with pytest.raises(SimulationError, match="agent 23 -> .*, which is illegal after it"):
        load_runner(game5, payload, expected_digest="d")
    runner.states[i] = (23, runner.states[i][1])
    with pytest.raises(SimulationError, match="agent 9 -> 23"):
        simulate(game5, grid5, runner, RandomPolicy(1), 30)


def _initial(payload):
    payload["initial"] = len(payload["states"])


def _move_source(payload):
    payload["moves"][0][0] = -1


def _move_reply(payload):
    payload["moves"][-1][3] = len(payload["states"]) + 7


def _winning_region(payload):
    payload["winning_region"].append(len(payload["states"]))


@pytest.mark.parametrize("tamper", [_initial, _move_source, _move_reply, _winning_region])
def test_controller_with_out_of_range_state_index_rejected(game5, controller, tamper):
    payload = export_strategy(
        controller.arena, controller.strategy, "d", controller.final_partition
    )
    load_runner(game5, payload, expected_digest="d")
    tamper(payload)
    with pytest.raises(SimulationError, match="refers to state"):
        load_runner(game5, payload, expected_digest="d")


@pytest.mark.parametrize("blocks", [None, "missing"])
def test_controller_without_blocks_rejected(game5, controller, blocks):
    """A controller whose block-set labels name no partition is refused
    when the file loads."""
    payload = export_strategy(
        controller.arena, controller.strategy, "d", controller.final_partition
    )
    if blocks is None:
        payload["blocks"] = None
    else:
        del payload["blocks"]
    with pytest.raises(SimulationError, match="strategy file has no partition"):
        load_runner(game5, payload, expected_digest="d")


def _list_memory(payload):
    for move in payload["moves"]:
        move[4] = [0]


def _memory_count_not_int(payload):
    payload["memory_count"] = "many"


def _memory_out_of_range(payload):
    for move in payload["moves"]:
        move[4] = 3


@pytest.mark.parametrize("tamper, message", [
    pytest.param(_list_memory, "uses memory [0]", id="list"),
    pytest.param(_memory_count_not_int, "memory_count 'many', not a positive int",
                 id="count"),
    pytest.param(_memory_out_of_range, "uses memory 3, but has memory_count 1",
                 id="range"),
])
def test_controller_with_bad_memory_rejected(game5, controller, tamper, message):
    """A memory the controller does not have is rejected when the file
    loads, before the agent moves."""
    payload = export_strategy(
        controller.arena, controller.strategy, "d", controller.final_partition
    )
    assert payload["memory_count"] == 1
    load_runner(game5, payload, expected_digest="d")
    tamper(payload)
    with pytest.raises(SimulationError, match=re.escape(message)):
        load_runner(game5, payload, expected_digest="d")


@pytest.fixture(scope="module")
def gf2_payload(game5):
    """The exported paper5x5 ``GF p<=2`` controller."""
    out = cegar_loop(game5, parse_spec("GF p<=2"))
    assert out.verdict == "realizable"
    return export_strategy(out.arena, out.strategy, "d", out.final_partition)


def _unknown_block(payload, G):
    move = next(m for m in payload["moves"] if isinstance(m[2], list))
    move[2] = [99]
    return f"move [99] of state {move[0]} names [99], which are not blocks"


def _unknown_cell(payload, G):
    move = next(m for m in payload["moves"] if isinstance(m[2], int))
    move[2] = 99
    return f"move 99 of state {move[0]} is not a target cell of the map"


def _mislabelled_reply(payload, G):
    """The reply of the first move goes to a state with another label."""
    move = payload["moves"][0]
    r = next(r for r, (_, label) in enumerate(payload["states"]) if label != move[2])
    move[3] = r
    return f"move {move[2]} of state {move[0]} replies with state {r}, labelled"


def _illegal_reply(payload, G, set_move):
    """The reply of the first seen-cell or block-set move goes to a new
    state with the move's label and the agent on a cell that the move
    does not let it reach."""
    move = next(m for m in payload["moves"] if isinstance(m[2], list) == set_move)
    l_a = payload["states"][move[0]][0]
    far = min(G.agent_locations - {*G.agent_succ[l_a], l_a})
    move[3] = len(payload["states"])
    payload["states"].append([far, move[2]])
    payload["winning_region"].append(move[3])
    return f"moves the agent {l_a} -> {far}, which is illegal after it"


def _duplicate_move(payload, G):
    """A second move for the ``(state, memory, label)`` of a seen-cell
    move, to another state with the move's label and a legal agent cell,
    so that either move alone would load."""
    states = payload["states"]
    for i, mem, c, r, mem2 in payload["moves"]:
        if isinstance(c, int):
            legal = G.succ_a(states[i][0], c)
            for r2, (l_a, label) in enumerate(states):
                if label == c and r2 != r and l_a in legal:
                    payload["moves"].append([i, mem, c, r2, mem2])
                    return f"lists two moves for state {i}, memory {mem} and label {c}"
    raise AssertionError("no seen-cell move has a second legal reply")


@pytest.mark.parametrize("tamper", [
    pytest.param(_duplicate_move, id="duplicate"),
    pytest.param(_unknown_block, id="block"),
    pytest.param(_unknown_cell, id="cell"),
    pytest.param(_mislabelled_reply, id="label"),
    pytest.param(partial(_illegal_reply, set_move=False), id="cell-reply"),
    pytest.param(partial(_illegal_reply, set_move=True), id="set-reply"),
])
def test_controller_with_bad_move_rejected(game5, gf2_payload, tamper):
    """A second move for one ``(state, memory, label)``, a move whose
    label names a cell or block the file lacks, whose reply state has
    another label, or whose reply puts the agent where the move does not
    let it go is refused when the file loads, before the agent moves."""
    load_runner(game5, gf2_payload, expected_digest="d")
    payload = json.loads(json.dumps(gf2_payload))
    message = tamper(payload, game5)
    with pytest.raises(SimulationError, match=re.escape(message)):
        load_runner(game5, payload, expected_digest="d")


def test_controller_starting_away_from_the_map_start_rejected(game5, grid5, gf2_payload):
    """A controller whose initial state is ``[14, 18]``, not the map's
    start ``[4, 18]``, is refused when the file loads.  The simulator's
    checks alone do not catch it: a runner started there gets through 60
    rounds against the random target of seed 0."""
    payload = json.loads(json.dumps(gf2_payload))
    i = payload["states"].index([14, 18])
    runner = replace(load_runner(game5, payload, expected_digest="d"), initial=i)
    simulate(game5, grid5, runner, RandomPolicy(0), 60)
    payload["initial"] = i
    message = f"starts in state {i}, [14, 18], not at the map's start [4, 18]"
    with pytest.raises(SimulationError, match=re.escape(message)):
        load_runner(game5, payload, expected_digest="d")


def test_controller_with_two_set_moves_in_one_state_rejected(game5, controller):
    payload = export_strategy(
        controller.arena, controller.strategy, "d", controller.final_partition
    )
    i, mem, c, r, mem2 = next(m for m in payload["moves"] if isinstance(m[2], list))
    other = next([int(b)] for b in payload["blocks"] if [int(b)] != c)
    # a reply state with the other move's label, so the move itself loads
    payload["states"].append([payload["states"][r][0], other])
    payload["moves"].append([i, mem, other, len(payload["states"]) - 1, mem2])
    with pytest.raises(SimulationError, match=f"two block-set moves in state {i}"):
        load_runner(game5, payload, expected_digest="d")


def test_simulation_checks_hold_for_random_target(game5, grid5, controller):
    runner = make_runner(game5, controller)
    trace = simulate(game5, grid5, runner, RandomPolicy(seed=1), steps=40)
    assert len(trace.steps) == 41
    # the synthesized objective bounds the belief's invisible part
    for ts in trace.steps:
        invisible = {l for l in ts.belief if not game5.vis(ts.agent, l)}
        assert len(invisible) <= 5


def test_simulation_checks_hold_for_evasive_target(game5, grid5, controller):
    runner = make_runner(game5, controller)
    trace = simulate(game5, grid5, runner, EvasivePolicy(grid5), steps=40)
    assert trace.steps[0].target == grid5.target_init


def test_scripted_target(game5, grid5, controller):
    runner = make_runner(game5, controller)
    trace = simulate(game5, grid5, runner, ScriptedPolicy([17, 16]), steps=2)
    assert [ts.target for ts in trace.steps] == [18, 17, 16]


def test_scripted_target_rejects_illegal_move(game5, grid5, controller):
    runner = make_runner(game5, controller)
    with pytest.raises(SimulationError):
        simulate(game5, grid5, runner, ScriptedPolicy([24]), steps=1)


def test_scripted_target_exhaustion(game5, grid5, controller):
    runner = make_runner(game5, controller)
    with pytest.raises(SimulationError):
        simulate(game5, grid5, runner, ScriptedPolicy([17]), steps=2)


def test_goal_seeking_target_reaches_goal(game5, grid5, controller):
    runner = make_runner(game5, controller)
    # the same map with its top-left cell marked as a goal
    policy = GoalSeekingPolicy(replace(grid5, goal_cells=frozenset({0})))
    trace = simulate(game5, grid5, runner, policy, steps=15)
    assert any(ts.target == 0 for ts in trace.steps)


def test_replay_soundness_over_seeds(game5, grid5, controller):
    """The in-loop belief assertions hold for 100 random targets."""
    for seed in range(100):
        runner = make_runner(game5, controller)
        simulate(game5, grid5, runner, RandomPolicy(seed=seed), steps=15)


def test_simulation_deterministic(game5, grid5, controller):
    runs = []
    for _ in range(2):
        runner = make_runner(game5, controller)
        trace = simulate(game5, grid5, runner, RandomPolicy(seed=7), steps=25)
        runs.append(trace_jsonl(trace))
    assert runs[0] == runs[1]


def test_render_text_frames(game5, grid5, controller):
    runner = make_runner(game5, controller)
    trace = simulate(game5, grid5, runner, RandomPolicy(seed=3), steps=4)
    text = render_trace(trace, "text")
    frames = text.strip().split("\n\n")
    assert len(frames) == 5
    first = frames[0].splitlines()
    assert first[0] == "step 0"
    assert len(first) == 1 + grid5.rows
    assert all(len(line) == grid5.cols for line in first[1:])
    assert first[1 + 2].count("#") == 3


def test_render_svg_deterministic(game5, grid5, controller):
    runner = make_runner(game5, controller)
    trace = simulate(game5, grid5, runner, RandomPolicy(seed=3), steps=4)
    svg = render_trace(trace, "svg")
    assert svg.startswith("<svg")
    runner2 = make_runner(game5, controller)
    trace2 = simulate(game5, grid5, runner2, RandomPolicy(seed=3), steps=4)
    assert render_trace(trace2, "svg") == svg


def test_render_unknown_format(game5, grid5, controller):
    runner = make_runner(game5, controller)
    trace = simulate(game5, grid5, runner, RandomPolicy(seed=3), steps=1)
    with pytest.raises(ValueError):
        render_trace(trace, "png")


def test_trace_jsonl_shape(game5, grid5, controller):
    runner = make_runner(game5, controller)
    trace = simulate(game5, grid5, runner, RandomPolicy(seed=5), steps=6)
    lines = trace_jsonl(trace).strip().splitlines()
    assert len(lines) == 7
    for n, line in enumerate(lines):
        rec = json.loads(line)
        assert rec["step"] == n
        assert rec["target"] in rec["belief"]
