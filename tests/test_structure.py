import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import reference_structure
from conftest import invisible_succ, pillar_problem, random_problems, succ_t
from surveil import (
    MotionConfig,
    SurveillanceGameStructure,
    VisionConfig,
    build_game_structure,
    parse_config,
    parse_grid,
    reachable_states,
    validate_assumptions,
)
from surveil.belief import belief_moves, target_moves
from surveil.cli import bundled_map
from surveil.structure import SuccessorReport, _balls_visible, _name_violations, cell_mask


def test_transitions_from_initial_state(game5):
    """The six successor pairs of (4, 18), computed by hand: the target
    may step to 17, 19 or 23, the agent then to 3 or 9."""
    pairs = set()
    l_a, l_t = game5.initial
    for l_t2 in game5.target_step(l_a, l_t):
        for l_a2 in game5.succ_a(l_a, l_t2):
            pairs.add((l_a2, l_t2))
    assert pairs == {(3, 17), (3, 19), (3, 23), (9, 17), (9, 19), (9, 23)}


def test_visibility_from_initial(game5):
    assert not game5.vis(4, 18)
    assert not game5.vis(4, 17)
    assert game5.vis(4, 19)
    assert not game5.vis(4, 23)


def test_succ_t_is_union(game5):
    assert succ_t(game5, 4, {18}) == {17, 19, 23}
    both = succ_t(game5, 4, {17, 23})
    assert both == set(game5.target_step(4, 17)) | set(game5.target_step(4, 23))


def test_invisible_succ(game5):
    assert invisible_succ(game5, 4, {18}) == {17, 23}


def test_occupancy_constraints(game5):
    # target may not move onto the agent's cell
    assert 4 not in game5.target_step(4, 9)
    # agent may not move onto the target's new cell
    for l_a in game5.agent_locations:
        for l_t2 in game5.target_locations:
            replies = game5.succ_a(l_a, l_t2)
            assert l_t2 not in replies or replies == (l_a,)


def test_assumptions_hold(game5):
    report = validate_assumptions(game5)
    assert report.ok
    assert report.total and report.invisible_independent
    assert report.violations == ()


def test_totality_violation_detected(game5):
    _, l_t0 = game5.initial
    broken = dict(game5.target_succ)
    broken[l_t0] = ()
    G = SurveillanceGameStructure(
        game5.initial, broken, game5.agent_succ, game5.visibility
    )
    report = validate_assumptions(G)
    assert not report.ok
    assert ("no_target_move", game5.initial) in report.violations


def test_report_violations_must_match_flags():
    with pytest.raises(ValueError):
        SuccessorReport(True, True, (("no_target_move", (0, 0)),))
    with pytest.raises(ValueError):
        SuccessorReport(False, True)


def test_independence_violation_detected(game5):
    # let the agent reach the invisible cell 17: a reply then depends on
    # whether the target landed there, and 23 is invisible as well
    l_a, _ = game5.initial
    assert not game5.vis(l_a, 17) and not game5.vis(l_a, 23)
    broken = dict(game5.agent_succ)
    broken[l_a] = tuple(sorted(broken[l_a] + (17,)))
    G = SurveillanceGameStructure(
        game5.initial, game5.target_succ, broken, game5.visibility
    )
    report = validate_assumptions(G)
    assert not report.invisible_independent


def test_reachable_states_bfs(game5):
    states = reachable_states(game5)
    assert states[0] == game5.initial
    assert len(states) == len(set(states))
    for l_a, l_t in states:
        assert l_a in game5.agent_locations
        assert l_t in game5.target_locations


def test_fast_agent_needs_visibility_restriction():
    """With radius 2 the agent's reply set depends on which invisible cell
    the target picked (it may not enter it), unless replies are confined
    to visible cells."""
    g = parse_grid("A....\n.....\n.###.\n...T.\n.....\n")
    free_motion = MotionConfig(agent_radius=2)
    G = build_game_structure(g, free_motion, VisionConfig())
    ok_either_way = validate_assumptions(G).invisible_independent
    restricted = MotionConfig(agent_radius=2, restrict_agent_to_visible=True)
    G2 = build_game_structure(g, restricted, VisionConfig())
    assert validate_assumptions(G2).invisible_independent
    # the restriction must never be *less* independent
    assert validate_assumptions(G2).ok or not ok_either_way


def assert_same_structure(G, R):
    """``G`` from ``build_game_structure`` and ``R`` from the reference
    builder denote the same game and get the same assumption report."""
    assert (G.agent_locations, G.target_locations, G.initial) == (
        R.agent_locations,
        R.target_locations,
        R.initial,
    )
    for (l_a, l_t), succs in R.target_succ.items():
        assert G.target_step(l_a, l_t) == succs, (l_a, l_t)
    for (l_a, l_t, l_t2), replies in R.agent_succ.items():
        assert G.succ_a(l_a, l_t2) == replies, (l_a, l_t, l_t2)
    for l_a in R.agent_locations:
        for l_t in R.target_locations:
            assert G.vis(l_a, l_t) == R.vis(l_a, l_t), (l_a, l_t)
    assert validate_assumptions(G) == reference_structure.validate_assumptions(R)


def kernel_moves(G, l_a, record):
    """``target_moves`` with the mask of its invisible moves turned into
    cells, the form ``reference_structure.target_moves`` returns."""
    visible, invisible = target_moves(G, l_a, record)
    if invisible is not None:
        unseen, replies = invisible
        invisible = (G.cells_of(unseen), replies)
    return visible, invisible


@settings(max_examples=300, deadline=None)
@given(random_problems(), st.data())
def test_structure_matches_reference_builder(problem, data):
    """Same game as the reference builder, and the same successor kernel
    on a drawn agent cell and belief.  One record of a second drawn belief
    serves every agent cell, those inside the belief too."""
    G = build_game_structure(*problem)
    R = reference_structure.build_game_structure(*problem)
    assert_same_structure(G, R)
    l_a = data.draw(st.sampled_from(sorted(G.agent_locations)))
    belief = data.draw(
        st.frozensets(st.sampled_from(sorted(G.target_locations - {l_a})), min_size=1)
    )
    assert kernel_moves(
        G, l_a, belief_moves(G, cell_mask(belief))
    ) == reference_structure.target_moves(R, l_a, belief)
    shared = data.draw(st.frozensets(st.sampled_from(sorted(G.target_locations)), min_size=1))
    record = belief_moves(G, cell_mask(shared))
    for l_a in sorted(G.agent_locations):
        assert kernel_moves(G, l_a, record) == reference_structure.target_moves(
            R, l_a, shared
        ), l_a


@settings(max_examples=100, deadline=None)
@given(random_problems(), st.data())
def test_assumption_report_matches_reference_on_broken_tables(problem, data):
    """Empty a target move set and change one agent move set: the check
    reports the same violations, in the same order, as the reference
    check on the triple-keyed tables that the broken ones denote."""
    G = build_game_structure(*problem)
    R = reference_structure.build_game_structure(*problem)
    _, l_t = data.draw(st.sampled_from(reachable_states(G)))
    target_succ = dict(G.target_succ)
    target_succ[l_t] = ()
    l_a = data.draw(st.sampled_from(sorted(G.agent_succ)))
    agent_succ = dict(G.agent_succ)
    agent_succ[l_a] = data.draw(
        st.sampled_from([(), (l_a,), tuple(sorted(G.agent_locations))])
    )
    broken = SurveillanceGameStructure(G.initial, target_succ, agent_succ, G.visibility)
    ref_target_succ = {
        (a, t): broken.target_step(a, t) for a in R.agent_locations for t in R.target_locations
    }
    ref_agent_succ = {
        (a, t, t2): broken.succ_a(a, t2)
        for (a, t), succs in ref_target_succ.items()
        for t2 in succs
    }
    ref_broken = reference_structure.SurveillanceGameStructure(
        R.agent_locations, R.target_locations, R.initial, ref_target_succ, ref_agent_succ, R.visibility
    )
    assert_same_structure(broken, ref_broken)


@pytest.mark.parametrize("name", ["paper5x5", "bigroom", "liveness10x15"])
def test_bundled_structures_match_reference_builder(name):
    grid = parse_grid(bundled_map(f"{name}.txt"))
    motion, vision = parse_config(bundled_map(f"{name}.cfg"))
    assert_same_structure(
        build_game_structure(grid, motion, vision),
        reference_structure.build_game_structure(grid, motion, vision),
    )


@pytest.mark.parametrize(
    "n, seed, ranged",
    [
        *(pytest.param(n, seed, True, id=f"{n}-{seed}") for n in (12, 16, 20) for seed in (1, 2)),
        pytest.param(16, 1, False, id="16-1-no_range"),
    ],
)
def test_pillar_structures_match_reference_builder(n, seed, ranged):
    """perfbench's scale-gen maps, and one without its vision range, so
    that every offset across the map is in range: every ball is visible,
    so the report comes without a walk, and it and the tables are the
    reference builder's."""
    map_text, cfg_text = pillar_problem(n, seed)
    grid = parse_grid(map_text)
    motion, vision = parse_config(cfg_text)
    if not ranged:
        vision = VisionConfig()
    G = build_game_structure(grid, motion, vision)
    assert _balls_visible(G)
    assert_same_structure(G, reference_structure.build_game_structure(grid, motion, vision))


# two rooms with no way and no sight line between them, one pillar in each
TWO_ROOMS = "A..#....\n.#.#...T\n...#....\n"


@pytest.mark.parametrize("cfg", ["agent_radius=2\n", "vision_range=0.9\n"])
@pytest.mark.parametrize(
    "text",
    [bundled_map("paper5x5.txt"), pillar_problem(12, 1)[0], TWO_ROOMS],
    ids=["paper5x5", "pillars12", "two_rooms"],
)
def test_fallback_tiers_match_the_walk(text, cfg):
    """A ball of radius 2 reaches cells behind an obstacle, and a range
    below 1 hides every neighbour, so the check without a walk does not
    apply: the report is the walk's over every reachable state, and the
    reference's.  In the two rooms the target never lands in the agent's
    ball, so the walk finds no violation."""
    grid = parse_grid(text)
    motion, vision = parse_config(cfg)
    G = build_game_structure(grid, motion, vision)
    assert not _balls_visible(G)
    report = validate_assumptions(G)
    assert report == _name_violations(G)
    R = reference_structure.build_game_structure(grid, motion, vision)
    assert report == reference_structure.validate_assumptions(R)
    assert report.ok == (text == TWO_ROOMS)


# each arm's only move is onto the centre, where the agent starts
CROSS = "#T#\n.A.\n#.#\n"


@pytest.mark.parametrize("text", [CROSS, bundled_map("paper5x5.txt")], ids=["cross", "paper5x5"])
def test_option_combinations_match_reference_builder(text):
    """Every combination of the motion options with a vision range that
    hides even the neighbours, so each fallback move is taken: the same
    game, and the same kernel on the largest belief of every agent cell.
    One record of the whole target set serves every agent cell; on the
    cross, the arms are stuck on the centre when the agent stands there."""
    grid = parse_grid(text)
    stuck_on_agent = False
    for radius, allow_stay, restrict, vision_range in itertools.product(
        (1, 2), (False, True), (False, True), (None, 0.5, 1.5)
    ):
        motion = MotionConfig(radius, 1, allow_stay, restrict)
        vision = VisionConfig(vision_range)
        G = build_game_structure(grid, motion, vision)
        R = reference_structure.build_game_structure(grid, motion, vision)
        assert_same_structure(G, R)
        everywhere = belief_moves(G, cell_mask(G.target_locations))
        for l_a in sorted(G.agent_locations):
            belief = G.target_locations - {l_a}
            assert kernel_moves(G, l_a, belief_moves(G, cell_mask(belief))) == (
                reference_structure.target_moves(R, l_a, belief)
            ), (motion, vision, l_a)
            assert kernel_moves(G, l_a, everywhere) == reference_structure.target_moves(
                R, l_a, G.target_locations
            ), (motion, vision, l_a)
            stuck_on_agent |= l_a in everywhere.stuck
    assert stuck_on_agent == (text == CROSS)


# perfbench's scale-gen map pillars20 at seed 1: 375 free cells
PILLARS20 = """\
A...................
.............#......
.#...#...#.......#..
....................
....................
..............#.....
..#...#..#........#.
....................
....................
..............#..#..
.#...#....#.........
....................
....................
..#...............#.
......#...#...#.....
....................
....................
....................
.#....#..#...#...#..
...................T
"""


def test_tables_hold_one_entry_per_cell():
    grid = parse_grid(PILLARS20)
    motion, vision = parse_config("vision_range=3\n")
    G = build_game_structure(grid, motion, vision)
    assert len(grid.free_cells) == 375
    assert len(G.target_succ) == len(G.agent_succ) == len(G.visibility) == 375


def test_kernel_matches_reference_builder_on_wide_masks():
    """On pillars20 at seed 1 a mask has bits above 256, where Python
    stops sharing small ints: the kernel agrees with the reference on
    the whole-map belief and a few drawn ones, from every agent cell,
    and the invisible cells it returns are the structure's own ints."""
    map_text, cfg_text = pillar_problem(20, 1)
    grid = parse_grid(map_text)
    motion, vision = parse_config(cfg_text)
    G = build_game_structure(grid, motion, vision)
    R = reference_structure.build_game_structure(grid, motion, vision)
    cells = sorted(G.target_locations)
    assert len(cells) == 375 and cells[-1] > 256
    rng = random.Random(1)
    beliefs = [G.target_locations] + [frozenset(rng.sample(cells, k)) for k in (3, 40, 200)]
    own = {id(l_t) for l_t in G.target_succ}
    invisible_moves = 0
    for belief in beliefs:
        record = belief_moves(G, cell_mask(belief))
        for l_a in sorted(G.agent_locations):
            visible, invisible = kernel_moves(G, l_a, record)
            assert (visible, invisible) == reference_structure.target_moves(
                R, l_a, belief
            ), (len(belief), l_a)
            if invisible is not None:
                invisible_moves += 1
                assert {id(l_t) for l_t in invisible[0]} <= own
    assert invisible_moves > len(cells)
