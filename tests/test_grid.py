import math

import pytest
from hypothesis import given, settings, strategies as st

from surveil import (
    GridWorld,
    MapError,
    MotionConfig,
    VisionConfig,
    build_game_structure,
    parse_config,
    parse_grid,
    reachable_moves,
)
from conftest import PAPER5X5, random_problems
from reference_structure import line_of_sight


@st.composite
def sight_problems(draw):
    """A grid of up to 12x12 cells, one column wide included, with
    obstacles at a drawn density and a vision range that is none, inside
    the grid or beyond it; a whole range puts cells exactly on its
    circle."""
    rows = draw(st.integers(1, 12))
    cols = draw(st.integers(1 if rows > 1 else 2, 12))
    cells = list(range(rows * cols))
    agent, target = draw(st.lists(st.sampled_from(cells), min_size=2, max_size=2, unique=True))
    density = draw(st.floats(0.0, 0.6))
    rng = draw(st.randoms(use_true_random=False))
    obstacles = frozenset(c for c in cells if c not in (agent, target) and rng.random() < density)
    vision_range = draw(
        st.none()
        | st.floats(0.5, 15.0)
        | st.integers(1, 15).map(float)
        | st.floats(17.0, 1e9)
        | st.just(math.inf)
    )
    return GridWorld(rows, cols, obstacles, agent, target), VisionConfig(range=vision_range)


def test_parse_basic(grid5):
    assert (grid5.rows, grid5.cols) == (5, 5)
    assert grid5.obstacles == {11, 12, 13}
    assert grid5.agent_init == 4
    assert grid5.target_init == 18
    assert len(grid5.free_cells) == 22


def test_parse_labels_and_goal():
    g = parse_grid("A.g\n.G.\ng.T\n")
    assert g.goal_cells == {4}
    assert g.labels == {"g": frozenset({2, 6})}


@pytest.mark.parametrize(
    "text",
    [
        "",
        "A.\n.\n",  # ragged
        "..\n.T\n",  # no agent
        "A.\n..\n",  # no target
        "AA\n.T\n",  # duplicate agent
        "A%\n.T\n",  # unknown char
        "A#\nT#\n#T\n",  # duplicate target
    ],
)
def test_parse_errors(text):
    with pytest.raises(MapError):
        parse_grid(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("A..\n\n.%T\n", "unknown map character '%' at line 3, column 2"),
        ("A..\n.T\n", "ragged map: line 2 has length 2, expected 3"),
    ],
)
def test_map_errors_count_lines_from_one(text, message):
    with pytest.raises(MapError, match=f"^{message}$"):
        parse_grid(text)


def test_config_errors_count_lines_from_one():
    with pytest.raises(MapError, match="^config line 3: unknown key 'speed'$"):
        parse_config("agent_radius=1\n# comment\nspeed=3\n")


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
def test_vision_range_must_be_positive(value):
    with pytest.raises(MapError, match="vision range must be positive"):
        VisionConfig(range=value)


def test_start_on_obstacle_rejected():
    with pytest.raises(MapError):
        GridWorld(2, 2, frozenset({0}), 0, 3)


def test_parse_config_roundtrip():
    motion, vision = parse_config(
        "agent_radius = 3\nvision_range=5\n# comment\nrestrict_agent_to_visible=true\n"
    )
    assert motion.agent_radius == 3
    assert motion.target_radius == 1
    assert motion.restrict_agent_to_visible
    assert vision.range == 5


def test_parse_config_rejects_unknown_key():
    with pytest.raises(MapError):
        parse_config("speed=3\n")


def test_visibility_matches_hand_values(grid5):
    # from cell 4, the wall {11,12,13} blocks 17, 18 and 23 but not 19
    v = VisionConfig()
    assert not line_of_sight(grid5, v, 4, 18)
    assert not line_of_sight(grid5, v, 4, 17)
    assert line_of_sight(grid5, v, 4, 19)
    assert not line_of_sight(grid5, v, 4, 23)


def test_visibility_oracle_sampling(grid5):
    """Cross-check the segment clipper against dense point sampling."""
    v = VisionConfig()
    boxes = [(grid5.rc(o)[1], grid5.rc(o)[0]) for o in grid5.obstacles]

    def sampled(src, dst):
        (r0, c0), (r1, c1) = grid5.rc(src), grid5.rc(dst)
        px, py, qx, qy = c0 + 0.5, r0 + 0.5, c1 + 0.5, r1 + 0.5
        for i in range(2001):
            t = i / 2000
            x, y = px + t * (qx - px), py + t * (qy - py)
            for bx, by in boxes:
                # small tolerance: sampling cannot certify exact tangency
                if bx + 1e-9 < x < bx + 1 - 1e-9 and by + 1e-9 < y < by + 1 - 1e-9:
                    return False
        return True

    free = sorted(grid5.free_cells)
    for src in free:
        for dst in free:
            got = line_of_sight(grid5, v, src, dst)
            if got != sampled(src, dst):
                # disagreements may only come from exact boundary grazing
                assert got is False
                assert _grazes(grid5, src, dst), (src, dst)


def _grazes(g, src, dst):
    """The segment touches an obstacle square's boundary exactly."""
    (r0, c0), (r1, c1) = g.rc(src), g.rc(dst)
    px, py, qx, qy = c0 + 0.5, r0 + 0.5, c1 + 0.5, r1 + 0.5
    for o in g.obstacles:
        orr, oc = g.rc(o)
        for corner in (
            (oc, orr),
            (oc + 1, orr),
            (oc, orr + 1),
            (oc + 1, orr + 1),
        ):
            cx, cy = corner
            cross = (qx - px) * (cy - py) - (qy - py) * (cx - px)
            within = min(px, qx) - 1e-9 <= cx <= max(px, qx) + 1e-9 and min(
                py, qy
            ) - 1e-9 <= cy <= max(py, qy) + 1e-9
            if abs(cross) < 1e-9 and within:
                return True
        # horizontal/vertical grazing along an edge
        if py == qy and (py == orr or py == orr + 1):
            return True
        if px == qx and (px == oc or px == oc + 1):
            return True
    return False


def test_vision_range_cuts_off(grid5):
    v = VisionConfig(range=1.0)
    assert line_of_sight(grid5, v, 0, 1)
    assert not line_of_sight(grid5, v, 0, 2)
    # range is Euclidean between centres, so diagonal neighbours are out
    assert not line_of_sight(grid5, v, 0, 6)


def test_reachable_moves_radius(grid5):
    assert reachable_moves(grid5, 18, 1, False) == {17, 19, 23}
    assert reachable_moves(grid5, 18, 1, True) == {17, 18, 19, 23}
    # the obstacle wall blocks upward movement from 18
    assert 13 not in reachable_moves(grid5, 18, 2, False)
    # a radius beyond the grid's size returns at once with every free cell
    assert reachable_moves(grid5, 18, 10**20, False) == grid5.free_cells - {18}


def test_reachable_moves_fallback():
    # an isolated cell has no move but staying put, even without stays
    boxed = parse_grid("A#\n#T\n")
    assert reachable_moves(boxed, 0, 1, False) == {0}
    assert reachable_moves(boxed, 0, 2, True) == {0}


@given(
    st.integers(min_value=0, max_value=24),
    st.integers(min_value=1, max_value=3),
)
def test_reachable_moves_within_radius(cell, radius):
    g = parse_grid(PAPER5X5)
    if not g.is_free(cell):
        return
    for m in reachable_moves(g, cell, radius, True):
        (r0, c0), (r1, c1) = g.rc(cell), g.rc(m)
        assert abs(r0 - r1) + abs(c0 - c1) <= radius


@given(st.integers(0, 24), st.integers(0, 24))
def test_visibility_symmetric_without_range(a, b):
    g = parse_grid(PAPER5X5)
    if not (g.is_free(a) and g.is_free(b)):
        return
    v = VisionConfig()
    assert line_of_sight(g, v, a, b) == line_of_sight(g, v, b, a)


@settings(max_examples=200, deadline=None)
@given(random_problems())
def test_visibility_symmetric_under_range(problem):
    """The structure builder tests each pair of cells once and adds both
    directions, which relies on line of sight being symmetric under a
    vision range too."""
    g, _, v = problem
    free = sorted(g.free_cells)
    for a in free:
        for b in free:
            assert line_of_sight(g, v, a, b) == line_of_sight(g, v, b, a), (a, b)


@settings(max_examples=150, deadline=None)
@given(sight_problems())
def test_visibility_table_matches_line_of_sight(problem):
    """The structure's visibility, which tests each sight offset for
    every source cell at once, is the pairwise line of sight on every
    ordered pair of free cells: long offsets, one-column grids and
    ranges past the grid included."""
    g, v = problem
    visibility = build_game_structure(g, MotionConfig(), v).visibility
    free = sorted(g.free_cells)
    assert sorted(visibility) == free
    for a in free:
        assert visibility[a] == {b for b in free if line_of_sight(g, v, a, b)}, a


def test_motion_config_validation():
    with pytest.raises(MapError):
        MotionConfig(agent_radius=0)
    with pytest.raises(MapError):
        VisionConfig(range=0)


def test_euclidean_range_matches_distance():
    g = parse_grid("A....\n....T\n")
    v = VisionConfig(range=math.hypot(4, 1))
    assert line_of_sight(g, v, 0, 9)
    v2 = VisionConfig(range=math.hypot(4, 1) - 1e-6)
    assert not line_of_sight(g, v2, 0, 9)
