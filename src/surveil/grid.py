"""Grid maps, line-of-sight visibility, and movement.

Cells are row-major indices in ``[0, rows*cols)``.  Map files use one
character per cell: ``.`` free, ``#`` obstacle, ``A`` agent start, ``T``
target start, ``G`` goal cell, and lowercase letters for labelled cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress

from .structure import _BITS, SurveillanceGameStructure


class MapError(ValueError):
    """Malformed map or config file."""


@dataclass(frozen=True)
class GridWorld:
    rows: int
    cols: int
    obstacles: frozenset[int]
    agent_init: int
    target_init: int
    goal_cells: frozenset[int] = frozenset()
    labels: dict[str, frozenset[int]] = field(default_factory=dict)

    def __post_init__(self):
        n = self.rows * self.cols
        if self.rows <= 0 or self.cols <= 0:
            raise MapError("grid dimensions must be positive")
        for c in self.obstacles | self.goal_cells | {self.agent_init, self.target_init}:
            if not 0 <= c < n:
                raise MapError(f"cell {c} out of range")
        if self.agent_init in self.obstacles or self.target_init in self.obstacles:
            raise MapError("start cell inside an obstacle")
        if self.agent_init == self.target_init:
            raise MapError("agent and target must start on distinct cells")
        for name, cells in self.labels.items():
            if cells & self.obstacles:
                raise MapError(f"label {name!r} covers an obstacle cell")
        if self.goal_cells & self.obstacles:
            raise MapError("goal cell inside an obstacle")

    @property
    def free_cells(self) -> frozenset[int]:
        return frozenset(range(self.rows * self.cols)) - self.obstacles

    def rc(self, cell: int) -> tuple[int, int]:
        return divmod(cell, self.cols)

    def is_free(self, cell: int) -> bool:
        return 0 <= cell < self.rows * self.cols and cell not in self.obstacles

    def neighbors(self, cell: int):
        """Free 4-connected neighbours of a cell."""
        r, c = self.rc(cell)
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            nr, nc = r + dr, c + dc
            if 0 <= nr < self.rows and 0 <= nc < self.cols:
                n = nr * self.cols + nc
                if n not in self.obstacles:
                    yield n


@dataclass(frozen=True)
class MotionConfig:
    agent_radius: int = 1
    target_radius: int = 1
    allow_stay: bool = False
    restrict_agent_to_visible: bool = False

    def __post_init__(self):
        if self.agent_radius < 1 or self.target_radius < 1:
            raise MapError("motion radii must be >= 1")


@dataclass(frozen=True)
class VisionConfig:
    range: float | None = None

    def __post_init__(self):
        # ``not range > 0`` also holds for NaN, which compares false
        if self.range is not None and not self.range > 0:
            raise MapError("vision range must be positive")


def parse_grid(text: str) -> GridWorld:
    """Parse a map; blank lines are skipped, and error messages count
    lines and columns from 1."""
    # (line number, text) of each non-blank line
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise MapError("empty map")
    cols = len(lines[0][1])
    obstacles, goals = set(), set()
    labels: dict[str, set[int]] = {}
    agent = target = None
    for r, (n, ln) in enumerate(lines):
        if len(ln) != cols:
            raise MapError(f"ragged map: line {n} has length {len(ln)}, expected {cols}")
        for c, ch in enumerate(ln):
            cell = r * cols + c
            if ch == ".":
                continue
            elif ch == "#":
                obstacles.add(cell)
            elif ch == "A":
                if agent is not None:
                    raise MapError("duplicate 'A'")
                agent = cell
            elif ch == "T":
                if target is not None:
                    raise MapError("duplicate 'T'")
                target = cell
            elif ch == "G":
                goals.add(cell)
            elif ch.islower() and ch.isalpha():
                labels.setdefault(ch, set()).add(cell)
            else:
                raise MapError(f"unknown map character {ch!r} at line {n}, column {c + 1}")
    if agent is None:
        raise MapError("missing 'A' (agent start)")
    if target is None:
        raise MapError("missing 'T' (target start)")
    return GridWorld(
        rows=len(lines),
        cols=cols,
        obstacles=frozenset(obstacles),
        agent_init=agent,
        target_init=target,
        goal_cells=frozenset(goals),
        labels={k: frozenset(v) for k, v in sorted(labels.items())},
    )


_CONFIG_KEYS = {
    "agent_radius": int,
    "target_radius": int,
    "allow_stay": None,
    "vision_range": float,
    "restrict_agent_to_visible": None,
}


def parse_config(text: str) -> tuple[MotionConfig, VisionConfig]:
    """Parse ``key=value`` lines into motion and vision configs; error
    messages count lines from 1."""
    values: dict[str, object] = {}
    for i, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise MapError(f"config line {i}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _CONFIG_KEYS:
            raise MapError(f"config line {i}: unknown key {key!r}")
        conv = _CONFIG_KEYS[key]
        if conv is None:
            if val.lower() not in ("true", "false", "0", "1"):
                raise MapError(f"config line {i}: boolean expected for {key}")
            values[key] = val.lower() in ("true", "1")
        else:
            try:
                values[key] = conv(val)
            except ValueError:
                raise MapError(f"config line {i}: {conv.__name__} expected for {key}")
    vision = VisionConfig(range=values.pop("vision_range", None))
    motion = MotionConfig(**values)  # type: ignore[arg-type]
    return motion, vision


def _segment_hits_box(px, py, qx, qy, x0, y0, x1, y1, closed=False) -> bool:
    """Segment vs an axis-aligned box (Liang-Barsky clipping).

    With ``closed`` any contact counts, including touching a corner or
    sliding along an edge; otherwise only passing through the open box
    counts as a hit.
    """
    t0, t1 = 0.0, 1.0
    for p, lo, hi, d in ((px, x0, x1, qx - px), (py, y0, y1, qy - py)):
        if d == 0:
            if closed:
                if p < lo or p > hi:
                    return False
            elif p <= lo or p >= hi:
                return False
        else:
            a, b = (lo - p) / d, (hi - p) / d
            if a > b:
                a, b = b, a
            if a > t0:
                t0 = a
            if b < t1:
                t1 = b
    if closed:
        return t0 <= t1
    return t0 < t1


def reachable_moves(g: GridWorld, start: int, radius: int, allow_stay: bool) -> frozenset[int]:
    """Cells reachable in at most ``radius`` unit steps through free cells.

    ``start`` is left out unless ``allow_stay``.  Falls back to
    ``{start}`` when the result would be empty, so transitions stay
    total.
    """
    if not g.is_free(start):
        raise MapError(f"reachable_moves from non-free cell {start}")
    seen = {start}
    frontier = [start]
    for _ in range(min(radius, g.rows * g.cols)):
        nxt = []
        for cell in frontier:
            for n in g.neighbors(cell):
                if n not in seen:
                    seen.add(n)
                    nxt.append(n)
        frontier = nxt
    if not allow_stay:
        seen.discard(start)
    if not seen:
        return frozenset({start})
    return frozenset(seen)


def _visible_sets(g: GridWorld, v: VisionConfig) -> dict[int, frozenset[int]]:
    """Per free cell, the free cells visible from it (itself included).

    A cell sees another when their centres lie within the vision range,
    if one is set, and the straight segment between the centres is not
    occluded by any obstacle cell.  The distance is tested on the
    integer row and column offsets, which are exactly the differences of
    the centres.  Passing through the interior of an obstacle square
    always occludes.  A segment that merely grazes an obstacle corner
    occludes only when the sight line runs at exactly 45 degrees: such a
    line steps corner-to-corner between diagonal cells, and sight may not
    cut an obstacle corner, whereas a line at any other slope passes the
    touched corner on its way between different cells.

    Occlusion depends only on the offset ``(dr, dc)`` from one cell to
    the other and on which cells of the box they span hold obstacles, so
    each offset is tested for every source cell at once, on int bit
    masks.  Cell ``(r, c)`` is bit ``r*W + c``, where the row stride
    ``W`` leaves ``rc`` empty columns after each row, as many as the
    widest column offset, so that no shift by an offset or a box cell
    wraps from one row into a real cell of another.  Each unordered pair
    is tested once, from its lower-numbered cell (sight is symmetric),
    and only the box cells that hold an obstacle for some source still
    in play get the exact segment test, in coordinates relative to the
    source's corner.  Centres are half-integers and box edges integers,
    so every difference the test forms is the same exact number it would
    be in absolute coordinates.
    """
    rows, cols = g.rows, g.cols
    # a missing or infinite range cuts nothing off
    reach = rows + cols
    limit = None
    if v.range is not None:
        reach = int(min(v.range, reach))
        limit = v.range**2
    rc = min(reach, cols - 1)
    W = cols + rc
    free = sorted(g.free_cells)
    F = sum(1 << (c // cols * W + c % cols) for c in free)
    O = sum(1 << (c // cols * W + c % cols) for c in g.obstacles)
    # the cell at each bit, padding bits included: no mask sets those
    cell_at = [p // W * cols + p % W for p in range(rows * W)]
    visible = {a: {a} for a in free}
    for dr in range(min(reach, rows - 1) + 1):
        for dc in range(1 if dr == 0 else -rc, rc + 1):
            if limit is not None and dr * dr + dc * dc > limit:
                continue
            S = F & (F >> (dr * W + dc))
            closed = dr == abs(dc)
            for i in range(dr + 1):
                if not S:
                    break
                for j in range(min(0, dc), max(0, dc) + 1):
                    k = i * W + j
                    M = S & (O >> k if k >= 0 else O << -k)
                    if M and _segment_hits_box(
                        0.5, 0.5, dc + 0.5, dr + 0.5, j, i, j + 1, i + 1, closed=closed
                    ):
                        S ^= M
            d = dr * cols + dc
            for a in compress(cell_at, bin(S)[:1:-1].encode().translate(_BITS)):
                visible[a].add(a + d)
                visible[a + d].add(a)
    return {a: frozenset(cells) for a, cells in visible.items()}


def build_game_structure(g: GridWorld, m: MotionConfig, v: VisionConfig):
    """Instantiate the turn-based game: target moves first, agent replies.

    Each free cell gets one move ball per player.  With
    ``restrict_agent_to_visible`` the agent's ball is confined to cells
    visible from its current location.  The structure applies the rule
    that neither player may move onto the other's cell on lookup.
    """
    free = sorted(g.free_cells)
    visibility = _visible_sets(g, v)
    target_succ, agent_succ = {}, {}
    for c in free:
        ball = reachable_moves(g, c, m.target_radius, m.allow_stay)
        target_succ[c] = tuple(sorted(ball))
        if m.agent_radius != m.target_radius:
            ball = reachable_moves(g, c, m.agent_radius, m.allow_stay)
        if m.restrict_agent_to_visible:
            ball = ball & visibility[c] or frozenset({c})
        agent_succ[c] = tuple(sorted(ball))
    return SurveillanceGameStructure(
        initial=(g.agent_init, g.target_init),
        target_succ=target_succ,
        agent_succ=agent_succ,
        visibility=visibility,
    )
