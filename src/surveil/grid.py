"""Grid maps, line-of-sight visibility, and movement.

Cells are row-major indices in ``[0, rows*cols)``.  Map files use one
character per cell: ``.`` free, ``#`` obstacle, ``A`` agent start, ``T``
target start, ``G`` goal cell, and lowercase letters for labelled cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .structure import SurveillanceGameStructure


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


def _occluded(r0: int, c0: int, r1: int, c1: int, obstacles) -> bool:
    """True iff an obstacle blocks the sight line between the centres of
    the cells at ``(r0, c0)`` and ``(r1, c1)``.

    ``obstacles`` holds ``(row, col)`` pairs.  Only those inside the
    rows and columns the segment spans are tested: the segment keeps
    half a cell away from every other row and column.  Passing through
    the interior of an obstacle square always occludes.  A segment that
    merely grazes an obstacle corner occludes only when the sight line
    runs at exactly 45 degrees: such a line steps corner-to-corner
    between diagonal cells, and sight may not cut an obstacle corner,
    whereas a line at any other slope passes the touched corner on its
    way between different cells.
    """
    px, py = c0 + 0.5, r0 + 0.5
    qx, qy = c1 + 0.5, r1 + 0.5
    diagonal = abs(r1 - r0) == abs(c1 - c0)
    lo_r, hi_r = (r0, r1) if r0 <= r1 else (r1, r0)
    lo_c, hi_c = (c0, c1) if c0 <= c1 else (c1, c0)
    for orr, oc in obstacles:
        if (
            lo_r <= orr <= hi_r
            and lo_c <= oc <= hi_c
            and _segment_hits_box(px, py, qx, qy, oc, orr, oc + 1.0, orr + 1.0, closed=diagonal)
        ):
            return True
    return False


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
    occluded by any obstacle cell (see :func:`_occluded`).  The distance
    is tested on the integer row and column offsets, which are exactly
    the differences of the centres.

    Each unordered pair of free cells inside the vision range's bounding
    box is tested once, from its lower-numbered cell, since line of sight
    is symmetric.  Without a range the box is the whole grid.  Each
    source cell tests its pairs against the obstacles inside the part of
    the box that its pairs span, collected once: no other obstacle can
    touch one of its sight lines.
    """
    free = sorted(g.free_cells)
    visible = {a: {a} for a in free}
    # a missing or infinite range cuts nothing off
    reach = g.rows + g.cols
    limit = None
    if v.range is not None:
        reach = int(min(v.range, reach))
        limit = v.range**2
    cols = g.cols
    obstacles = list(map(g.rc, g.obstacles))
    for a in free:
        r0, c0 = g.rc(a)
        lo_c, hi_c = max(0, c0 - reach), min(cols, c0 + reach + 1)
        hi_r = min(g.rows, r0 + reach + 1)
        near = [
            (orr, oc)
            for orr, oc in obstacles
            if r0 <= orr < hi_r and lo_c <= oc < hi_c
        ]
        for r in range(r0, hi_r):
            dr2 = (r - r0) ** 2
            for c in range(c0 + 1 if r == r0 else lo_c, hi_c):
                t = r * cols + c
                if t not in visible or limit is not None and dr2 + (c - c0) ** 2 > limit:
                    continue
                if not _occluded(r0, c0, r, c, near):
                    visible[a].add(t)
                    visible[t].add(a)
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
