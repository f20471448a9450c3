"""Triple-keyed game structure builder, the reference for ``surveil.grid``.

This is the builder ``surveil`` used before its structure became
compact: an n-squared dict of visibility bools, target successors from a
``(start, radius, forbid)`` move cache, and agent replies stored under
``(l_a, l_t, l_t')`` for every source ``l_t``, together with the
assumption check that walks those tables.  ``build_game_structure`` must
give the same target moves, replies, visibility and assumption report.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from surveil.grid import GridWorld, MotionConfig, VisionConfig, _segment_hits_box, reachable_moves
from surveil.structure import SuccessorReport


def _occluded(r0: int, c0: int, r1: int, c1: int, obstacles) -> bool:
    """True iff an obstacle blocks the sight line between the centres of
    the cells at ``(r0, c0)`` and ``(r1, c1)``, one pair at a time: the
    reference for ``surveil.grid._visible_sets``, which tests each sight
    offset for every source cell at once.

    ``obstacles`` holds ``(row, col)`` pairs.  Only those inside the
    rows and columns the segment spans are tested: the segment keeps
    half a cell away from every other row and column.  Passing through
    the interior of an obstacle square always occludes.  A segment that
    merely grazes an obstacle corner occludes only when the sight line
    runs at exactly 45 degrees.
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


def line_of_sight(g: GridWorld, v: VisionConfig, src: int, dst: int) -> bool:
    """True iff ``dst`` is visible from ``src``.

    Visibility requires (a) centre distance within the vision range, if
    one is set, and (b) the straight segment between cell centres not
    being occluded by any obstacle cell (see :func:`_occluded`).  The
    distance is tested on the integer row and column offsets, which are
    exactly the differences of the centres.
    """
    if src == dst:
        return True
    r0, c0 = g.rc(src)
    r1, c1 = g.rc(dst)
    dr, dc = r1 - r0, c1 - c0
    if v.range is not None and dr * dr + dc * dc > v.range**2:
        return False
    return not _occluded(r0, c0, r1, c1, map(g.rc, g.obstacles))


@dataclass(frozen=True)
class SurveillanceGameStructure:
    """Turn-based game: from ``(l_a, l_t)`` the target moves first, then
    the agent replies knowing the target's move (when visible)."""

    agent_locations: frozenset[int]
    target_locations: frozenset[int]
    initial: tuple[int, int]
    # (l_a, l_t) -> sorted target successor locations
    target_succ: dict[tuple[int, int], tuple[int, ...]]
    # (l_a, l_t, l_t') -> sorted agent reply locations
    agent_succ: dict[tuple[int, int, int], tuple[int, ...]]
    # (l_a, l_t) -> bool
    visibility: dict[tuple[int, int], bool]

    def vis(self, l_a: int, l_t: int) -> bool:
        return self.visibility[(l_a, l_t)]

    def succ_t(self, l_a: int, belief: Iterable[int]) -> frozenset[int]:
        """Union of target successors over all locations in the belief."""
        out: set[int] = set()
        for l_t in belief:
            out.update(self.target_succ[(l_a, l_t)])
        return frozenset(out)

    def succ_a(self, l_a: int, l_t: int, l_t2: int) -> tuple[int, ...]:
        return self.agent_succ[(l_a, l_t, l_t2)]

    def invisible_succ(self, l_a: int, belief: Iterable[int]) -> frozenset[int]:
        """Target successors of the belief that are invisible from ``l_a``."""
        return frozenset(
            l for l in self.succ_t(l_a, belief) if not self.visibility[(l_a, l)]
        )


def reachable_states(G: SurveillanceGameStructure) -> list[tuple[int, int]]:
    """Concrete states reachable from the initial one, in BFS order."""
    seen = {G.initial}
    order = [G.initial]
    # ``order`` is its own queue: the loop reaches the states it appends
    for l_a, l_t in order:
        for l_t2 in G.target_succ[(l_a, l_t)]:
            for l_a2 in G.agent_succ[(l_a, l_t, l_t2)]:
                s = (l_a2, l_t2)
                if s not in seen:
                    seen.add(s)
                    order.append(s)
    return order


def validate_assumptions(G: SurveillanceGameStructure) -> SuccessorReport:
    """Check totality and invisible-independence over reachable states.

    Invisible-independence: for a fixed agent location, the agent's reply
    set may not depend on which invisible successor the target chose.
    """
    total = True
    independent = True
    violations = []
    # reference reply set per agent location: the condition quantifies over
    # every reachable source state sharing l_a, not just a single one
    reference: dict[int, tuple[tuple[int, ...], tuple[int, int], int]] = {}
    for l_a, l_t in reachable_states(G):
        succs = G.target_succ[(l_a, l_t)]
        if not succs:
            total = False
            violations.append(("no_target_move", (l_a, l_t)))
            continue
        for l_t2 in succs:
            replies = G.agent_succ[(l_a, l_t, l_t2)]
            if not replies:
                total = False
                violations.append(("no_agent_reply", (l_a, l_t), l_t2))
            if not G.visibility[(l_a, l_t2)]:
                if l_a not in reference:
                    reference[l_a] = (replies, (l_a, l_t), l_t2)
                elif replies != reference[l_a][0]:
                    independent = False
                    violations.append(("invisible_dependence", (l_a, l_t), l_t2))
    return SuccessorReport(total, independent, tuple(violations))


def build_game_structure(g: GridWorld, m: MotionConfig, v: VisionConfig):
    """Instantiate the turn-based game: target moves first, agent replies.

    The target may not move onto the agent's current cell; the agent may
    not move onto the target's new cell.  With
    ``restrict_agent_to_visible`` the agent is additionally confined to
    cells visible from its current location.
    """
    free = sorted(g.free_cells)
    vis = {}
    for a in free:
        for t in free:
            if a <= t:
                val = line_of_sight(g, v, a, t)
                vis[(a, t)] = val
                vis[(t, a)] = val if v.range is None else line_of_sight(g, v, t, a)

    @lru_cache(maxsize=None)
    def moves(start: int, radius: int, forbid: int) -> frozenset[int]:
        # the forbidden cell leaves the result, which falls back to {start}
        # when that empties it
        return reachable_moves(g, start, radius, m.allow_stay) - {forbid} or frozenset({start})

    target_succ: dict[tuple[int, int], tuple[int, ...]] = {}
    agent_succ: dict[tuple[int, int, int], tuple[int, ...]] = {}
    for l_a in free:
        visible_from = None
        if m.restrict_agent_to_visible:
            visible_from = {c for c in free if vis[(l_a, c)]}
        for l_t in free:
            succs = tuple(sorted(moves(l_t, m.target_radius, l_a)))
            target_succ[(l_a, l_t)] = succs
            for l_t2 in succs:
                key = (l_a, l_t2)
                if key in agent_succ:
                    agent_succ[(l_a, l_t, l_t2)] = agent_succ[key]  # type: ignore[index]
                    continue
                replies = moves(l_a, m.agent_radius, l_t2)
                if visible_from is not None:
                    replies = replies & visible_from
                    if not replies:
                        replies = frozenset({l_a})
                reply_t = tuple(sorted(replies))
                agent_succ[key] = reply_t  # type: ignore[index]
                agent_succ[(l_a, l_t, l_t2)] = reply_t
    # drop the (l_a, l_t') cache entries, keep only full keys
    agent_succ = {k: v2 for k, v2 in agent_succ.items() if len(k) == 3}
    return SurveillanceGameStructure(
        agent_locations=frozenset(free),
        target_locations=frozenset(free),
        initial=(g.agent_init, g.target_init),
        target_succ=target_succ,
        agent_succ=agent_succ,
        visibility=vis,
    )


def target_moves(G: SurveillanceGameStructure, l_a: int, belief):
    """The successor kernel over the triple-keyed tables, in the form of
    ``surveil.belief.target_moves``: the union of the belief's moves, each
    visible move with its replies, by location, and the invisible moves
    with the replies to the first invisible move in sorted-belief order."""
    visible: dict[int, tuple[int, ...]] = {}
    invisible = []
    for l_t in sorted(belief):
        for l_t2 in G.target_succ[(l_a, l_t)]:
            replies = G.agent_succ[(l_a, l_t, l_t2)]
            if G.vis(l_a, l_t2):
                visible.setdefault(l_t2, replies)
            else:
                invisible.append((l_t2, replies))
    moves = sorted(visible.items())
    if not invisible:
        return moves, None
    return moves, (frozenset(l for l, _ in invisible), invisible[0][1])
