"""Surveillance game structures: successor functions and validation."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Iterable

# a mask's binary digits, lowest first, turned into bytes 0 and 1
_BITS = bytes.maketrans(b"01", b"\x00\x01")


def cell_mask(cells: Iterable[int]) -> int:
    """The bit mask of a set of cells: bit ``c`` stands for cell ``c``."""
    return sum({1 << c for c in cells})


@dataclass(frozen=True, slots=True)
class CellMasks:
    """A structure's tables for the successor kernel, indexed by cell id,
    with cell sets as bit masks (see :func:`cell_mask`).

    ``cell[c]`` is the structure's own int for the target cell ``c``;
    ``visible[l_a]`` masks the cells visible from ``l_a``,
    ``moves[l_t]`` the target's moves from ``l_t`` and ``ball[l_a]`` the
    agent's.  ``replies[l_a]`` maps each cell ``l_t2`` of the agent's
    ball to ``succ_a(l_a, l_t2)``; every other cell gets the whole ball.
    """

    cell: list
    visible: list
    moves: list
    ball: list
    replies: list


@dataclass(frozen=True)
class SurveillanceGameStructure:
    """Turn-based game: from ``(l_a, l_t)`` the target moves first, then
    the agent replies knowing the target's move (when visible).  Neither
    may move onto the other: see :meth:`target_step` and :meth:`succ_a`."""

    initial: tuple[int, int]
    # l_t -> sorted cells the target can move to from l_t
    target_succ: dict[int, tuple[int, ...]]
    # l_a -> sorted cells the agent can move to from l_a
    agent_succ: dict[int, tuple[int, ...]]
    # l_a -> cells visible from l_a
    visibility: dict[int, frozenset[int]]

    @property
    def agent_locations(self) -> frozenset[int]:
        return frozenset(self.agent_succ)

    @property
    def target_locations(self) -> frozenset[int]:
        return frozenset(self.target_succ)

    def vis(self, l_a: int, l_t: int) -> bool:
        return l_t in self.visibility[l_a]

    def target_step(self, l_a: int, l_t: int) -> tuple[int, ...]:
        """The target's moves from ``l_t`` avoiding ``l_a``, else ``(l_t,)``."""
        moves = self.target_succ[l_t]
        if l_a not in moves:
            return moves
        i = moves.index(l_a)
        return moves[:i] + moves[i + 1 :] or (l_t,)

    def succ_a(self, l_a: int, l_t2: int) -> tuple[int, ...]:
        """The agent's replies from ``l_a`` avoiding ``l_t2``, else ``(l_a,)``."""
        moves = self.agent_succ[l_a]
        if l_t2 not in moves:
            return moves
        i = moves.index(l_t2)
        return moves[:i] + moves[i + 1 :] or (l_a,)

    @cached_property
    def masks(self) -> CellMasks:
        """The kernel's :class:`CellMasks`, made on first use."""
        size = 1 + max(self.target_succ.keys() | self.agent_succ.keys())
        cell = [None] * size
        visible, moves, ball = [0] * size, [0] * size, [0] * size
        replies = [None] * size
        for l_t, out in self.target_succ.items():
            cell[l_t] = l_t
            moves[l_t] = cell_mask(out)
        for l_a, out in self.agent_succ.items():
            visible[l_a] = cell_mask(self.visibility[l_a])
            ball[l_a] = cell_mask(out)
            replies[l_a] = {l_t2: self.succ_a(l_a, l_t2) for l_t2 in out}
        return CellMasks(cell, visible, moves, ball, replies)

    def cells_in(self, mask: int):
        """The target cells of a mask, as the structure's own ints, in ascending order."""
        return compress(self.masks.cell, bin(mask)[:1:-1].encode().translate(_BITS))

    def cells_of(self, mask: int) -> frozenset[int]:
        """:meth:`cells_in` as a set: a belief that leaves the CEGAR loop is made here."""
        # a frozenset copied from a set is sized for its contents, not for its growth
        return frozenset(set(self.cells_in(mask)))


@dataclass(frozen=True)
class SuccessorReport:
    total: bool
    invisible_independent: bool
    violations: tuple = ()

    def __post_init__(self):
        if (not self.violations) != (self.total and self.invisible_independent):
            raise ValueError("violations must be listed exactly when a check fails")

    @property
    def ok(self) -> bool:
        return self.total and self.invisible_independent


def reachable_states(G: SurveillanceGameStructure) -> list[tuple[int, int]]:
    """Concrete states reachable from the initial one, in BFS order."""
    target_step, succ_a = G.target_step, G.succ_a
    seen = {G.initial}
    order = [G.initial]
    # ``order`` is its own queue: the loop reaches the states it appends
    for l_a, l_t in order:
        for l_t2 in target_step(l_a, l_t):
            for l_a2 in succ_a(l_a, l_t2):
                s = (l_a2, l_t2)
                if s not in seen:
                    seen.add(s)
                    order.append(s)
    return order


def _balls_visible(G: SurveillanceGameStructure) -> bool:
    """Every target cell has a move, and every agent cell a nonempty
    ball, inside the cells it sees."""
    visibility = G.visibility
    return all(G.target_succ.values()) and all(
        ball and visibility[l_a].issuperset(ball) for l_a, ball in G.agent_succ.items()
    )


def validate_assumptions(G: SurveillanceGameStructure) -> SuccessorReport:
    """Check totality and invisible-independence over reachable states.

    Invisible-independence: for a fixed agent location, the agent's reply
    set may not depend on which invisible successor the target chose.

    When every target cell has a move and every agent cell's ball is
    nonempty and lies inside the cells it sees, both hold without a walk.
    ``target_step`` and ``succ_a`` fall back to the mover's own cell
    rather than return ``()`` from a nonempty table, so every state has a
    move and every move a reply.  An invisible landing cell then lies
    outside the ball, and ``succ_a`` gives it the whole ball: the replies
    to invisible moves are all the same.  Every bundled map passes here:
    a neighbour is visible whenever the vision range is at least 1, and
    ``restrict_agent_to_visible`` confines a ball to visible cells.
    Otherwise the reachable states are walked one by one, and each
    violation is named (:func:`_name_violations`).
    """
    if _balls_visible(G):
        return SuccessorReport(True, True)
    return _name_violations(G)


def _name_violations(G: SurveillanceGameStructure) -> SuccessorReport:
    """The assumption report from a walk over every reachable state, with
    each violation named in breadth-first order."""
    total = True
    independent = True
    violations = []
    # reference reply set per agent location: the first one met in BFS
    # order, over every reachable source state sharing l_a
    reference: dict[int, tuple[int, ...]] = {}
    for l_a, l_t in reachable_states(G):
        succs = G.target_step(l_a, l_t)
        if not succs:
            total = False
            violations.append(("no_target_move", (l_a, l_t)))
            continue
        visible = G.visibility[l_a]
        for l_t2 in succs:
            replies = G.succ_a(l_a, l_t2)
            if not replies:
                total = False
                violations.append(("no_agent_reply", (l_a, l_t), l_t2))
            if l_t2 not in visible:
                if l_a not in reference:
                    reference[l_a] = replies
                elif replies != reference[l_a]:
                    independent = False
                    violations.append(("invisible_dependence", (l_a, l_t), l_t2))
    return SuccessorReport(total, independent, tuple(violations))
