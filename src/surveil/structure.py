"""Surveillance game structures: successor functions and validation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class SurveillanceGameStructure:
    """Turn-based game: from ``(l_a, l_t)`` the target moves first, then
    the agent replies knowing the target's move (when visible)."""

    agent_locations: frozenset[int]
    target_locations: frozenset[int]
    initial: tuple[int, int]
    # (l_a, l_t) -> sorted target successor locations
    target_succ: dict[tuple[int, int], tuple[int, ...]]
    # (l_a, l_t') -> sorted agent reply locations; a reply depends on the
    # target's new cell, not on the cell it came from
    agent_succ: dict[tuple[int, int], tuple[int, ...]]
    # l_a -> cells visible from l_a
    visibility: dict[int, frozenset[int]]

    def vis(self, l_a: int, l_t: int) -> bool:
        return l_t in self.visibility[l_a]

    def succ_t(self, l_a: int, belief: Iterable[int]) -> frozenset[int]:
        """Union of target successors over all locations in the belief."""
        out: set[int] = set()
        for l_t in belief:
            out.update(self.target_succ[(l_a, l_t)])
        return frozenset(out)

    def succ_a(self, l_a: int, l_t2: int) -> tuple[int, ...]:
        return self.agent_succ[(l_a, l_t2)]

    def invisible_succ(self, l_a: int, belief: Iterable[int]) -> frozenset[int]:
        """Target successors of the belief that are invisible from ``l_a``."""
        return self.succ_t(l_a, belief) - self.visibility[l_a]


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
    target_succ, agent_succ = G.target_succ, G.agent_succ
    seen = {G.initial}
    order = [G.initial]
    # ``order`` is its own queue: the loop reaches the states it appends
    for l_a, l_t in order:
        for l_t2 in target_succ[(l_a, l_t)]:
            for l_a2 in agent_succ[(l_a, l_t2)]:
                s = (l_a2, l_t2)
                if s not in seen:
                    seen.add(s)
                    order.append(s)
    return order


def validate_assumptions(G: SurveillanceGameStructure) -> SuccessorReport:
    """Check totality and invisible-independence over reachable states.

    Invisible-independence: for a fixed agent location, the agent's reply
    set may not depend on which invisible successor the target chose.
    Replies are keyed by the target's new cell, so only replies to
    different invisible cells can disagree.
    """
    total = True
    independent = True
    violations = []
    # reference reply set per agent location: the first one met in BFS
    # order, over every reachable source state sharing l_a
    reference: dict[int, tuple[int, ...]] = {}
    for l_a, l_t in reachable_states(G):
        succs = G.target_succ[(l_a, l_t)]
        if not succs:
            total = False
            violations.append(("no_target_move", (l_a, l_t)))
            continue
        visible = G.visibility[l_a]
        for l_t2 in succs:
            replies = G.agent_succ[(l_a, l_t2)]
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
