"""Naive round-based game solver, the reference for ``surveil.solver``.

Every fixpoint here rescans all states on every round, straight from the
definitions; ``surveil.solver`` computes the same fixpoints with
counter-based worklists.  Both must agree on winning regions, agent
controllers and target strategies, including every canonical choice.
Here the agent's controller has a move for every winning ``(state,
memory, choice)``; ``surveil.solver`` builds only the part reachable
from ``(initial, 0)``, which :func:`reachable_moves` cuts out.
"""

from surveil.solver import (
    SolveResult,
    SolverError,
    StrategyData,
    TargetStrategyData,
)


def reached_pairs(moves, initial) -> set:
    """The ``(state, memory)`` pairs that ``moves``, keyed ``(state,
    memory, choice)`` with ``(reply, memory')`` values, lead to from
    ``(initial, 0)``, that pair included."""
    after = {}
    for (i, mem, _), nxt in moves.items():
        after.setdefault((i, mem), []).append(nxt)
    start = (initial, 0)
    seen, stack = {start}, [start]
    while stack:
        for nxt in after.get(stack.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def reachable_moves(strategy, initial) -> dict:
    """The moves of a controller that has a move for every winning
    ``(state, memory, choice)``, cut down to the pairs its own moves
    reach from ``(initial, 0)``: the moves ``surveil.solver.solve``
    builds."""
    seen = reached_pairs(strategy.moves, initial)
    return {key: move for key, move in strategy.moves.items() if key[:2] in seen}


def cpre(arena, W):
    """States where, whatever the target picks, some agent reply stays in W."""
    return frozenset(
        i
        for i, choices in enumerate(arena.moves)
        if all(any(r in W for r in replies) for _, replies in choices)
    )


def _gfp_safe(arena, safe):
    W = safe
    while True:
        W2 = safe & cpre(arena, W)
        if W2 == W:
            return W
        W = W2


def _attractor(arena, target, domain):
    """Agent attractor toward ``target`` inside ``domain``; returns ranks."""
    rank = {i: 0 for i in target}
    level = 0
    while True:
        level += 1
        added = [
            i
            for i in domain
            if i not in rank
            and all(
                any(r in rank for r in replies) for _, replies in arena.moves[i]
            )
        ]
        if not added:
            return rank
        for i in added:
            rank[i] = level


def _target_attractor(arena, info):
    """Target attractor: states where some choice forces every reply into
    the attracted set.  Extends ``{state: (rank, choice)}`` in place."""
    level = max((r for r, _ in info.values()), default=0)
    while True:
        level += 1
        added = {}
        for i in range(len(arena)):
            if i in info:
                continue
            for c, replies in arena.moves[i]:
                if replies and all(r in info for r in replies):
                    added[i] = (level, c)
                    break
        if not added:
            return
        info.update(added)


def _first(replies, allowed):
    return next(r for r in replies if r in allowed)


def solve(arena, objective):
    everything = frozenset(range(len(arena)))
    safe = everything
    for atom in objective.safety_terms:
        safe &= arena.atom_sets[atom]
    w_safe = _gfp_safe(arena, safe)
    rec = objective.recurrence_terms
    if not rec:
        if arena.initial in w_safe:
            moves = {
                (i, 0, c): (_first(replies, w_safe), 0)
                for i in w_safe
                for c, replies in arena.moves[i]
            }
            return SolveResult(True, w_safe, agent_strategy=StrategyData(1, moves))
        return SolveResult(
            False, w_safe, target_strategy=_target_strategy(arena, objective, w_safe, safe)
        )

    targets = [arena.atom_sets[a] & w_safe for a in rec]
    Z = w_safe
    while True:
        cores = [F & cpre(arena, Z) & w_safe for F in targets]
        ranks = [_attractor(arena, core, w_safe) for core in cores]
        Z2 = frozenset.intersection(*(frozenset(r) for r in ranks)) & w_safe
        if Z2 == Z:
            break
        Z = Z2
    if arena.initial not in Z:
        return SolveResult(
            False, Z, target_strategy=_target_strategy(arena, objective, Z, safe)
        )
    m = len(rec)
    moves = {}
    for j, (core, rank) in enumerate(zip(cores, ranks)):
        for i in Z:
            for c, replies in arena.moves[i]:
                if i in core:
                    moves[(i, j, c)] = (_first(replies, Z), (j + 1) % m)
                else:
                    lower = {s for s, v in rank.items() if v < rank[i]}
                    moves[(i, j, c)] = (_first(replies, lower), j)
    return SolveResult(True, Z, agent_strategy=StrategyData(m, moves))


def _target_strategy(arena, objective, agent_win, safe):
    everything = frozenset(range(len(arena)))
    mode, choice = {}, {}
    info = {}
    for i in everything - safe:
        info[i] = (0, None)
        mode[i] = ("unsafe",)
        choice[i] = arena.moves[i][0][0] if arena.moves[i] else None
    while True:
        grown = False
        before = set(info)
        _target_attractor(arena, info)
        for i in info.keys() - before:
            mode[i] = ("reach", info[i][0])
            choice[i] = info[i][1]
            grown = True
        for j, atom in enumerate(objective.recurrence_terms):
            won = set(info)
            # greatest fixpoint: stay outside atom j, inside the trap or won
            Y = {i for i in everything - won if i not in arena.atom_sets[atom]}
            while True:
                Y2 = {
                    i
                    for i in Y
                    if any(
                        replies and all(r in Y or r in won for r in replies)
                        for _, replies in arena.moves[i]
                    )
                }
                if Y2 == Y:
                    break
                Y = Y2
            for i in sorted(Y):
                for c, replies in arena.moves[i]:
                    if replies and all(r in Y or r in won for r in replies):
                        info[i] = (0, c)
                        mode[i] = ("avoid", j)
                        choice[i] = c
                        grown = True
                        break
        if not grown:
            break
    if frozenset(info) != everything - agent_win:
        raise SolverError("determinacy check failed")
    return TargetStrategyData(choice, mode)
