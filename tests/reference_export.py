"""Export of the whole controller, the reference for
``surveil.simulate.export_strategy``.

Here every arena state and every move of the controller is written.
Given the controller of ``reference_solver.solve``, which has a move for
every winning ``(state, memory, choice)``, and restricted to the part a
run from ``(initial, 0)`` can reach and renumbered, this payload must
equal ``export_strategy``'s of the controller ``surveil.solver.solve``
builds.
"""

from reference_solver import reached_pairs
from surveil.belief import belief_key, label_json


def export_strategy(arena, strat, digest, partition) -> dict:
    states = [[s[0], label_json(s[1])] for s in arena.states]
    moves = []
    for (i, mem, c), (r, mem2) in sorted(
        strat.moves.items(), key=lambda kv: (kv[0][0], kv[0][1], belief_key(kv[0][2]))
    ):
        moves.append([i, mem, label_json(c), r, mem2])
    blocks = {str(bid): sorted(cells) for bid, cells in partition.blocks.items()}
    return {
        "digest": digest,
        "memory_count": strat.memory_count,
        "initial": arena.initial,
        "states": states,
        "moves": moves,
        "blocks": blocks,
    }


def restrict_to_reachable(payload) -> dict:
    """The payload cut down to the ``(state, memory)`` pairs that its own
    moves reach from ``(initial, 0)``, with the states they use
    renumbered in canonical order: by agent cell, then by the
    ``belief_key`` of the JSON label.  On an arena numbered in that
    order, this keeps the states in increasing order.  The moves are
    sorted by new state, memory and ``belief_key`` of the label, and
    ``winning_region`` lists the kept states."""
    # keyed by position, since JSON labels are lists
    moves = {
        (i, mem, n): (r, mem2)
        for n, (i, mem, c, r, mem2) in enumerate(payload["moves"])
    }
    seen = reached_pairs(moves, payload["initial"])
    states = payload["states"]
    used = sorted({i for i, _ in seen}, key=lambda i: (states[i][0], belief_key(states[i][1])))
    new = {i: n for n, i in enumerate(used)}
    return {
        **payload,
        "initial": new[payload["initial"]],
        "winning_region": list(range(len(used))),
        "states": [states[i] for i in used],
        "moves": sorted(
            (
                [new[i], mem, c, new[r], mem2]
                for i, mem, c, r, mem2 in payload["moves"]
                if (i, mem) in seen
            ),
            key=lambda m: (m[0], m[1], belief_key(m[2])),
        ),
    }
