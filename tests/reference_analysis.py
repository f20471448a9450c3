"""Counterexample analysis on sets, the reference for the analysis of
``surveil.cegar``, which keeps every belief as a cell mask.

The exact belief step here reads the target's moves off its successor
table one belief cell at a time, and the analysis graph pairs every
counterexample state with its belief as a frozenset.  Both graphs are
built breadth first in the same order, so they must agree node by node.
"""

from collections import deque

from conftest import invisible_succ
from surveil.cegar import AnalysisGraphD


def belief_step(G, Q, l_a, belief, label) -> frozenset:
    """The exact belief after the target's abstract move ``label`` from
    the set ``belief`` with the agent on ``l_a``: the cell of a visible
    move, else the belief's invisible successors under the label."""
    if isinstance(label, int):
        return frozenset({label})
    return invisible_succ(G, l_a, belief) & Q.gamma(label)


def build_analysis_graph(G, Q, cex) -> AnalysisGraphD:
    """The analysis graph of ``cex`` with each belief a frozenset."""
    l_a0, l_t0 = G.initial
    d0 = ((l_a0, frozenset({l_t0})), cex.initial)
    beliefs, cex_states, modes = [d0[0]], [d0[1]], [cex.mode[cex.initial]]
    parent = [None]
    index = {d0: 0}
    edges = []
    queue = deque([d0])
    while queue:
        key = queue.popleft()
        (l_a, belief), v = key
        i = index[key]
        if not cex.edges[v]:
            edges.append(())
            continue
        belief2 = belief_step(G, Q, l_a, belief, cex.choice[v])
        out = []
        for v2 in cex.edges[v]:
            key2 = ((v2[0], belief2), v2)
            if key2 not in index:
                index[key2] = len(beliefs)
                beliefs.append(key2[0])
                cex_states.append(v2)
                modes.append(cex.mode[v2])
                parent.append(i)
                queue.append(key2)
            out.append(index[key2])
        edges.append(tuple(out))
    return AnalysisGraphD(beliefs, cex_states, modes, edges, parent)
