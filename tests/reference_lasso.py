"""Lasso search by one breadth-first search per good node, the reference
for ``surveil.cegar.find_good_lasso``.

Here every good node gets a search from its successors back to itself;
``find_good_lasso`` finds the nodes that lie on a cycle with one pass
over the strongly connected components and searches from one node only.
Both must return the same lasso.
"""

from collections import deque

from reference_game import atom_holds


def shortest_path(edges, sources, goal, allowed):
    """Shortest path from one of ``sources`` to ``goal``, breadth first in
    canonical neighbour order, through nodes of ``allowed`` only; the
    node list, or None."""
    prev = {}
    queue = deque()
    for s in sources:
        if s in allowed and s not in prev:
            prev[s] = None
            queue.append(s)
    while queue:
        i = queue.popleft()
        if i == goal:
            path = [i]
            while prev[path[-1]] is not None:
                path.append(prev[path[-1]])
            return path[::-1]
        for j in edges[i]:
            if j in allowed and j not in prev:
                prev[j] = i
                queue.append(j)
    return None


def find_good_lasso(G, D, atom, mode, predicates=None):
    allowed = {i for i, m in enumerate(D.modes) if m == mode}
    good = {
        i
        for i, (l_a, b) in enumerate(D.beliefs)
        if i in allowed and atom_holds(G, l_a, G.cells_of(b), atom, predicates)
    }
    for g in sorted(good):
        # a cycle through g is a path from g's successors back to g
        back = shortest_path(D.edges, D.edges[g], g, allowed)
        if back is not None:
            return D.stem(g), [g] + back
    return None
