"""Counterexample analysis, partition refinement, and the main loop.

Every counterexample is the target's strategy closed under the agent's
replies, a graph.  The analysis graph pairs each of its abstract nodes
with the exact forward-propagated belief, a cell mask until it leaves
the loop in a partition split or a returned counterexample.  For safety
the graph is acyclic, and a sink whose exact belief is safe gives a
spurious path, which drives backward partition splitting; when there is
none the counterexample is concrete.  For recurrence, a lasso whose
cycle contains a precise-enough belief witnesses spuriousness.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import compress
from typing import Optional

from .abstraction import Partition, build_abstract_game, initial_partition, refines
from .belief import PredicateDef, atom_test, belief_moves, landing_cells, safety_test
from .objective import Objective
from .solver import (
    Arena,
    CounterexampleGraph,
    check_predicates,
    extract_cex_graph,
    make_arena,
    solve,
)
from .structure import SurveillanceGameStructure, cell_mask

CONCRETIZABLE = "CONCRETIZABLE"


class RefinementError(RuntimeError):
    """Refinement failed to make progress (internal invariant violation)."""


def _belief_step(G, Q):
    """The exact belief step of counterexample analysis, as a function
    ``(l_a, belief, label) -> belief'`` on cell masks: the target's
    abstract move ``label`` from ``belief`` with the agent on ``l_a``.

    A visible move gives its cell; a block-set move gives the belief's
    invisible landing cells that lie under the label.  The step keeps
    one :class:`~surveil.belief.BeliefMoves` record per belief for as
    long as it lives.
    """
    records: dict = {}

    def step(l_a, belief, label):
        if isinstance(label, int):
            return 1 << label
        if not belief:
            # a spurious move can empty a belief, which then stays empty
            return belief
        moves = records.get(belief)
        if moves is None:
            moves = records[belief] = belief_moves(G, belief)
        return landing_cells(G, l_a, moves)[1] & Q.gamma_mask(label)

    return step


def split_along(G: SurveillanceGameStructure, Q: Partition, pairs) -> Partition:
    """Backward partition splitting along an annotated path.

    ``pairs`` is a list of ``(l_a, abstract_label, exact_belief)`` from
    the root to a node whose exact belief, a cell mask, is to be made
    expressible.  Splits the final node's blocks against its belief,
    then walks backward separating the locations whose invisible
    successors stay inside the precise region, stopping at concrete
    labels.  A location's invisible successors are the unseen landing
    cells of its singleton belief, as a mask.
    """
    n = len(pairs) - 1
    l_a_n, label_n, precise = pairs[n]
    result = Q
    if not isinstance(label_n, int):
        result = result.split(Q.gamma(label_n), G.cells_of(precise))
    for j in range(n - 1, -1, -1):
        l_a_j, label_j, _ = pairs[j]
        if isinstance(label_j, int):
            break
        # the cells the next label holds beyond the precise region
        outside = Q.gamma_mask(pairs[j + 1][1]) & ~precise
        scope = Q.gamma(label_j)
        keep = frozenset(
            l
            for l in scope
            if not landing_cells(G, l_a_j, belief_moves(G, 1 << l))[1] & outside
        )
        result = result.split(scope, keep)
        precise = cell_mask(keep)
    return result


def _grown(G, Q: Partition, refined: Partition, pairs) -> Optional[Partition]:
    """``refined`` if it has more blocks than ``Q``; else, as a fallback,
    ``refined`` with every abstract label along ``pairs`` split against
    its exact belief.  None when that adds no block either."""
    if len(refined) <= len(Q):
        for l_a, label, belief in pairs:
            if not isinstance(label, int):
                refined = refined.split(Q.gamma(label), G.cells_of(belief))
    if len(refined) <= len(Q):
        return None
    if not refines(refined, Q):
        raise RefinementError("refined partition does not refine its parent")
    return refined


@dataclass
class AnalysisGraphD:
    """Counterexample graph paired with exact forward beliefs.

    Node ``i`` carries the belief state ``(l_a, mask)``, with the exact
    belief as a cell mask, the abstract counterexample state it tracks,
    and that state's winning mode.  Nodes are numbered breadth first
    from ``initial``, and ``parent[i]`` is the node whose expansion found
    node ``i`` (None for the root).
    """

    beliefs: list
    cex_states: list
    modes: list
    edges: dict
    parent: list
    initial: int = 0

    def __len__(self):
        return len(self.beliefs)

    def stem(self, i: int) -> list:
        """A shortest path from the root to node ``i``: the first one a
        breadth-first search in canonical neighbour order finds."""
        path = [i]
        while self.parent[path[-1]] is not None:
            path.append(self.parent[path[-1]])
        return path[::-1]


def build_analysis_graph(
    G: SurveillanceGameStructure, Q: Partition, cex: CounterexampleGraph
) -> AnalysisGraphD:
    """Close the counterexample graph under exact belief propagation.

    Each belief is expanded from one
    :class:`~surveil.belief.BeliefMoves` record for the whole walk.
    """
    step = _belief_step(G, Q)
    l_a0, l_t0 = G.initial
    d0 = ((l_a0, 1 << l_t0), cex.initial)
    beliefs, cex_states, modes = [d0[0]], [d0[1]], [cex.mode[cex.initial]]
    parent = [None]
    index = {d0: 0}
    edges: dict[int, tuple[int, ...]] = {}
    queue = deque([d0])
    while queue:
        key = queue.popleft()
        (l_a, belief), v = key
        i = index[key]
        succs = cex.edges[v]
        if not succs:
            edges[i] = ()
            continue
        belief2 = step(l_a, belief, cex.choice[v])
        out = []
        for v2 in succs:
            key2 = ((v2[0], belief2), v2)
            if key2 not in index:
                index[key2] = len(beliefs)
                beliefs.append(key2[0])
                cex_states.append(v2)
                modes.append(cex.mode[v2])
                parent.append(i)
                queue.append(key2)
            out.append(index[key2])
        edges[i] = tuple(out)
    return AnalysisGraphD(beliefs, cex_states, modes, edges, parent)


# nodes are shared, and a recurrence counterexample's nodes form cycles:
# they compare by identity and are not printed field by field
@dataclass(eq=False, repr=False)
class CexTreeNode:
    """An abstract state of a counterexample, the target's choice (None
    at a sink), the replies' nodes, the exact belief and the state's
    winning mode."""

    state: tuple
    choice: object
    children: list
    annotation: frozenset
    mode: tuple


@dataclass
class CounterexampleTree:
    """A counterexample rooted at ``root``; ``nodes`` lists every node
    once, in the order of the analysis graph it was made from."""

    root: CexTreeNode
    nodes: list


def counterexample_tree(G, D: AnalysisGraphD, cex: CounterexampleGraph) -> CounterexampleTree:
    """The counterexample ``D`` of ``cex`` as linked nodes, one per ``D``
    node, which the parents of that node share.  A safety counterexample
    is acyclic, so it reads as a tree.  Each node's annotation is its
    exact belief as a set, one per distinct belief."""
    cells = {mask: G.cells_of(mask) for mask in {mask for _, mask in D.beliefs}}
    nodes = [
        CexTreeNode(v, None, [], cells[mask], mode)
        for v, (_, mask), mode in zip(D.cex_states, D.beliefs, D.modes)
    ]
    for i, node in enumerate(nodes):
        out = D.edges[i]
        if out:
            node.choice = cex.choice[node.state]
            node.children = [nodes[j] for j in out]
    return CounterexampleTree(nodes[D.initial], nodes)


def _shortest_path(edges, sources, goals, allowed):
    """Shortest path from one of ``sources`` into ``goals``, breadth first
    in canonical neighbour order, through nodes of ``allowed`` only.
    Returns the node list, or None."""
    prev = {}
    queue = deque()
    for s in sources:
        if s not in allowed:
            continue
        if s in goals:
            return [s]
        if s not in prev:
            prev[s] = None
            queue.append(s)
    while queue:
        i = queue.popleft()
        for j in edges.get(i, ()):
            if j not in allowed:
                continue
            if j in goals:
                path = [j, i]
                while prev[path[-1]] is not None:
                    path.append(prev[path[-1]])
                return path[::-1]
            if j not in prev:
                prev[j] = i
                queue.append(j)
    return None


def _on_cycle(edges, n: int, allowed) -> bytearray:
    """Mask of the nodes of ``range(n)`` that lie on a cycle of the
    subgraph of ``edges`` induced by ``allowed``: the nodes whose strongly
    connected component there has more than one node, or a self-loop.

    Tarjan's algorithm, with an explicit stack in place of recursion,
    which the depth of these graphs would overflow.
    """
    order = [0] * n  # discovery number from 1; 0 while unvisited
    low = [0] * n
    on_stack = bytearray(n)
    cyclic = bytearray(n)
    stack: list[int] = []
    count = 0
    for root in range(n):
        if order[root] or root not in allowed:
            continue
        count += 1
        order[root] = low[root] = count
        stack.append(root)
        on_stack[root] = 1
        work = [(root, iter(edges.get(root, ())))]
        while work:
            v, succs = work[-1]
            for w in succs:
                if w not in allowed:
                    continue
                if not order[w]:
                    count += 1
                    order[w] = low[w] = count
                    stack.append(w)
                    on_stack[w] = 1
                    work.append((w, iter(edges.get(w, ()))))
                    break
                if on_stack[w]:
                    if w == v:
                        cyclic[v] = 1
                    if order[w] < low[v]:
                        low[v] = order[w]
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                if low[v] == order[v]:
                    # v is the root of a component: pop it off the stack
                    w = stack.pop()
                    on_stack[w] = 0
                    while w != v:
                        cyclic[w] = cyclic[v] = 1
                        w = stack.pop()
                        on_stack[w] = 0
    return cyclic


def find_good_lasso(
    G: SurveillanceGameStructure,
    D: AnalysisGraphD,
    atom,
    mode,
    predicates: Optional[dict[str, PredicateDef]] = None,
):
    """Search for a lasso whose cycle contains a belief satisfying ``atom``.

    Returns ``(stem, cycle)`` as node index lists with the cycle anchored
    at the good node (the stem ends there, the cycle returns there), or
    None when no such lasso exists and D is a concrete counterexample.
    The good node is the first, by index, that lies on a cycle through
    nodes of mode ``mode``, and the cycle is the shortest one back to
    it, breadth first.
    """
    test = atom_test(G, atom, predicates or {})
    allowed = {i for i, m in enumerate(D.modes) if m == mode}
    for g in compress(range(len(D)), _on_cycle(D.edges, len(D), allowed)):
        if test(*D.beliefs[g]):
            back = _shortest_path(D.edges, D.edges.get(g, ()), {g}, allowed)
            return D.stem(g), [g] + back
    return None


def _d_pairs(D: AnalysisGraphD, indices):
    """(agent, abstract label, exact belief) triples for D node indices."""
    out = []
    for i in indices:
        l_a, belief = D.beliefs[i]
        out.append((l_a, D.cex_states[i][1], belief))
    return out


def annotate_tree(
    G: SurveillanceGameStructure,
    D: AnalysisGraphD,
    safety,
    predicates: Optional[dict[str, PredicateDef]] = None,
):
    """The first root-to-sink path of the safety counterexample ``D``, as
    node indices, whose sink's exact belief satisfies every ``safety``
    atom; CONCRETIZABLE when every sink's belief genuinely violates one.

    The walk is depth first in edge order and never re-enters a node:
    what lies below a node depends only on its state and belief, and a
    node it has left holds no such sink.  So the path is the first one
    of ``D`` unfolded into a tree.  That needs ``D`` acyclic, as falling
    reach ranks make it; a node met on its own path raises
    :class:`RefinementError`.
    """
    test = safety_test(G, safety, predicates)
    mark = bytearray(len(D))  # 1 while on the path, 2 once left
    path: list[int] = []
    work = [iter((D.initial,))]
    while work:
        for j in work[-1]:
            if mark[j] == 1:
                raise RefinementError("safety counterexample has a cycle")
            if mark[j]:
                continue
            if D.edges[j]:
                mark[j] = 1
                path.append(j)
                work.append(iter(D.edges[j]))
                break
            mark[j] = 2
            l_a, belief = D.beliefs[j]
            holds = test(belief)
            if holds is None or holds(l_a):
                return path + [j]
        else:
            work.pop()
            if path:
                mark[path.pop()] = 2
    return CONCRETIZABLE


def refine_safety(
    G: SurveillanceGameStructure, Q: Partition, D: AnalysisGraphD, path
) -> Partition:
    """Refine ``Q`` to eliminate a spurious safety counterexample path of
    ``D`` node indices, as :func:`annotate_tree` returns it."""
    pairs = _d_pairs(D, path)
    refined = _grown(G, Q, split_along(G, Q, pairs), pairs)
    if refined is None:
        raise RefinementError("safety refinement produced no new blocks")
    return refined


def refine_liveness(
    G: SurveillanceGameStructure, Q: Partition, D: AnalysisGraphD, lasso
) -> Partition:
    """Refine along a spurious lasso: split along stem+cycle and along the
    stem alone, then take the common refinement of the two results."""
    stem, cycle = lasso
    pairs = _d_pairs(D, stem + cycle[1:])
    prefix = split_along(G, Q, _d_pairs(D, stem))
    refined = _grown(G, Q, split_along(G, Q, pairs).meet(prefix), pairs)
    if refined is None:
        raise RefinementError("liveness refinement produced no new blocks")
    return refined


def analyze_general(
    G: SurveillanceGameStructure,
    Q: Partition,
    D: AnalysisGraphD,
    objective: Objective,
    predicates: Optional[dict[str, PredicateDef]] = None,
):
    """Counterexample-graph analysis for conjunctions.

    Tries, in order: a node where a safety atom fails abstractly but the
    exact belief is fine (safety-style path refinement); a lasso trapped
    away from a recurrence atom whose cycle holds a precise-enough belief
    (liveness refinement); any node whose exact belief is a strict subset
    of the abstract one.  Returns a refined partition, or CONCRETIZABLE.
    """
    test = safety_test(G, objective.safety_terms, predicates)

    def holds(l_a, mask):
        t = test(mask)
        return t is None or t(l_a)

    def refine_to(i):
        pairs = _d_pairs(D, D.stem(i))
        return _grown(G, Q, split_along(G, Q, pairs), pairs)

    for i in range(len(D) if objective.safety_terms else 0):
        l_a, belief = D.beliefs[i]
        if not holds(l_a, Q.gamma_mask(D.cex_states[i][1])) and holds(l_a, belief):
            refined = refine_to(i)
            if refined is not None:
                return refined
    for j, atom in enumerate(objective.recurrence_terms):
        lasso = find_good_lasso(G, D, atom, ("avoid", j), predicates)
        if lasso is not None:
            return refine_liveness(G, Q, D, lasso)
    for i in range(len(D)):
        label = D.cex_states[i][1]
        if isinstance(label, int):
            continue
        b, g = D.beliefs[i][1], Q.gamma_mask(label)
        if b != g and not b & ~g:
            refined = refine_to(i)
            if refined is not None:
                return refined
    return CONCRETIZABLE


@dataclass
class CegarOutcome:
    verdict: str  # "realizable" | "unrealizable"
    iterations: int
    final_partition: Partition
    transcript: list[str]
    strategy: object = None
    arena: Optional[Arena] = None
    counterexample: object = None

    def __post_init__(self):
        if self.verdict not in ("realizable", "unrealizable"):
            raise ValueError(f"unknown verdict {self.verdict!r}")


class IterationBudgetExceeded(RuntimeError):
    pass


def cegar_loop(
    G: SurveillanceGameStructure,
    objective: Objective,
    predicates: Optional[dict[str, PredicateDef]] = None,
    max_states: int = 1_000_000,
    max_iters: int = 200,
) -> CegarOutcome:
    """Abstract-solve / analyze / refine from :func:`initial_partition`
    until a verdict is reached.

    Terminates because every refinement strictly grows the partition,
    which is bounded by the partition into singletons.
    """
    predicates = predicates or {}
    check_predicates(objective, predicates)
    # uniform for every target-kind predicate by construction
    Q = initial_partition(G, predicates.values())
    transcript: list[str] = []
    for iteration in range(1, max_iters + 1):
        game = build_abstract_game(
            G, Q, max_states, objective.safety_terms, predicates
        )
        arena = make_arena(game, G, objective, predicates, partition=Q)
        result = solve(arena, objective)
        if result.agent_wins:
            transcript.append(
                f"iter={iteration} blocks={len(Q)} verdict=realizable action=stop"
            )
            return CegarOutcome(
                "realizable", iteration, Q, transcript,
                strategy=result.agent_strategy, arena=arena,
            )
        # ``refined`` is the next partition, or CONCRETIZABLE when the
        # counterexample is real
        cex = extract_cex_graph(arena, result)
        D = build_analysis_graph(G, Q, cex)
        if objective.recurrence_terms:
            refined = analyze_general(G, Q, D, objective, predicates)
        else:
            path = annotate_tree(G, D, objective.safety_terms, predicates)
            refined = path if path == CONCRETIZABLE else refine_safety(G, Q, D, path)
        if refined == CONCRETIZABLE:
            transcript.append(
                f"iter={iteration} blocks={len(Q)} verdict=unrealizable action=stop"
            )
            return CegarOutcome(
                "unrealizable", iteration, Q, transcript, arena=arena,
                counterexample=counterexample_tree(G, D, cex),
            )
        transcript.append(
            f"iter={iteration} blocks={len(Q)} verdict=continue "
            f"action=refine->{len(refined)}"
        )
        if len(refined) <= len(Q):
            raise RefinementError("no refinement progress")
        Q = refined
    raise IterationBudgetExceeded(f"no verdict after {max_iters} iterations")

