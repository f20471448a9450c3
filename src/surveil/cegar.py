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

from dataclasses import dataclass
from itertools import compress
from typing import Optional

from .abstraction import Partition, build_abstract_game, initial_partition
from .belief import PredicateDef, atom_test, belief_moves, landing_cells, safety_test
from .objective import Objective
from .solver import (
    Arena,
    CounterexampleGraph,
    SolverError,
    TargetStrategyData,
    check_predicates,
    extract_cex_graph,
    make_arena,
    solve,
)
from .structure import SurveillanceGameStructure

CONCRETIZABLE = "CONCRETIZABLE"


class RefinementError(RuntimeError):
    """Refinement failed to make progress (internal invariant violation)."""


def split_along(G: SurveillanceGameStructure, Q: Partition, pairs) -> Partition:
    """Backward partition splitting along an annotated path.

    ``pairs`` is a list of ``(l_a, abstract_label, exact_belief)`` from
    the root to a node whose label is a block set and whose exact belief,
    a cell mask, is to be made expressible.  Splits the final node's
    blocks against its belief, then walks backward separating the
    locations whose invisible successors stay inside the precise region,
    stopping at concrete labels.  A location's invisible successors are
    the unseen landing cells of its singleton belief, as a mask; each
    location's belief record is made once per walk.
    """
    n = len(pairs) - 1
    _, label_n, precise = pairs[n]
    result = Q.split(Q.gamma_mask(label_n), precise)
    records = {}
    for j in range(n - 1, -1, -1):
        l_a_j, label_j, _ = pairs[j]
        if isinstance(label_j, int):
            break
        # the cells the next label holds beyond the precise region
        outside = Q.gamma_mask(pairs[j + 1][1]) & ~precise
        scope = Q.gamma_mask(label_j)
        precise = 0
        for l in G.cells_in(scope):
            record = records.get(l)
            if record is None:
                record = records[l] = belief_moves(G, 1 << l)
            if not landing_cells(G, l_a_j, record)[1] & outside:
                precise |= 1 << l
        result = result.split(scope, precise)
    return result


def _refine_along(G, Q: Partition, D: AnalysisGraphD, path, stem: int = 0) -> Partition:
    """``Q`` split along the path of ``D`` node indices ``path``, met
    with the split along its first ``stem`` nodes when ``stem`` is
    nonzero.

    The split always adds a block.  Every witness path ends at a node
    ``n`` whose label is a block set and whose exact belief ``E_n`` is a
    strict subset of the label's cells.  The four kinds of witness are
    :func:`annotate_tree`'s spurious sink, the spurious sink of
    :func:`analyze_general`'s safety step, a strict-subset node, and a
    good lasso node, whose atom fails on the label and holds on ``E_n``.
    A node reached by a seen cell ``c`` has exact belief ``{c}``, all of
    its label, so it is never a witness.  :func:`split_along` walks back
    from ``n`` to the first seen-cell label, at the root at the latest.
    Were no block split, each precise set on the walk would be a union
    of whole blocks of its label.  The first one after the seen cell
    ``c`` holds the unseen landing cells of ``c``, which touch every
    block of that label, so it is the whole label; each later label
    abstracts the landing cells of the label before it, so each later
    precise set is its whole label too, and at ``n`` ``E_n`` would be
    all of the label.  A partition that does not grow is thus a broken
    invariant, and raises :class:`RefinementError`.
    """
    pairs = [(D.beliefs[i][0], D.cex_states[i][1], D.beliefs[i][1]) for i in path]
    refined = split_along(G, Q, pairs)
    if stem:
        refined = refined.meet(split_along(G, Q, pairs[:stem]))
    if len(refined) <= len(Q):
        raise RefinementError("refinement produced no new blocks")
    return refined


@dataclass
class AnalysisGraphD:
    """Counterexample graph paired with exact forward beliefs.

    Node ``i`` carries the belief state ``(l_a, mask)``, with the exact
    belief as a cell mask, the abstract counterexample state it tracks,
    that state's winning mode and its successors ``edges[i]``.  Nodes
    are numbered breadth first from the root, node 0, and ``parent[i]``
    is the node whose expansion found node ``i`` (None for the root).
    """

    beliefs: list
    cex_states: list
    modes: list
    edges: list
    parent: list

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

    A node is a counterexample state with the exact belief, a cell mask,
    that reaches it.  The target's abstract move at a node gives all its
    successors one belief: a visible move its cell, a block-set move the
    node's invisible landing cells under the label.  A spurious move can
    empty a belief, which then stays empty.  Each belief is expanded
    from one :class:`~surveil.belief.BeliefMoves` record for the whole
    walk.
    """
    l_a0, l_t0 = G.initial
    beliefs, cex_states = [(l_a0, 1 << l_t0)], [cex.initial]
    modes, parent, edges = [cex.mode[cex.initial]], [None], []
    index = {(cex.initial, 1 << l_t0): 0}
    records: dict = {}
    # ``cex_states`` is its own queue: the loop reaches the nodes it appends
    for i, v in enumerate(cex_states):
        l_a, belief = beliefs[i]
        succs = cex.edges[v]
        label = cex.choice[v]
        if isinstance(label, int):
            belief = 1 << label
        elif succs and belief:
            moves = records.get(belief)
            if moves is None:
                moves = records[belief] = belief_moves(G, belief)
            belief = landing_cells(G, l_a, moves)[1] & Q.gamma_mask(label)
        out = []
        for v2 in succs:
            j = index.get((v2, belief))
            if j is None:
                j = index[v2, belief] = len(beliefs)
                beliefs.append((v2[0], belief))
                cex_states.append(v2)
                modes.append(cex.mode[v2])
                parent.append(i)
            out.append(j)
        edges.append(tuple(out))
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
    for node, out in zip(nodes, D.edges):
        if out:
            node.choice = cex.choice[node.state]
            node.children = [nodes[j] for j in out]
    return CounterexampleTree(nodes[0], nodes)


def _cycle(edges, g: int, allowed) -> list:
    """The shortest cycle from node ``g`` back to itself through nodes of
    ``allowed``, breadth first in canonical neighbour order, as a node
    list from ``g`` to ``g``.  ``g`` must lie on such a cycle."""
    prev: dict[int, int] = {}
    # ``order`` is its own queue: the loop reaches the nodes it appends
    order = [g]
    for i in order:
        for j in edges[i]:
            if j not in allowed:
                continue
            if j == g:
                cycle = [g, i]
                while i != g:
                    i = prev[i]
                    cycle.append(i)
                return cycle[::-1]
            if j not in prev:
                prev[j] = i
                order.append(j)


def _on_cycle(edges, allowed) -> bytearray:
    """Mask of the nodes that lie on a cycle of the subgraph of ``edges``
    induced by ``allowed``: the nodes whose strongly connected component
    there has more than one node, or a self-loop.

    Tarjan's algorithm, with an explicit stack in place of recursion,
    which the depth of these graphs would overflow.
    """
    n = len(edges)
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
        work = [(root, iter(edges[root]))]
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
                    work.append((w, iter(edges[w])))
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
    for g in compress(range(len(D)), _on_cycle(D.edges, allowed)):
        if test(*D.beliefs[g]):
            return D.stem(g), _cycle(D.edges, g, allowed)
    return None


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
    work = [iter((0,))]
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
    return _refine_along(G, Q, D, path)


def refine_liveness(
    G: SurveillanceGameStructure, Q: Partition, D: AnalysisGraphD, lasso
) -> Partition:
    """Refine along a spurious lasso: split along stem+cycle and along the
    stem alone, then take the common refinement of the two results."""
    stem, cycle = lasso
    return _refine_along(G, Q, D, stem + cycle[1:], len(stem))


def analyze_general(
    G: SurveillanceGameStructure,
    Q: Partition,
    D: AnalysisGraphD,
    objective: Objective,
    predicates: Optional[dict[str, PredicateDef]] = None,
):
    """Counterexample-graph analysis for conjunctions.

    Tries, in order: a sink, where a safety atom fails abstractly, whose
    exact belief is fine (safety-style path refinement); a lasso trapped
    away from a recurrence atom whose cycle holds a precise-enough belief
    (liveness refinement); any node whose exact belief is a strict subset
    of the abstract one.  Returns a refined partition, or CONCRETIZABLE.
    A node has no edges exactly when its state breaks a safety atom:
    such a state has no choices and is a sink of the counterexample,
    while in a total arena every other state has a choice with a reply.
    """
    test = safety_test(G, objective.safety_terms, predicates)
    for i, (l_a, belief) in enumerate(D.beliefs):
        if D.edges[i]:
            continue
        holds = test(belief)
        if holds is None or holds(l_a):
            return _refine_along(G, Q, D, D.stem(i))
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
            return _refine_along(G, Q, D, D.stem(i))
    return CONCRETIZABLE


@dataclass
class CegarOutcome:
    """The verdict of :func:`cegar_loop` and what backs it: the agent's
    controller on the last game's arena when realizable, the
    counterexample tree when not.  The arena may be ``partial`` (see
    :func:`~surveil.abstraction.build_abstract_game`): it holds the
    states that the controller of a safety spec, or the counterexample,
    reads, and others without choices.  The arena of a spec with
    recurrence terms that the agent wins is whole.  An unrealizable
    outcome's arena is a full :class:`~surveil.solver.Arena`, with its
    atom valuations, which :func:`~surveil.solver.solve` takes again."""

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


def _check_partial(arena: Arena, result, objective: Objective) -> None:
    """Raise :class:`~surveil.solver.SolverError` when the solver's report
    on a partial arena is one that the proof in
    :func:`~surveil.abstraction.build_abstract_game` rules out: a lost
    game (the builder hands a lost cut game's counterexample over as its
    ``reading``, and such a game is not solved again), the agent winning
    a spec with recurrence terms, or a controller reaching a state
    without choices."""
    if not result.agent_wins:
        raise SolverError("the target wins a partial game that came without its reading")
    if objective.recurrence_terms:
        raise SolverError("the agent wins a partial game of a spec with recurrence terms")
    off = arena.choice_off
    for i, _ in [(arena.initial, 0), *result.agent_strategy.moves.values()]:
        if off[i] == off[i + 1]:
            raise SolverError(
                f"the controller of a partial game reaches state {i}, which has no choices"
            )


def _certified(G, Q: Partition, game, objective: Objective, predicates) -> TargetStrategyData:
    """The ``reading`` of a lost cut game as the target's strategy, once it
    is checked to be a winning one; :class:`~surveil.solver.SolverError`
    otherwise.

    The checks take each state read once: the initial state is read;
    each state's choice is one of its own, and its replies are read; an
    ``("unsafe",)`` state breaks the conjunction of the safety terms;
    every reply of a ``("reach", r)`` state is at a lower reach rank, in
    a trap or unsafe; an ``("avoid", j)`` state fails recurrence atom
    ``j``, and its replies are all ``("avoid", i)`` with ``i <= j``.  A
    state with choices has all of the whole game's, so along every play
    from the initial state the reach ranks fall until a trap or an
    unsafe state, and a play that stays in the traps ends up in one,
    failing its atom for ever: the target wins the whole game."""
    choice, mode = game.reading
    if game.initial not in mode:
        raise SolverError("the reading of a lost cut game misses the initial state")
    off, states, gamma_mask = game.choice_off, game.states, Q.gamma_mask
    replies_of, read = game.replies_of, mode.get
    safety = safety_test(G, objective.safety_terms, predicates)
    goals = [atom_test(G, a, predicates) for a in objective.recurrence_terms]
    for i, m in mode.items():
        l_a, label = states[i]
        if m == ("unsafe",):
            holds = safety(gamma_mask(label))
            if holds is None or holds(l_a):
                raise SolverError(
                    f"state {i} of a lost cut game is read as unsafe and breaks no safety term"
                )
            continue
        c = choice.get(i)
        if c is None or not off[i] <= c < off[i + 1]:
            raise SolverError(f"the reading of a lost cut game picks {c} in state {i}")
        # each distinct mode among the replies is checked once
        below = set(map(read, replies_of(c)))
        if None in below:
            raise SolverError(f"a reply of state {i} of a lost cut game is not read")
        if m[0] == "reach":
            if any(r[0] == "reach" and r[1] >= m[1] for r in below):
                raise SolverError(f"a reply of state {i} of a lost cut game does not descend")
        elif m[0] == "avoid" and 0 <= m[1] < len(goals):
            if goals[m[1]](l_a, gamma_mask(label)):
                raise SolverError(f"state {i} of a lost cut game meets the atom it avoids")
            if any(r[0] != "avoid" or r[1] > m[1] for r in below):
                raise SolverError(f"a reply of state {i} of a lost cut game leaves its trap")
        else:
            raise SolverError(f"state {i} of a lost cut game has mode {m}")
    return TargetStrategyData(choice, mode)


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

    Each game is solved on the fly as it is built (``cut``), so a safety
    game is explored only as far as its controller or counterexample
    reads, and a game of a spec with recurrence terms alone, when the
    target wins it in its first trap round, only as far as its
    counterexample reads; ``max_states`` bounds the states of that
    partial game.  A game the builder found lost comes with the
    counterexample it read (its ``reading``), which is checked by
    :func:`_certified` and analysed as it is, without a second solve;
    every other game is solved, and :func:`_check_partial` holds the
    solver's report on a partial one to what the builder's proof
    promises.  An unrealizable outcome's arena is made at that exit.
    """
    predicates = predicates or {}
    check_predicates(objective, predicates)
    # uniform for every target-kind predicate by construction
    Q = initial_partition(G, predicates.values())
    transcript: list[str] = []
    for iteration in range(1, max_iters + 1):
        game = build_abstract_game(
            G, Q, max_states, objective.safety_terms, predicates,
            cut=True, recurrence=objective.recurrence_terms,
        )
        arena = result = None
        if game.reading is not None:
            strategy = _certified(G, Q, game, objective, predicates)
        else:
            arena = make_arena(game, G, objective, predicates, partition=Q)
            result = solve(arena, objective)
            if arena.partial:
                _check_partial(arena, result, objective)
            if result.agent_wins:
                transcript.append(
                    f"iter={iteration} blocks={len(Q)} verdict=realizable action=stop"
                )
                return CegarOutcome(
                    "realizable", iteration, Q, transcript,
                    strategy=result.agent_strategy, arena=arena,
                )
            strategy = result.target_strategy
        # ``refined`` is the next partition, or CONCRETIZABLE when the
        # counterexample is real
        cex = extract_cex_graph(game, strategy)
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
            if arena is None:
                arena = make_arena(game, G, objective, predicates, partition=Q)
            return CegarOutcome(
                "unrealizable", iteration, Q, transcript, arena=arena,
                counterexample=counterexample_tree(G, D, cex),
            )
        transcript.append(
            f"iter={iteration} blocks={len(Q)} verdict=continue "
            f"action=refine->{len(refined)}"
        )
        # free this iteration's game and analysis before the next is built
        del game, arena, result, strategy, cex, D
        Q = refined
    raise IterationBudgetExceeded(f"no verdict after {max_iters} iterations")

