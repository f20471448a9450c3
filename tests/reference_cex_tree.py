"""Tree unfolding of a safety counterexample, the reference for
``surveil.cegar.annotate_tree``.

The target's positional strategy is unfolded into a tree that branches
over every agent reply, and a recursive walk annotates it with exact
beliefs until it meets the first leaf, in child order, whose belief
satisfies the safety conjunction.  ``annotate_tree`` walks the merged
(abstract state, exact belief) graph instead and must find the same
path.  The beliefs are sets, stepped by the set-based reference
``reference_analysis.belief_step``.  The tree grows exponentially with
the counterexample's depth, so only small games are checked against it.
"""

from dataclasses import dataclass, field
from typing import Optional

from reference_analysis import belief_step
from reference_game import atom_holds
from surveil.cegar import CONCRETIZABLE
from surveil.solver import SolverError


@dataclass
class Node:
    state: tuple
    choice: object = None
    children: list = field(default_factory=list)
    annotation: Optional[frozenset] = None


def unfold(arena, result, objective) -> Node:
    """The target's safety-spoiling strategy as a tree: internal nodes
    apply the target's choice and branch over all agent replies; a node
    is a leaf exactly when its state violates the safety conjunction."""
    if result.target_strategy is None:
        raise SolverError("no target strategy to extract a counterexample from")
    ts = result.target_strategy
    safety = objective.safety_terms

    def build(i, depth):
        node = Node(state=arena.states[i])
        if any(not arena.atom_sets[a][i] for a in safety):
            return node
        if depth > len(arena) + 1:
            raise SolverError("counterexample tree extraction did not terminate")
        c = ts.choice[i]
        node.choice = arena.labels[arena.choice_label[c]]
        node.children = [build(r, depth + 1) for r in arena.replies_of(c)]
        return node

    return build(arena.initial, 0)


def first_good_path(G, Q, root: Node, safety, predicates=None):
    """The first root-to-leaf path, as ``(agent, label, belief)``
    triples, whose leaf's exact belief satisfies every ``safety`` atom;
    CONCRETIZABLE when there is none.  Annotates the nodes it visits."""
    predicates = predicates or {}
    l_a0, l_t0 = G.initial
    root.annotation = frozenset({l_t0})

    def walk(node, path):
        l_a, _ = node.state
        if not node.children:
            if all(atom_holds(G, l_a, node.annotation, a, predicates) for a in safety):
                return path
            return None
        for child in node.children:
            child.annotation = belief_step(G, Q, l_a, node.annotation, child.state[1])
            found = walk(child, path + [child])
            if found is not None:
                return found
        return None

    path = walk(root, [root])
    if path is None:
        return CONCRETIZABLE
    return [(n.state[0], n.state[1], n.annotation) for n in path]


def nodes(root: Node):
    """The nodes of a tree, depth first in child order."""
    stack = [root]
    while stack:
        n = stack.pop()
        yield n
        stack.extend(reversed(n.children))
