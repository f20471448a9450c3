"""Output checks that do not trust the CEGAR loop.

Each check re-derives what a verdict claims from the exact belief
semantics: ``belief_successors`` for the target's moves and the atoms
evaluated on exact beliefs.  A check returns a list of error messages,
empty when the output holds up.
"""

from __future__ import annotations

from surveil import SurvAtom, belief_successors, invisible_count


def atom_holds(G, l_a, belief, atom, predicates) -> bool:
    """A spec atom on an exact state (agent cell, set of target cells)."""
    if isinstance(atom, SurvAtom):
        return invisible_count(G, l_a, belief) <= atom.k
    pred = predicates[atom.name]
    return all(pred.holds(l_a, l_t) for l_t in belief)


def check_counterexample_tree(G, tree, objective, predicates) -> list[str]:
    """Replay a safety counterexample tree against exact beliefs.

    From the initial belief, every inner node's target move must be a move
    of the exact belief, every agent reply to it must have a subtree, and
    every leaf's exact belief must violate the safety conjunction.
    """
    if tree.root.state != G.initial:
        return [f"tree root {tree.root.state} is not the initial state {G.initial}"]
    stack = [(tree.root, frozenset({G.initial[1]}))]
    while stack:
        node, belief = stack.pop()
        l_a = node.state[0]
        if not node.children:
            if all(atom_holds(G, l_a, belief, a, predicates) for a in objective.safety_terms):
                return [f"leaf {node.state} has exact belief {sorted(belief)}, "
                        "which satisfies the spec"]
            continue
        choices = belief_successors(G, (l_a, belief))
        if isinstance(node.choice, int):
            match = [cr for cr in choices if cr[0] == frozenset({node.choice})
                     and G.vis(l_a, node.choice)]
        else:
            match = [cr for cr in choices if not G.vis(l_a, min(cr[0]))]
        if not match:
            return [f"target move {node.choice!r} at {node.state} is not a move "
                    f"of the exact belief {sorted(belief)}"]
        new_belief, replies = match[0]
        subtree = {child.state[0]: child for child in node.children}
        missing = sorted(set(replies) - set(subtree))
        if missing:
            return [f"agent replies {missing} at {node.state} have no subtree"]
        stack.extend((subtree[r], new_belief) for r in replies)
    return []


def check_replay(G, trace, objective, predicates) -> list[str]:
    """Every ``G`` atom on every step's exact belief, which ``simulate``
    tracks from the observations alone."""
    for step in trace.steps:
        if step.target not in step.belief:
            return [f"step {step.step}: target {step.target} outside its exact belief"]
        for atom in objective.safety_terms:
            if not atom_holds(G, step.agent, step.belief, atom, predicates):
                return [f"step {step.step}: atom {atom} fails on exact belief "
                        f"{sorted(step.belief)} with the agent on {step.agent}"]
    return []
