"""Refinement one partition at a time, the reference for
``Partition.refine`` and ``surveil.cegar.split_along``, which split a
table of block masks and build one partition at the end.

Every split here builds a new ``Partition`` from frozensets, checked
cell by cell, and the backward walk reads each location's unseen
landing cells off a ``BeliefMoves`` record of its singleton belief.
"""

from surveil import Partition
from surveil.belief import belief_moves, landing_cells


def split(Q: Partition, scope: int, separator: int) -> Partition:
    """Every block of ``Q`` inside the cell mask ``scope`` split against
    the cell mask ``separator``, the part in the separator first; ``Q``
    itself when nothing splits."""
    new_blocks = dict(Q.blocks)
    nid = Q.next_id
    for bid, mask in Q.masks.items():
        inter = mask & separator
        if mask & ~scope or not inter or inter == mask:
            continue
        cells = new_blocks.pop(bid)
        new_blocks[nid] = part = frozenset([l for l in cells if inter >> l & 1])
        new_blocks[nid + 1] = cells - part
        nid += 2
    if nid == Q.next_id:
        return Q
    return Partition(new_blocks, Q.universe, nid)


def meet(Q: Partition, other: Partition) -> Partition:
    """``Q`` split against ``other``'s blocks in the order of their
    sorted cells."""
    result = Q
    for mask in sorted(other.masks.values(), key=lambda m: m & -m):
        result = split(result, -1, mask)
    return result


def split_along(G, Q: Partition, pairs) -> Partition:
    """Backward splitting along ``(l_a, label, exact_belief)`` pairs, one
    partition per split."""
    n = len(pairs) - 1
    _, label_n, precise = pairs[n]
    result = split(Q, Q.gamma_mask(label_n), precise)
    records = {}
    for j in range(n - 1, -1, -1):
        l_a_j, label_j, _ = pairs[j]
        if isinstance(label_j, int):
            break
        outside = Q.gamma_mask(pairs[j + 1][1]) & ~precise
        scope = Q.gamma_mask(label_j)
        precise = 0
        for l in G.cells_in(scope):
            record = records.get(l)
            if record is None:
                record = records[l] = belief_moves(G, 1 << l)
            if not landing_cells(G, l_a_j, record)[1] & outside:
                precise |= 1 << l
        result = split(result, scope, precise)
    return result


def refine_along(G, Q: Partition, pairs, stem: int = 0) -> Partition:
    """:func:`split_along`, met with the split along the first ``stem``
    pairs when ``stem`` is nonzero, as ``surveil.cegar._refine_along``
    refines."""
    refined = split_along(G, Q, pairs)
    if stem:
        refined = meet(refined, split_along(G, Q, pairs[:stem]))
    return refined
