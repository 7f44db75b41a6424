"""Assignment of unit-demand items to slots of integral capacity.

This is the one matching kernel of the package: the unary possible-atom
decider assigns missing product cells to null pools, and the support search
assigns support pairs to tuple copies.  Both are bipartite max-flow problems
whose source edges carry one unit per item, so augmenting paths alternate
between items and slots and need no general flow network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence


@dataclass(frozen=True)
class FlowNetwork:
    """Items each needing one unit, slots holding ``capacities[s]`` items,
    and the (item index, slot index) pairs saying which slot may take which
    item.  The labels in ``items`` and ``slots`` are carried for the caller."""

    items: Sequence[Hashable]
    slots: Sequence[Hashable]
    capacities: Sequence[int]
    edges: tuple[tuple[int, int], ...]


def max_flow_assignment(network: FlowNetwork) -> list[int] | None:
    """Slot index of every item, or ``None`` as soon as one item cannot be
    placed.  Items are placed in order, each along a shortest augmenting path
    found breadth-first (ties broken by edge order); earlier items may move
    to other slots but stay placed, so a failure is final."""
    adjacency: list[list[int]] = [[] for _ in network.items]
    for item, slot in network.edges:
        adjacency[item].append(slot)
    room = list(network.capacities)
    holders: list[list[int]] = [[] for _ in room]
    slot_of: list[int] = [-1] * len(adjacency)
    for start in range(len(adjacency)):
        reached_from: dict[int, int] = {}  # slot -> item whose edge reached it
        frontier = [start]
        free = -1
        while frontier and free < 0:
            next_frontier: list[int] = []
            for item in frontier:
                for slot in adjacency[item]:
                    if slot in reached_from:
                        continue
                    reached_from[slot] = item
                    if room[slot]:
                        free = slot
                        break
                    next_frontier.extend(holders[slot])
                if free >= 0:
                    break
            frontier = next_frontier
        if free < 0:
            return None
        room[free] -= 1
        slot = free
        while slot >= 0:
            item = reached_from[slot]
            previous = slot_of[item]
            slot_of[item] = slot
            holders[slot].append(item)
            if previous >= 0:
                holders[previous].remove(item)
            slot = previous
    return slot_of
