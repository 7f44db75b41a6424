"""Assignment of unit-demand items to slots of integral capacity.

This is the one matching kernel of the package: the unary possible-atom decider
assigns missing product cells to null pools, and the support search assigns
support pairs to the copies of distinct patterns.  Both are bipartite max-flow
problems whose source edges carry one unit per item, so augmenting paths
alternate between items and slots and need no general flow network.

``Assignment`` places items one at a time and removes them last in, first
out, which is what the support search needs as its support sets grow and
shrink; ``max_flow_assignment`` places a whole network at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence


@dataclass(frozen=True)
class FlowNetwork:
    """Items each needing one unit, slots holding ``capacities[s]`` items,
    and the (item index, slot index) pairs saying which slot may take which
    item.  The labels in ``items`` and ``slots`` are carried for the caller."""

    items: Sequence[Hashable]
    slots: Sequence[Hashable]
    capacities: Sequence[int]
    edges: tuple[tuple[int, int], ...]


class Assignment:
    """Items placed on slots of fixed capacity, every item on a slot it has
    an edge to.  ``add`` places a new item along one shortest augmenting path
    found breadth-first (ties broken by the order of its slots); earlier
    items may move to other slots of their own but stay placed.  ``pop``
    removes the newest item and frees its slot, which leaves every other
    item where it is, so removal needs no record of the moves."""

    def __init__(self, capacities: Sequence[int]):
        self.room = list(capacities)
        self.holders: list[list[int]] = [[] for _ in self.room]
        self.adjacency: list[list[int]] = []
        self.slot_of: list[int] = []

    def add(self, slots: Iterable[int]) -> bool:
        """Place a new item that may take any of ``slots``; ``False``, with
        nothing changed, when no augmenting path reaches a free slot."""
        start = len(self.adjacency)
        self.adjacency.append(list(slots))
        self.slot_of.append(-1)
        room, holders, adjacency = self.room, self.holders, self.adjacency
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
            self.adjacency.pop()
            self.slot_of.pop()
            return False
        room[free] -= 1
        slot = free
        while slot >= 0:
            item = reached_from[slot]
            previous = self.slot_of[item]
            self.slot_of[item] = slot
            holders[slot].append(item)
            if previous >= 0:
                holders[previous].remove(item)
            slot = previous
        return True

    def pop(self) -> None:
        """Remove the most recently added item."""
        slot = self.slot_of.pop()
        self.adjacency.pop()
        self.holders[slot].remove(len(self.slot_of))
        self.room[slot] += 1


def max_flow_assignment(network: FlowNetwork) -> list[int] | None:
    """Slot index of every item, or ``None`` as soon as one item cannot be
    placed.  Items are placed in order by ``Assignment.add``; a failure is
    final, because placed items never leave."""
    slots_of: list[list[int]] = [[] for _ in network.items]
    for item, slot in network.edges:
        slots_of[item].append(slot)
    assignment = Assignment(network.capacities)
    for slots in slots_of:
        if not assignment.add(slots):
            return None
    return assignment.slot_of
