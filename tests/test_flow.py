from __future__ import annotations

import itertools
import random

from indepkit import NULL, Relation, Schema
from indepkit.flow import Assignment, FlowNetwork, max_flow_assignment
from indepkit.model_check import _weights, build_flow_network


def random_network(rng: random.Random) -> FlowNetwork:
    """At most 5 items and 4 slots, capacities 0-2, each edge present with
    probability 0.5."""
    n_items, n_slots = rng.randint(0, 5), rng.randint(1, 4)
    edges = tuple(
        (i, s) for i in range(n_items) for s in range(n_slots) if rng.random() < 0.5
    )
    capacities = tuple(rng.randint(0, 2) for _ in range(n_slots))
    return FlowNetwork(tuple(range(n_items)), tuple(range(n_slots)), capacities, edges)


def brute_force_assignable(network: FlowNetwork) -> bool:
    """Does some choice of one edge per item respect every capacity?"""
    choices = [[s for i2, s in network.edges if i2 == i] for i in range(len(network.items))]
    for slots in itertools.product(*choices):
        if all(slots.count(s) <= c for s, c in enumerate(network.capacities)):
            return True
    return False


def assert_respects_network(network: FlowNetwork, assignment: list[int]) -> None:
    assert len(assignment) == len(network.items)
    edges = set(network.edges)
    for item, slot in enumerate(assignment):
        assert (item, slot) in edges
    for slot, capacity in enumerate(network.capacities):
        assert assignment.count(slot) <= capacity


class TestFlowNetwork:
    def test_zero_capacity_cut(self):
        net = FlowNetwork(("i",), ("s", "t"), (0, 3), ((0, 0),))
        assert max_flow_assignment(net) is None

    def test_agrees_with_brute_force(self):
        rng = random.Random(31)
        for _ in range(300):
            net = random_network(rng)
            assignment = max_flow_assignment(net)
            assert (assignment is not None) == brute_force_assignable(net), net
            if assignment is not None:
                assert_respects_network(net, assignment)

    def test_flow_bounds_and_conservation(self):
        # augmenting paths move earlier items instead of giving up: item 0
        # first takes slot 0, which item 1 needs, and must move to slot 1
        net = FlowNetwork((0, 1, 2), (0, 1, 2), (1, 1, 1), ((0, 0), (0, 1), (1, 0), (2, 1), (2, 2)))
        assignment = max_flow_assignment(net)
        assert assignment is not None and assignment[:2] == [1, 0]
        assert_respects_network(net, assignment)
        # no item is left over when there are more items than capacity
        full = FlowNetwork((0, 1, 2), (0,), (2,), ((0, 0), (1, 0), (2, 0)))
        assert max_flow_assignment(full) is None


class TestAssignment:
    def test_add_and_pop_agree_with_brute_force(self):
        # random sequences of add and pop on at most 6 items and 4 slots;
        # after each step the placed items must be exactly as feasible as
        # the brute-force search says, and each must sit on its own slot
        rng = random.Random(33)
        for _ in range(200):
            n_slots = rng.randint(1, 4)
            capacities = tuple(rng.randint(0, 2) for _ in range(n_slots))
            assignment = Assignment(capacities)
            placed: list[list[int]] = []
            for _ in range(12):
                if placed and rng.random() < 0.35:
                    assignment.pop()
                    placed.pop()
                elif len(placed) < 6:
                    slots = [s for s in range(n_slots) if rng.random() < 0.5]
                    added = assignment.add(slots)
                    grown = placed + [slots]
                    edges = tuple((i, s) for i, own in enumerate(grown) for s in own)
                    net = FlowNetwork(tuple(range(len(grown))), tuple(range(n_slots)), capacities, edges)
                    assert added == brute_force_assignable(net), (capacities, grown)
                    if added:
                        placed.append(slots)
                edges = tuple((i, s) for i, own in enumerate(placed) for s in own)
                net = FlowNetwork(tuple(range(len(placed))), tuple(range(n_slots)), capacities, edges)
                assert_respects_network(net, assignment.slot_of)

    def test_pop_frees_the_slot_of_the_newest_item(self):
        # the second item pushes the first to slot 1; popping it leaves the
        # first item there and slot 0 free for a third
        assignment = Assignment((1, 1))
        assert assignment.add([0, 1]) and assignment.add([0])
        assert assignment.slot_of == [1, 0]
        assert not assignment.add([1])
        assignment.pop()
        assert assignment.slot_of == [1]
        assert assignment.add([0]) and assignment.slot_of == [1, 0]


class TestBuildNetwork:
    def test_seven_row_example_shape(self, two_column_seven_rows):
        net = build_flow_network(_weights(two_column_seven_rows, (0, 1)))
        # no complete tuple, so all six product cells are items; the pools
        # are (0,*) twice, (1,*), (*,2), (*,1), (*,0) and (*,*)
        assert sorted(net.items) == [(a, b) for a in "01" for b in "012"]
        assert dict(zip(net.slots, net.capacities))[("0", NULL)] == 2
        assert sum(net.capacities) == 7
        for item in range(len(net.items)):
            assert len([e for e in net.edges if e[0] == item]) == 3
        assert max_flow_assignment(net) is not None

    def test_covered_cells_are_not_items(self, two_column_seven_rows):
        schema = two_column_seven_rows.schema
        r = Relation.from_rows(
            schema, [*two_column_seven_rows.rows, ("0", "1"), ("1", "2"), ("1", "2")]
        )
        net = build_flow_network(_weights(r, (0, 1)))
        assert ("0", "1") not in net.items and ("1", "2") not in net.items
        assert len(net.items) == 4
        assert all(len([e for e in net.edges if e[0] == i]) <= 3 for i in range(len(net.items)))

    def test_all_null_tuple_reaches_every_cell(self):
        schema = Schema(("A", "B"), (("0", "1"), ("0", "1")))
        r = Relation.from_rows(schema, [(NULL, NULL), ("0", "0"), ("1", "1"), ("0", "1")])
        net = build_flow_network(_weights(r, (0, 1)))
        wildcard = net.slots.index((NULL, NULL))
        assert net.items == (("1", "0"),)
        assert net.edges == ((0, wildcard),)
