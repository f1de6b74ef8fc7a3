"""Properties of hierarchical federations over random trees.

Four laws that must hold for *every* federation tree, not just the shipped
presets:

1. spec JSON round-trips losslessly (hierarchy is a reproducible artifact),
2. a rollup's root totals are exactly the flat sum over its leaves,
3. WAN conservation — ``attempted == delivered + cancelled_in_flight`` —
   holds at every node of a finished run, interior nodes included,
4. a route never leaves the origin/destination subtrees: every hop is an
   ancestor-or-self of one endpoint (no sibling subtree ever relays
   foreign traffic),
5. at every gateway decision, with and without machine failures, each
   node's live ``in_system`` and ``alive`` counters equal a recount over
   its leaves, and ``TREE_PRESSURE`` picks the leaf a leaf-summing
   reference picks.
"""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import Scenario
from repro.federation import ClusterSpec, FederationSpec, RegionSpec
from repro.federation.hierarchy import FederationTree
from repro.machines.eet import EETMatrix
from repro.machines.failures import FailureModel
from repro.metrics.rollup import TreeRollup
from repro.net import InterClusterTopology
from repro.net.topology import Link
from repro.tasks.task import Task
from repro.tasks.task_type import TaskType
from repro.tasks.workload import Workload


@st.composite
def federation_specs(draw, max_depth=3):
    """A random hierarchical FederationSpec with unique node names."""
    counter = itertools.count()

    def uplink():
        if draw(st.booleans()):
            return Link(
                latency=draw(
                    st.floats(min_value=0.01, max_value=1.0,
                              allow_nan=False)
                ),
                bandwidth=draw(st.sampled_from([0.0, 1.0, 8.0])),
            )
        return None

    def node(depth):
        name = f"n{next(counter)}"
        if depth >= max_depth or draw(st.booleans()):
            return ClusterSpec(
                name=name,
                machine_counts={"M": draw(st.integers(1, 2))},
                weight=1.0,
                uplink=uplink(),
            )
        return RegionSpec(
            name=name,
            children=[
                node(depth + 1)
                for _ in range(draw(st.integers(1, 3)))
            ],
            uplink=uplink(),
        )

    children = [node(1) for _ in range(draw(st.integers(1, 3)))]
    return FederationSpec(
        children=children,
        gateway="TREE_PRESSURE",
        topology=InterClusterTopology(
            default=Link(0.2, 2.0, contention="fifo")
        ),
    )


def _scenario(spec, tasks, *, seed, failure_model=None):
    task_types = [TaskType("T1", 0, data_in=2.0)]
    eet = EETMatrix(np.array([[3.0]]), task_types, ["M"])
    workload = Workload(
        task_types=task_types,
        tasks=[
            Task(id=i, task_type=task_types[0], arrival_time=a, deadline=d)
            for i, (a, d) in enumerate(tasks)
        ],
    )
    return Scenario(
        eet=eet,
        machine_counts=spec.total_machine_counts(),
        scheduler="MECT",
        workload=workload,
        federation=spec,
        failure_model=failure_model,
        seed=seed,
        name="prop-hier",
    )


@given(spec=federation_specs())
@settings(max_examples=60, deadline=None)
def test_random_trees_round_trip_json(spec):
    wire = json.dumps(spec.to_dict(), sort_keys=True)
    rebuilt = FederationSpec.from_dict(json.loads(wire))
    assert json.dumps(rebuilt.to_dict(), sort_keys=True) == wire
    assert rebuilt.names == spec.names
    # The rebuilt tree compiles to the identical topology.
    assert (
        FederationTree(rebuilt).hop_topology.to_dict()
        == FederationTree(spec).hop_topology.to_dict()
    )


@given(
    spec=federation_specs(),
    values=st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        min_size=1,
    ),
)
@settings(max_examples=60, deadline=None)
def test_rollup_root_equals_flat_leaf_sum(spec, values):
    tree = FederationTree(spec)
    stats = [
        {"v": values[i % len(values)], "one": 1.0}
        for i in range(tree.n_leaves)
    ]
    rollup = TreeRollup.from_leaves(tree.leaf_paths, stats)
    assert rollup.root.stats["v"] == sum(s["v"] for s in stats)
    assert rollup.root.stats["one"] == tree.n_leaves
    assert rollup.root.n_leaves == tree.n_leaves
    # Every interior node is the sum of its direct children ("one" is
    # integer-valued so exact; "v" only up to float association order —
    # the fold accumulates leaf-by-leaf, the check child-by-child).
    for node in rollup:
        children = [
            n
            for n in rollup
            if len(n.path) == len(node.path) + 1 and n.path[:-1] == node.path
        ]
        if not children:
            continue
        assert node.stats["one"] == sum(c.stats["one"] for c in children)
        assert node.stats["v"] == pytest.approx(
            sum(c.stats["v"] for c in children), rel=1e-9, abs=1e-9
        )


@given(
    spec=federation_specs(),
    seed=st.integers(min_value=0, max_value=2**16),
    tight=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_wan_conservation_at_every_node(spec, seed, tight):
    deadline = 4.0 if tight else 500.0
    tasks = [(0.4 * i, 0.4 * i + deadline) for i in range(12)]
    result = _scenario(spec, tasks, seed=seed).run()
    rollup = result.tree
    for node in rollup:
        stats = node.stats
        assert stats["wan_attempted"] == (
            stats["wan_delivered"] + stats["wan_cancelled_in_flight"]
        ), node.wire
        # Every routed task reached a terminal state by the end.
        assert stats["routed"] == (
            stats["completed"] + stats["missed"] + stats["cancelled"]
        ), node.wire
    assert rollup.root.stats["routed"] == len(tasks)
    assert rollup.root.stats["wan_attempted"] == result.offloaded


@given(spec=federation_specs())
@settings(max_examples=60, deadline=None)
def test_routes_never_leave_the_endpoint_subtrees(spec):
    tree = FederationTree(spec)
    pairs = itertools.islice(
        itertools.product(range(tree.n_leaves), repeat=2), 64
    )
    for origin, destination in pairs:
        route = tree.route(origin, destination)
        assert route[0] == origin
        assert route[-1] == destination
        for a, b in zip(route, route[1:]):
            # Consecutive hops are tree-adjacent (child <-> parent).
            assert tree.parent[a] == b or tree.parent[b] == a
        for node in route:
            # Ancestor-or-self of an endpoint: no sibling subtree relays.
            leaves = tree.leaves_under[node]
            assert origin in leaves or destination in leaves


def _leaf_recount(ctx, leaves):
    """(in_system, alive) of a subtree, summed leaf by leaf from the shards."""
    in_system = alive = 0
    for leaf in leaves:
        shard = ctx.shards[leaf]
        in_system += shard.in_system
        cluster = shard.cluster
        alive += len(cluster.machines) - cluster.state.n_down
    return in_system, alive


def _reference_pick(ctx, wan_mb_weight):
    """TREE_PRESSURE as it was before the live counters: every subtree's
    pressure re-summed over its leaves, locality tested on leaf sets."""
    view = ctx.hierarchy
    tree = view.tree
    node = tree.root
    while not tree.is_leaf(node):
        best, best_pressure, best_local = -1, float("inf"), False
        for child in tree.children[node]:
            leaves = tree.leaves_under[child]
            in_system, alive = _leaf_recount(ctx, leaves)
            inflight_mb = 0.0
            for leaf in leaves:
                inflight_mb += view.inflight_mb[leaf]
            pressure = (
                float("inf")
                if alive <= 0
                else (in_system + wan_mb_weight * inflight_mb) / alive
            )
            local = ctx.origin in leaves
            if (
                best < 0
                or pressure < best_pressure
                or (pressure == best_pressure and local and not best_local)
            ):
                best, best_pressure, best_local = child, pressure, local
        node = best
    return node


@given(
    spec=federation_specs(),
    seed=st.integers(min_value=0, max_value=2**16),
    tight=st.booleans(),
    failures=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_live_counters_equal_a_leaf_recount_at_every_decision(
    spec, seed, tight, failures
):
    deadline = 4.0 if tight else 500.0
    tasks = [(0.4 * i, 0.4 * i + deadline) for i in range(20)]
    failure_model = FailureModel(mtbf=2.0, mttr=0.5) if failures else None
    simulator = _scenario(
        spec, tasks, seed=seed, failure_model=failure_model
    ).build_simulator()
    gateway = simulator.gateway
    choose = gateway.choose_cluster
    decisions = []

    def checked_choose(ctx):
        view = ctx.hierarchy
        tree = view.tree
        for node in range(len(tree.node_names)):
            recount = _leaf_recount(ctx, tree.leaves_under[node])
            assert (view.in_system[node], view.alive[node]) == recount, node
        expected = _reference_pick(ctx, gateway.wan_mb_weight)
        picked = choose(ctx)
        assert picked == expected
        decisions.append(picked)
        return picked

    gateway.choose_cluster = checked_choose
    simulator.run()
    assert len(decisions) == len(tasks)
    # Drained: nothing is left in any subtree, and every machine that is
    # up is counted.
    view = simulator._ctx.hierarchy
    assert view.in_system == [0] * len(view.tree.node_names)
    assert view.alive == [
        _leaf_recount(simulator._ctx, leaves)[1]
        for leaves in view.tree.leaves_under
    ]
