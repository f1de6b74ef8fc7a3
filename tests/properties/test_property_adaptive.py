"""Properties of the learning gateway and the hysteresis trigger.

The bandit's regression surface is *reproducibility*: its decisions must be
a pure function of (configuration, observed outcome history), because the
golden suite and the tournament leaderboard both pin runs that route
through it. These properties drive two identically-configured gateways
through arbitrary interleavings of routing decisions and terminal outcomes
and demand bit-identical behaviour, plus the bookkeeping invariants that
make the reward ledger auditable.

The watermark rebalancer's contract is the *dead band*: a source whose
pressure gap sits between the watermarks must never start shedding — only
continue a shed begun above the high watermark, until it drains below the
low one.
"""

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.federation.migration import Rebalancer
from repro.federation.spec import MigrationSpec
from repro.scheduling.federation import AdaptiveGateway
from repro.tasks.task import TaskStatus

N_CLUSTERS = 3
TASK_TYPES = ("alpha", "beta")

#: One routing episode: where the task arrives, what it is, and (if the
#: run resolves it) how it ended.
episodes = st.lists(
    st.fixed_dictionaries(
        {
            "origin": st.integers(min_value=0, max_value=N_CLUSTERS - 1),
            "ttype": st.sampled_from(TASK_TYPES),
            "resolve": st.booleans(),
            "ontime": st.booleans(),
            "response": st.floats(
                min_value=0.0, max_value=500.0,
                allow_nan=False, allow_infinity=False,
            ),
        }
    ),
    min_size=1,
    max_size=60,
)

gateway_configs = st.fixed_dictionaries(
    {
        "strategy": st.sampled_from(("epsilon", "ucb")),
        "epsilon": st.floats(min_value=0.0, max_value=1.0),
        "ucb_c": st.floats(min_value=0.0, max_value=3.0),
        "seed": st.integers(min_value=0, max_value=2**20),
    }
)


def _route(gateway: AdaptiveGateway, task_id: int, episode: dict) -> int:
    task = SimpleNamespace(
        id=task_id, task_type=SimpleNamespace(name=episode["ttype"])
    )
    ctx = SimpleNamespace(
        task=task, shards=[None] * N_CLUSTERS, origin=episode["origin"]
    )
    return gateway.choose_cluster(ctx)


def _resolve(gateway: AdaptiveGateway, task_id: int, episode: dict) -> None:
    arrival = 10.0
    completion = arrival + episode["response"]
    deadline = completion + 1.0 if episode["ontime"] else completion - 1.0
    task = SimpleNamespace(
        id=task_id,
        status=TaskStatus.COMPLETED,
        arrival_time=arrival,
        completion_time=completion,
        deadline=deadline,
    )
    gateway.record_outcome(task, completion)


def _drive(gateway: AdaptiveGateway, trace: list[dict]) -> list[int]:
    decisions = []
    for task_id, episode in enumerate(trace):
        decisions.append(_route(gateway, task_id, episode))
        if episode["resolve"]:
            _resolve(gateway, task_id, episode)
    return decisions


@given(config=gateway_configs, trace=episodes)
@settings(max_examples=80, deadline=None)
def test_same_seed_same_history_bit_identical(config, trace):
    """Two identically-configured gateways agree on every decision and on
    the full reward ledger — the determinism the golden pins rely on."""
    first = AdaptiveGateway(**config)
    second = AdaptiveGateway(**config)
    assert _drive(first, trace) == _drive(second, trace)
    assert first.ledger() == second.ledger()
    assert first.arm_stats() == second.arm_stats()


@given(config=gateway_configs, trace=episodes)
@settings(max_examples=80, deadline=None)
def test_reset_replays_identically(config, trace):
    """reset() restores the exact initial state, exploration stream included."""
    gateway = AdaptiveGateway(**config)
    before = _drive(gateway, trace)
    ledger = gateway.ledger()
    gateway.reset()
    assert gateway.decisions == 0
    assert gateway.arm_stats() == {}
    assert _drive(gateway, trace) == before
    assert gateway.ledger() == ledger


@given(config=gateway_configs, trace=episodes)
@settings(max_examples=80, deadline=None)
def test_arm_statistics_invariants(config, trace):
    """The ledger balances: arm counts sum to credited outcomes, every
    decision is either credited or still pending, rewards stay in [0, 1]."""
    gateway = AdaptiveGateway(**config)
    decisions = _drive(gateway, trace)
    assert gateway.decisions == len(decisions) == len(trace)
    stats = gateway.arm_stats()
    assert sum(count for count, _ in stats.values()) == (
        gateway.rewards_recorded
    )
    assert gateway.rewards_recorded == len(gateway.ledger())
    assert gateway.pending + gateway.rewards_recorded == gateway.decisions
    for _, _, reward in gateway.ledger():
        assert 0.0 <= reward <= 1.0
    for count, total in stats.values():
        assert count > 0
        assert 0.0 <= total <= count  # finite by construction
    for destination in decisions:
        assert 0 <= destination < N_CLUSTERS


@given(config=gateway_configs, trace=episodes)
@settings(max_examples=50, deadline=None)
def test_untried_arms_play_first(config, trace):
    """With every outcome credited immediately, the first N_CLUSTERS
    decisions per (origin, type) context cover destinations 0..N-1 in
    index order — the deterministic coverage pass before any exploit."""
    gateway = AdaptiveGateway(**config)
    observed: dict[tuple[int, str], int] = {}
    for task_id, episode in enumerate(trace):
        context = (episode["origin"], episode["ttype"])
        seen = observed.setdefault(context, 0)
        destination = _route(gateway, task_id, episode)
        if seen < N_CLUSTERS:
            assert destination == seen
        _resolve(gateway, task_id, episode)
        observed[context] = seen + 1


def _fresh_rebalancer(high: float, low: float) -> Rebalancer:
    federation = SimpleNamespace(shards=[None, None])
    spec = MigrationSpec(high_watermark=high, low_watermark=low)
    return Rebalancer(federation, spec)


watermarks = st.tuples(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
).map(lambda pair: (max(pair), min(pair)))


@given(
    marks=watermarks,
    gap=st.floats(min_value=-10.0, max_value=20.0, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_hysteresis_never_starts_in_the_dead_band(marks, gap):
    """A source not already shedding fires iff the gap reaches the high
    watermark — gaps inside the dead band (and below) never start a shed."""
    high, low = marks
    rebalancer = _fresh_rebalancer(high, low)
    fired = rebalancer._should_fire(0, gap)
    assert fired == (gap >= high)
    assert (0 in rebalancer._shedding) == fired


@given(
    marks=watermarks,
    gaps=st.lists(
        st.floats(min_value=-10.0, max_value=20.0, allow_nan=False),
        min_size=1,
        max_size=30,
    ),
)
@settings(max_examples=100, deadline=None)
def test_hysteresis_state_machine(marks, gaps):
    """Replaying any gap sequence, the trigger matches the two-state
    reference machine: start at >= high, keep firing until <= low."""
    high, low = marks
    rebalancer = _fresh_rebalancer(high, low)
    shedding = False
    for gap in gaps:
        expected = (gap > low) if shedding else (gap >= high)
        shedding = expected
        assert rebalancer._should_fire(0, gap) == expected
        assert (0 in rebalancer._shedding) == shedding


@given(
    gap=st.floats(min_value=-10.0, max_value=20.0, allow_nan=False),
    threshold=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
)
@settings(max_examples=100, deadline=None)
def test_no_watermarks_is_the_plain_threshold(gap, threshold):
    """Watermarks left unset, the trigger is the original stateless
    pressure_gap comparison — the compatibility the older pins rely on."""
    federation = SimpleNamespace(shards=[None, None])
    rebalancer = Rebalancer(
        federation, MigrationSpec(pressure_gap=threshold)
    )
    assert rebalancer._should_fire(0, gap) == (gap >= threshold)
    assert not rebalancer._shedding
