"""Property: every document the service spool accepts runs or fails typed.

A draw replaces one field, at any depth, of a preset's ``to_dict()`` or of
a small campaign dict with an arbitrary JSON value (NaN, infinities and
huge integers included: Python's ``json`` reads them). The document must
then either run to the end (a campaign also renders its report, as the
service does) or raise an :class:`~repro.core.errors.E2CError`
subclass, never a bare ``KeyError``/``TypeError``/NumPy error, and each
example must finish within a wall-clock limit, so a hang fails too.
"""

import json
import signal
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import Scenario
from repro.core.errors import E2CError
from repro.experiments import CampaignSpec, execute_campaign
from repro.scenarios import build_scenario
from repro.tasks import generator

#: Wall-clock seconds one example may take before it counts as a hang.
EXAMPLE_LIMIT_S = 20
#: The generator's task-count limit while fuzzing. A drawn duration or
#: intensity can make a valid window of up to the real limit (10^6 tasks):
#: seconds of run and a GiB of tasks, which is a service-limits matter,
#: not a typing one. Under this limit such a window is refused typed.
FUZZ_MAX_TASKS = 20_000

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(),
    st.text(max_size=8),
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(max_size=8), children, max_size=3),
    ),
    max_leaves=8,
)

CAMPAIGN = {
    "name": "fuzz",
    "seed": 0,
    "scenarios": [{"name": "classroom_homogeneous", "overrides": {"duration": 60.0}}],
    "schedulers": ["FCFS", "MM"],
    "seeds": [0],
    "scheduler_params": {"MM": {}},
    "metrics": ["completion_rate"],
}


def paths(node, prefix=()):
    """Every key/index path inside a JSON document, parents before children."""
    items = (
        node.items() if isinstance(node, dict)
        else enumerate(node) if isinstance(node, list)
        else ()
    )
    for key, child in items:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


def replaced(document, path, value):
    """A deep copy of *document* with *path* set to *value*."""
    copy = json.loads(json.dumps(document))
    node = copy
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return copy


@contextmanager
def wall_limit(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"example ran longer than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def mutations(document):
    """A strategy of one-field mutations of *document* (or a new top-level key)."""
    where = st.sampled_from(list(paths(document)) + [("unexpected",)])
    return st.builds(lambda path, value: replaced(document, path, value), where, json_values)


FUZZ = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@pytest.fixture(autouse=True)
def small_windows(monkeypatch):
    monkeypatch.setattr(generator, "MAX_EXPECTED_TASKS", FUZZ_MAX_TASKS)


@pytest.mark.parametrize("preset", ["classroom_homogeneous", "fed_rebalance", "hier_deep"])
def test_scenario_documents_run_or_fail_typed(preset):
    document = build_scenario(preset, duration=60.0).to_dict()

    @FUZZ
    @given(mutations(document))
    def check(data):
        with wall_limit(EXAMPLE_LIMIT_S):
            try:
                Scenario.from_dict(data).run()
            except E2CError:
                pass

    check()


@FUZZ
@given(mutations(CAMPAIGN))
def test_campaign_documents_run_or_fail_typed(data):
    with wall_limit(EXAMPLE_LIMIT_S):
        try:
            execute_campaign(CampaignSpec.from_dict(data)).to_text()
        except E2CError:
            pass
