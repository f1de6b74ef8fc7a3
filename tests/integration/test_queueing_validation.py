"""Validation against queueing theory: the simulator vs closed forms.

Ground truth independent of the paper: a single machine fed by a Poisson
process with no deadlines is an M/G/1 queue, so the simulated mean waiting
time must match Pollaczek–Khinchine. Deterministic EETs give M/D/1;
exponential runtime noise (Gamma with CoV 1) gives M/M/1.
"""

import math

import numpy as np
import pytest

from repro.core.simulator import Simulator
from repro.machines.cluster import Cluster
from repro.machines.eet import EETMatrix
from repro.machines.execution import GammaExecution
from repro.metrics.queueing import (
    md1_mean_wait,
    mm1_mean_wait,
    utilization,
)
from repro.scheduling.registry import create_scheduler
from repro.tasks.arrivals import PoissonProcess
from repro.tasks.task import Task
from repro.tasks.task_type import TaskType
from repro.tasks.workload import Workload

SERVICE = 1.0
N_TASKS = 8000
WARMUP = 500


def simulate_single_queue(arrival_rate, execution_model=None, seed=1234):
    task_type = TaskType("T", 0)
    eet = EETMatrix(np.array([[SERVICE]]), [task_type], ["M"])
    # The arrival stream and the simulator's service-noise stream must be
    # independent: sharing one seed correlates inter-arrival gaps with
    # service draws and biases the queue (we learned this the hard way).
    arrivals = PoissonProcess(rate=arrival_rate).generate(
        0.0, (N_TASKS * 1.3) / arrival_rate, rng=seed + 990_001
    )[:N_TASKS]
    assert arrivals.size == N_TASKS
    tasks = [
        Task(id=i, task_type=task_type, arrival_time=float(a), deadline=math.inf)
        for i, a in enumerate(arrivals)
    ]
    workload = Workload(task_types=[task_type], tasks=tasks)
    sim = Simulator(
        cluster=Cluster.build(eet, {"M": 1}),
        workload=workload,
        scheduler=create_scheduler("FCFS"),
        execution_model=execution_model,
        seed=seed,
    )
    sim.run()
    waits = [t.wait_time for t in tasks[WARMUP:]]
    assert all(w is not None for w in waits)
    return float(np.mean(waits))


class TestMD1:
    @pytest.mark.parametrize("rho", [0.3, 0.5, 0.7])
    def test_mean_wait_matches_pollaczek_khinchine(self, rho):
        lam = rho / SERVICE
        measured = simulate_single_queue(lam)
        expected = md1_mean_wait(lam, SERVICE)
        assert measured == pytest.approx(expected, rel=0.12)


def simulate_mm1_mean(lam: float, seeds=(1, 2, 3, 4)) -> float:
    """M/M/1 waits are long-range dependent; average several seeds."""
    return float(
        np.mean(
            [
                simulate_single_queue(
                    lam, execution_model=GammaExecution(cov=1.0), seed=seed
                )
                for seed in seeds
            ]
        )
    )


class TestMM1:
    @pytest.mark.parametrize("rho", [0.3, 0.5])
    def test_mean_wait_matches_mm1(self, rho):
        lam = rho / SERVICE
        measured = simulate_mm1_mean(lam)
        expected = mm1_mean_wait(lam, SERVICE)
        assert measured == pytest.approx(expected, rel=0.15)

    def test_mm1_waits_exceed_md1(self):
        """Service variability hurts: W(M/M/1) = 2 × W(M/D/1)."""
        lam = 0.5
        md1 = simulate_single_queue(lam)
        mm1 = simulate_mm1_mean(lam)
        assert mm1 > md1 * 1.5


class TestFormulas:
    def test_md1_closed_form(self):
        # ρ=0.5, S=1: Wq = 0.5·1/(2·0.5) = 0.5
        assert md1_mean_wait(0.5, 1.0) == pytest.approx(0.5)

    def test_mm1_closed_form(self):
        # λ=0.5, μ=1: Wq = 0.5/(1·0.5) = 1.0
        assert mm1_mean_wait(0.5, 1.0) == pytest.approx(1.0)

    def test_mm1_is_twice_md1(self):
        assert mm1_mean_wait(0.6, 1.0) == pytest.approx(
            2 * md1_mean_wait(0.6, 1.0)
        )

    def test_unstable_queue_rejected(self):
        from repro.core.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            md1_mean_wait(1.2, 1.0)

    def test_utilization(self):
        assert utilization(0.25, 2.0) == 0.5

    def test_negative_variance_rejected(self):
        from repro.core.errors import ConfigurationError
        from repro.metrics.queueing import mg1_mean_wait

        with pytest.raises(ConfigurationError):
            mg1_mean_wait(0.5, 1.0, 0.5)
