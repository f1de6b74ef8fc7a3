"""E2C-Repro: a discrete-event simulator for heterogeneous computing systems.

A from-scratch reproduction of *"E2C: A Visual Simulator to Reinforce
Education of Heterogeneous Computing Systems"* (Mokhtari et al., IPDPSW 2023,
arXiv:2303.10901): the simulation engine, the EET heterogeneity model, the
workload generator, every scheduling policy the paper names (immediate: FCFS,
MECT, MEET; batch: MM, MMU, MSD, ELARE, FELARE) plus the classic baselines,
the energy model, the report subsystem, a terminal visual front-end, and the
education layer (the class assignment and the quiz engine) behind the
paper's evaluation.

Quickstart::

    from repro import Scenario, generate_eet_cvb

    eet = generate_eet_cvb(3, 4, seed=7)
    scenario = Scenario(
        eet=eet,
        machine_counts={n: 1 for n in eet.machine_type_names},
        scheduler="MECT",
        generator={"duration": 200.0, "intensity": "medium"},
        seed=42,
    )
    result = scenario.run()
    print(result.summary.completion_rate)
    print(result.reports.summary_report().to_text())
"""

from .core import (
    ConfigurationError,
    E2CError,
    EETError,
    Event,
    EventQueue,
    EventType,
    IncompatibleWorkloadError,
    Scenario,
    SchedulingError,
    SimulationController,
    SimulationResult,
    SimulationStateError,
    Simulator,
    UnknownScenarioError,
    UnknownSchedulerError,
    WorkloadError,
)
from .experiments import (
    CampaignResult,
    CampaignRunner,
    CampaignSpec,
    ScenarioRef,
    run_campaign,
)
from .federation import (
    ClusterSpec,
    FederatedSimulationResult,
    FederatedSimulator,
    FederationSpec,
)
from .machines import (
    UNBOUNDED,
    Cluster,
    EETMatrix,
    FailureModel,
    Machine,
    MachineType,
    PowerProfile,
    generate_eet_cvb,
    generate_eet_range_based,
)
from .metrics import (
    MetricsCollector,
    PolicyComparison,
    Report,
    ReportBundle,
    SummaryMetrics,
    energy_breakdown,
    jain_fairness,
    summarize,
)
from .scenarios import (
    available_scenarios,
    build_scenario,
    register_scenario,
)
from .scheduling import (
    Assignment,
    BatchScheduler,
    ImmediateScheduler,
    Scheduler,
    SchedulingContext,
    SchedulingMode,
    available_schedulers,
    create_scheduler,
    register_scheduler,
)
from .tasks import (
    INTENSITY_LEVELS,
    PoissonProcess,
    Task,
    TaskStatus,
    TaskType,
    TaskTypeSpec,
    Workload,
    WorkloadGenerator,
    read_workload_csv,
    write_workload_csv,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # engine
    "Simulator",
    "SimulationResult",
    "SimulationController",
    "Scenario",
    "EventQueue",
    "Event",
    "EventType",
    # federation
    "FederationSpec",
    "ClusterSpec",
    "FederatedSimulator",
    "FederatedSimulationResult",
    # machines
    "EETMatrix",
    "generate_eet_cvb",
    "generate_eet_range_based",
    "Cluster",
    "Machine",
    "MachineType",
    "PowerProfile",
    "UNBOUNDED",
    # tasks
    "Task",
    "TaskStatus",
    "TaskType",
    "Workload",
    "WorkloadGenerator",
    "TaskTypeSpec",
    "PoissonProcess",
    "INTENSITY_LEVELS",
    "read_workload_csv",
    "write_workload_csv",
    # scheduling
    "Scheduler",
    "ImmediateScheduler",
    "BatchScheduler",
    "SchedulingMode",
    "SchedulingContext",
    "Assignment",
    "register_scheduler",
    "create_scheduler",
    "available_schedulers",
    # metrics
    "MetricsCollector",
    "SummaryMetrics",
    "Report",
    "ReportBundle",
    "summarize",
    "jain_fairness",
    "energy_breakdown",
    "PolicyComparison",
    # scenarios
    "register_scenario",
    "build_scenario",
    "available_scenarios",
    # experiments
    "CampaignSpec",
    "ScenarioRef",
    "CampaignRunner",
    "CampaignResult",
    "run_campaign",
    # extensions
    "FailureModel",
    # errors
    "E2CError",
    "ConfigurationError",
    "WorkloadError",
    "EETError",
    "IncompatibleWorkloadError",
    "SchedulingError",
    "UnknownSchedulerError",
    "UnknownScenarioError",
    "SimulationStateError",
]
