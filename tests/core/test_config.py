"""Scenario configuration: validation, builders, JSON round-trips."""

import json
from dataclasses import replace

import pytest

from repro.core.config import Scenario
from repro.core.errors import ConfigurationError
from repro.machines import UNBOUNDED
from repro.machines.power import PowerProfile


class TestValidation:
    def test_needs_workload_or_generator(self, eet_3x2):
        with pytest.raises(ConfigurationError):
            Scenario(
                eet=eet_3x2, machine_counts={"M1": 1}, scheduler="MECT"
            )

    def test_workload_and_generator_exclusive(
        self, eet_3x2, make_workload
    ):
        with pytest.raises(ConfigurationError):
            Scenario(
                eet=eet_3x2,
                machine_counts={"M1": 1},
                scheduler="MECT",
                workload=make_workload([(0, 0.0, 10.0)]),
                generator={"duration": 10.0},
            )

    def test_unknown_machine_type_rejected(self, eet_3x2):
        with pytest.raises(ConfigurationError):
            Scenario(
                eet=eet_3x2,
                machine_counts={"NOPE": 1},
                scheduler="MECT",
                generator={"duration": 10.0},
            )

    @pytest.mark.parametrize("seed", ["abc", -1, 1.5])
    def test_preset_seed_fails_typed(self, seed):
        from repro.scenarios import build_scenario

        with pytest.raises(ConfigurationError, match="seed"):
            build_scenario("classroom_homogeneous", seed=seed)


class TestBuilders:
    def test_build_cluster(self, scenario_factory):
        cluster = scenario_factory().build_cluster()
        assert len(cluster) == 2

    def test_build_workload_deterministic(self, scenario_factory):
        scenario = scenario_factory()
        a = scenario.build_workload()
        b = scenario.build_workload()
        assert [(t.arrival_time, t.task_type.name) for t in a] == [
            (t.arrival_time, t.task_type.name) for t in b
        ]

    def test_replications_draw_different_workloads(self, scenario_factory):
        scenario = scenario_factory()
        a = scenario.build_workload(replication=0)
        b = scenario.build_workload(replication=1)
        assert [t.arrival_time for t in a] != [t.arrival_time for t in b]

    def test_explicit_workload_fresh_copies(self, eet_3x2, make_workload):
        workload = make_workload([(0, 0.0, 50.0)])
        scenario = Scenario(
            eet=eet_3x2,
            machine_counts={"M1": 1, "M2": 1},
            scheduler="MECT",
            workload=workload,
        )
        built = scenario.build_workload()
        assert built[0] is not workload[0]

    def test_generator_needs_duration_or_count(self, eet_3x2):
        scenario = Scenario(
            eet=eet_3x2,
            machine_counts={"M1": 1, "M2": 1},
            scheduler="MECT",
            generator={"intensity": "low"},
        )
        with pytest.raises(ConfigurationError):
            scenario.build_workload()

    def test_generator_n_tasks(self, eet_3x2):
        scenario = Scenario(
            eet=eet_3x2,
            machine_counts={"M1": 1, "M2": 1},
            scheduler="MECT",
            generator={"n_tasks": 17},
            seed=1,
        )
        assert len(scenario.build_workload()) == 17

    @pytest.mark.parametrize("duration", [5.0, 5000.0])
    def test_generator_refuses_duration_with_n_tasks(self, eet_3x2, duration):
        # Either key alone sets the window; together one was silently dropped.
        scenario = Scenario(
            eet=eet_3x2,
            machine_counts={"M1": 1, "M2": 1},
            scheduler="MECT",
            generator={"n_tasks": 40, "duration": duration},
            seed=1,
        )
        with pytest.raises(ConfigurationError, match="generator recipe"):
            scenario.build_workload()

    def test_immediate_mode_forces_unbounded(self, scenario_factory):
        scenario = scenario_factory("MECT", queue_capacity=3)
        sim = scenario.build_simulator()
        assert all(m.queue_capacity == UNBOUNDED for m in sim.cluster)

    def test_batch_mode_uses_capacity(self, scenario_factory):
        scenario = scenario_factory("MM", queue_capacity=3)
        sim = scenario.build_simulator()
        assert all(m.queue_capacity == 3 for m in sim.cluster)


class TestRun:
    def test_run_produces_result(self, scenario_factory):
        result = scenario_factory().run()
        assert result.summary.total_tasks > 0

    def test_replications_draw_independent_workloads(self, scenario_factory):
        scenario = scenario_factory()
        totals = {scenario.run(replication=i).summary.total_tasks for i in range(3)}
        assert len(totals) > 1


class TestJSON:
    def test_round_trip_generator_scenario(self, scenario_factory):
        scenario = scenario_factory("MM", queue_capacity=2)
        clone = Scenario.from_json(scenario.to_json())
        assert clone.scheduler == "MM"
        assert clone.queue_capacity == 2
        assert clone.run().summary.as_dict() == scenario.run().summary.as_dict()

    def test_round_trip_explicit_workload(self, eet_3x2, make_workload):
        scenario = Scenario(
            eet=eet_3x2,
            machine_counts={"M1": 1, "M2": 1},
            scheduler="MECT",
            workload=make_workload([(0, 0.0, 50.0), (1, 1.0, 51.0)]),
            power_profiles={"M1": PowerProfile(idle_watts=4.0, busy_watts=9.0)},
            seed=5,
        )
        clone = Scenario.from_json(scenario.to_json())
        assert len(clone.workload) == 2
        assert clone.power_profiles["M1"].idle_watts == 4.0
        assert (
            clone.run().summary.as_dict() == scenario.run().summary.as_dict()
        )

    def test_json_file_round_trip(self, scenario_factory, tmp_path):
        scenario = scenario_factory()
        path = tmp_path / "scenario.json"
        scenario.to_json(path)
        clone = Scenario.from_json(path)
        assert clone.name == scenario.name

    def test_unbounded_capacity_serialises_as_null(self, scenario_factory):
        import json

        data = json.loads(scenario_factory().to_json())
        assert data["queue_capacity"] is None


def mutated_preset(preset, field, value):
    """*preset*'s JSON form with the ``/``-separated *field* set to *value*."""
    from repro.scenarios import build_scenario

    data = json.loads(json.dumps(build_scenario(preset).to_dict()))
    *parents, last = field.split("/")
    node = data
    for key in parents:
        node = node[int(key) if isinstance(node, list) else key]
    node[int(last) if isinstance(node, list) else last] = value
    return data


def _explicit_workload_document():
    """``classroom_homogeneous`` with its generated workload as explicit rows."""
    from repro.scenarios import build_scenario

    preset = build_scenario("classroom_homogeneous")
    built = replace(preset, generator=None, workload=preset.build_workload())
    return json.loads(json.dumps(built.to_dict()))


class TestFromDictRejects:
    """A malformed field fails typed at load time, naming its path."""

    @pytest.mark.parametrize(
        "field,value,named",
        [
            ("network", {"M0": [1]}, "network"),
            ("network", {"M0": "ab"}, "network"),
            ("failure_model", {"mtbf": -1}, "failure_model.mttr"),
            ("failure_model", {"mttr": 5}, "failure_model.mtbf"),
            ("generator/duration", float("nan"), "generator.duration"),
            ("generator/duration", 1e12, "generator.duration"),
            ("seed", "abc", "seed"),
            ("seed", -1, "seed"),
            ("seed", 1.5, "seed"),
            ("eet/values/1", [20.0, 20.0], r"eet\.values"),
            ("eet/values/1/0", "x", r"eet\.values\[1\]\[0\]"),
            ("memory_capacities", {"M0": "x"}, r"memory_capacities\['M0'\]"),
            ("execution_model", "x", "execution_model"),
            ("eet/task_types/0/relative_deadline", "x", "relative_deadline"),
            ("drop_on_deadline", "no", "drop_on_deadline"),
            ("power_profiles", {"M0": {"idle": "x"}}, r"power_profiles\['M0'\].*idle"),
            ("power_profiles", {"M0": {"idel_watts": 5.0}}, "idel_watts"),
            ("colour", "blue", r"unknown keys \['colour'\]"),
            (
                "generator/specs",
                [{"name": "T1", "arrival": {"kind": "poisson", "rate": float("nan")}}],
                r"arrival\.rate",
            ),
            ("failure_model", {"mtbf": 1e-6, "mttr": 1e-6}, "fail and repair events"),
            (
                "failure_model",
                {"mtbf": 1e9, "mttr": 1e9, "per_machine_type": {"M0": [1e-6, 1e-6]}},
                "fail and repair events",
            ),
            ("generator/n_tasks", 40, r"generator.*'duration' or 'n_tasks', not both"),
            ("scheduler", "NOPE", "scheduler: unknown scheduler 'NOPE'"),
            ("scheduler_params", {"bogus": 1}, "scheduler: bad parameters"),
        ],
    )
    def test_malformed_field(self, field, value, named):
        data = mutated_preset("classroom_homogeneous", field, value)
        with pytest.raises(ConfigurationError, match=named):
            Scenario.from_dict(data)

    @pytest.mark.parametrize(
        "edit,named",
        [
            (
                lambda row: {k: v for k, v in row.items() if k != "arrival_time"},
                r"workload\.tasks\[1\]\.arrival_time",
            ),
            (lambda row: list(row.values()), r"workload\.tasks\[1\] must be a JSON object"),
            (lambda row: {**row, "arrival_time": "soon"}, r"workload\.tasks\[1\]\.arrival_time"),
            (lambda row: {**row, "task_id": "a"}, r"workload\.tasks\[1\]\.task_id"),
            (lambda row: {**row, "bogus": 1}, r"workload\.tasks\[1\] has unknown keys \['bogus'\]"),
        ],
        ids=["no_arrival_time", "list_row", "text_arrival_time", "text_task_id", "unknown_key"],
    )
    def test_malformed_task_row(self, edit, named):
        data = _explicit_workload_document()
        rows = data["workload"]["tasks"]
        rows[1] = edit(rows[1])
        with pytest.raises(ConfigurationError, match=named):
            Scenario.from_dict(data)

    def test_task_without_deadline_loads(self):
        # to_dict writes a task without a deadline as Infinity.
        data = _explicit_workload_document()
        data["workload"]["tasks"][-1]["deadline"] = float("inf")
        scenario = Scenario.from_dict(json.loads(json.dumps(data)))
        assert scenario.workload[-1].deadline == float("inf")
        assert scenario.run().summary.total_tasks == len(scenario.workload)

    def test_failure_storm_over_an_n_tasks_window(self):
        # The window of a count recipe is n_tasks / Σ calibrated rate.
        data = mutated_preset(
            "classroom_homogeneous", "generator", {"n_tasks": 50, "intensity": "medium"}
        )
        data["failure_model"] = {"mtbf": 1e-6, "mttr": 1e-6}
        with pytest.raises(ConfigurationError, match="fail and repair events"):
            Scenario.from_dict(data)
        data["failure_model"] = {"mtbf": 100.0, "mttr": 10.0}
        assert Scenario.from_dict(data).failure_model.mtbf == 100.0

    def test_failure_storm_over_an_explicit_workload(self):
        # The window of an explicit workload is first arrival to last deadline.
        data = _explicit_workload_document()
        data["failure_model"] = {"mtbf": 1e-6, "mttr": 1e-6}
        with pytest.raises(ConfigurationError, match="fail and repair events"):
            Scenario.from_dict(data)
        data["failure_model"] = {"mtbf": 100.0, "mttr": 10.0}
        assert len(Scenario.from_dict(data).workload) == len(data["workload"]["tasks"])

    def test_failure_storm_over_a_trace(self):
        # A trace's rows are read when its workload is built, so the load
        # check passes it, and the same window check refuses the storm
        # before any engine is built over the rows.
        from repro.scenarios import build_scenario

        data = json.loads(json.dumps(build_scenario("trace_replay").to_dict()))
        data["failure_model"] = {"mtbf": 1e-6, "mttr": 1e-6}
        stormy = Scenario.from_dict(data)
        for build in (stormy.build_workload, stormy.build_simulator, stormy.run):
            with pytest.raises(ConfigurationError, match="fail and repair events"):
                build()
        data["failure_model"] = {"mtbf": 100.0, "mttr": 10.0}
        calm = Scenario.from_dict(data)
        assert len(calm.build_workload()) == calm.run().summary.total_tasks > 0

    def test_failure_storm_window_ends_at_last_arrival_without_deadlines(self):
        # Infinite deadlines bound nothing: the window is the arrival span.
        from repro.machines.failures import FailureModel
        from repro.scenarios import build_scenario

        preset = build_scenario("classroom_homogeneous")
        workload = preset.build_workload()
        for task in workload:
            task.deadline = float("inf")
        span = workload[-1].arrival_time - workload[0].arrival_time
        built = replace(
            preset,
            generator=None,
            workload=workload,
            failure_model=FailureModel(mtbf=1e-6, mttr=1e-6),
        )
        with pytest.raises(ConfigurationError, match=f"over a {span:.3g} s workload"):
            built.check_recipe()
        replace(built, failure_model=FailureModel(mtbf=100.0, mttr=10.0)).check_recipe()

    @pytest.mark.parametrize(
        "preset,field,value,named",
        [
            ("geo_3site", "clusters/0/machine_counts/ams_big", 1.5,
             r"cluster 'ams'\.machine_counts\['ams_big'\]"),
            ("geo_3site", "clusters/0/machine_counts/ams_big", "two",
             r"cluster 'ams'\.machine_counts\['ams_big'\]"),
            ("geo_3site", "clusters/0/weight", "x", r"cluster 'ams'\.weight"),
            ("fed_rebalance", "migration/batch_max", 1.5, r"migration\.batch_max"),
            ("fed_rebalance", "migration/interval", "x", r"migration\.interval"),
            ("geo_3site", "gateway_params", [1], r"federation\.gateway_params"),
            ("geo_3site", "clusters/0/scheduler_params", [1],
             r"cluster 'ams'\.scheduler_params"),
            ("geo_3site", "clusters/0/scheduler_params", {"bogus": 1},
             r"cluster 'ams'\.scheduler_params need cluster 'ams'\.scheduler"),
            ("fed_rebalance", "migration/policy_params", [1],
             r"migration\.policy_params"),
            ("geo_3site", "clusters/0/colour", "blue", r"unknown keys \['colour'\]"),
            ("diurnal_wan", "topology/links/edge_a->cloud/cross_traffic/period", "abc",
             r"links\['edge_a->cloud'\]\.cross_traffic\.period"),
            ("diurnal_wan", "topology/links/edge_a->cloud/cross_traffic/period",
             float("nan"), r"links\['edge_a->cloud'\]\.cross_traffic\.period"),
            ("geo_3site", "clusters/0/scheduler", "NOPE",
             r"cluster 'ams'\.scheduler: unknown scheduler 'NOPE'"),
            ("geo_3site", "colour", "blue", r"unknown keys \['colour'\]"),
        ],
    )
    def test_malformed_federation_field(self, preset, field, value, named):
        data = mutated_preset(preset, f"federation/{field}", value)
        with pytest.raises(ConfigurationError, match=named):
            Scenario.from_dict(data)

    @pytest.mark.parametrize(
        "preset,field,value,named",
        [
            ("edge_cloud", "gateway", "bogus",
             r"federation\.gateway: unknown gateway policy 'bogus'"),
            ("edge_cloud", "gateway_params", {"bogus": 1},
             r"federation\.gateway_params: bad parameters for gateway policy"),
            ("fed_rebalance", "migration/policy", "NOPE",
             r"federation\.migration\.policy: unknown eviction policy 'NOPE'"),
            ("fed_rebalance", "migration/policy_params", {"bogus": 2},
             r"federation\.migration\.policy_params: bad parameters for eviction"),
            ("hier_3region", "gateway", "LEAST_LOADED",
             r"federation\.gateway: gateway 'LEAST_LOADED' does not support "
             r"hierarchical federations"),
        ],
        ids=[
            "gateway-unknown", "gateway-params", "eviction-unknown",
            "eviction-params", "flat-gateway-on-tree",
        ],
    )
    def test_bad_federation_policy_fails_at_load(self, preset, field, value, named):
        # Built once at load, like the schedulers: not first in a worker.
        data = mutated_preset(preset, f"federation/{field}", value)
        with pytest.raises(ConfigurationError, match=named):
            Scenario.from_dict(data)

    def test_cluster_scheduler_params_refused_by_the_policy(self):
        data = mutated_preset("geo_3site", "federation/clusters/0/scheduler", "MM")
        data["federation"]["clusters"][0]["scheduler_params"] = {"bogus": 1}
        with pytest.raises(
            ConfigurationError, match=r"cluster 'ams'\.scheduler: bad parameters"
        ):
            Scenario.from_dict(data)
        data["federation"]["clusters"][0]["scheduler_params"] = {}
        assert Scenario.from_dict(data).federation.clusters[0].scheduler == "MM"


class TestFromJsonRejects:
    """Text that is not a readable scenario document fails typed."""

    @pytest.mark.parametrize(
        "source,named",
        [
            ("no\x00such.json", "cannot read"),
            ('{"eet": ' + "[" * 100_000, "not valid JSON"),
            ('{"seed": 1' + "0" * 5000 + "}", "not valid JSON"),
        ],
        ids=["nul_in_path", "deep_nesting", "over_long_int"],
    )
    def test_unreadable_source(self, source, named):
        with pytest.raises(ConfigurationError, match=named):
            Scenario.from_json(source)


class TestRunRejects:
    """A bad queue capacity or machine count fails typed, naming its field."""

    @staticmethod
    def mutated(field, value, preset="classroom_homogeneous"):
        from repro.scenarios import build_scenario

        data = build_scenario(preset).to_dict()
        if field == "machine_counts":
            data[field][next(iter(data[field]))] = value
        else:
            data[field] = value
        return Scenario.from_dict(data)

    @pytest.mark.parametrize(
        "field,value,preset",
        [
            ("queue_capacity", "x", "classroom_homogeneous"),
            ("queue_capacity", float("nan"), "classroom_homogeneous"),
            ("queue_capacity", True, "classroom_homogeneous"),
            ("machine_counts", "two", "classroom_homogeneous"),
            ("machine_counts", 1.5, "classroom_homogeneous"),
            ("machine_counts", True, "classroom_homogeneous"),
            ("machine_counts", "two", "geo_3site"),
        ],
    )
    def test_malformed_field(self, field, value, preset):
        with pytest.raises(ConfigurationError, match=field):
            self.mutated(field, value, preset).run()

    @pytest.mark.parametrize("field", ["queue_capacity", "machine_counts"])
    def test_integral_float_accepted(self, field):
        assert self.mutated(field, 2.0).run().summary.total_tasks > 0


class TestDerivedScenarios:
    def test_with_scheduler(self, scenario_factory):
        derived = scenario_factory("MECT").with_scheduler("FCFS")
        assert derived.scheduler == "FCFS"
        assert derived.run().scheduler_name == "FCFS"


class TestFromCsvFiles:
    def test_fig2_workflow(self, tmp_path, eet_3x2, make_workload):
        from repro.tasks.trace_io import write_workload_csv

        eet_path = tmp_path / "eet.csv"
        eet_3x2.to_csv(eet_path)
        workload_path = tmp_path / "workload.csv"
        write_workload_csv(make_workload([(0, 0.0, 50.0)]), workload_path)
        scenario = Scenario.from_csv_files(
            eet_path, workload_path, scheduler="MECT"
        )
        result = scenario.run()
        assert result.summary.total_tasks == 1
        assert result.summary.completed == 1
