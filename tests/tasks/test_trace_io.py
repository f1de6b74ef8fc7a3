"""Workload CSV round-trips and error handling (Fig-2 file formats)."""

import io

import pytest

from repro.core.errors import ConfigurationError, WorkloadError
from repro.tasks.task_type import TaskType
from repro.tasks.trace_io import (
    TraceSpec,
    read_workload_csv,
    resolve_trace_path,
    workload_from_rows,
    write_workload_csv,
)

CSV_BASIC = """task_id,task_type,arrival_time,deadline
0,T1,0.0,10.0
1,T2,1.5,21.5
2,T1,3.0,13.0
"""

CSV_NO_DEADLINE = """task_id,task_type,arrival_time
0,T1,0.0
1,T2,2.0
"""


class TestRead:
    def test_basic_parse(self):
        w = read_workload_csv(io.StringIO(CSV_BASIC))
        assert len(w) == 3
        assert w[0].task_type.name == "T1"
        assert w[1].deadline == 21.5

    def test_types_inferred_in_first_appearance_order(self):
        w = read_workload_csv(io.StringIO(CSV_BASIC))
        assert [t.name for t in w.task_types] == ["T1", "T2"]
        assert [t.index for t in w.task_types] == [0, 1]

    def test_explicit_task_types_respected(self):
        types = [TaskType("T1", 0), TaskType("T2", 1), TaskType("T3", 2)]
        w = read_workload_csv(io.StringIO(CSV_BASIC), task_types=types)
        assert len(w.task_types) == 3

    def test_unknown_type_with_explicit_universe_rejected(self):
        types = [TaskType("T1", 0)]
        with pytest.raises(WorkloadError):
            read_workload_csv(io.StringIO(CSV_BASIC), task_types=types)

    def test_missing_deadline_uses_default(self):
        w = read_workload_csv(
            io.StringIO(CSV_NO_DEADLINE), default_relative_deadline=5.0
        )
        assert w[0].deadline == 5.0
        assert w[1].deadline == 7.0

    def test_missing_deadline_uses_type_relative(self):
        types = [
            TaskType("T1", 0, relative_deadline=3.0),
            TaskType("T2", 1, relative_deadline=4.0),
        ]
        w = read_workload_csv(io.StringIO(CSV_NO_DEADLINE), task_types=types)
        assert w[0].deadline == 3.0
        assert w[1].deadline == 6.0

    def test_missing_deadline_without_fallback_rejected(self):
        with pytest.raises(WorkloadError):
            read_workload_csv(io.StringIO(CSV_NO_DEADLINE))

    def test_empty_file_rejected(self):
        with pytest.raises(WorkloadError):
            read_workload_csv(io.StringIO(""))

    def test_missing_columns_rejected(self):
        with pytest.raises(WorkloadError):
            read_workload_csv(io.StringIO("task_id,when\n0,1.0\n"))

    def test_bad_number_reports_line(self):
        bad = "task_id,task_type,arrival_time,deadline\n0,T1,abc,1.0\n"
        with pytest.raises(WorkloadError, match="line 2"):
            read_workload_csv(io.StringIO(bad))

    def test_from_path(self, tmp_path):
        path = tmp_path / "workload.csv"
        path.write_text(CSV_BASIC, encoding="utf-8")
        assert len(read_workload_csv(path)) == 3


class TestWrite:
    def test_round_trip(self):
        original = read_workload_csv(io.StringIO(CSV_BASIC))
        text = write_workload_csv(original)
        again = read_workload_csv(io.StringIO(text))
        assert [
            (t.id, t.task_type.name, t.arrival_time, t.deadline)
            for t in again
        ] == [
            (t.id, t.task_type.name, t.arrival_time, t.deadline)
            for t in original
        ]

    def test_write_to_path(self, tmp_path):
        original = read_workload_csv(io.StringIO(CSV_BASIC))
        path = tmp_path / "out.csv"
        write_workload_csv(original, path)
        assert path.read_text(encoding="utf-8").startswith("task_id,")

    def test_write_to_stream(self):
        original = read_workload_csv(io.StringIO(CSV_BASIC))
        buf = io.StringIO()
        write_workload_csv(original, buf)
        assert buf.getvalue().count("\n") == 4  # header + 3 rows


class TestWorkloadFromRows:
    def test_rows_to_workload(self):
        rows = [
            {"task_id": 0, "task_type": "A", "arrival_time": 0.0, "deadline": 5.0},
            {"task_id": 1, "task_type": "B", "arrival_time": 1.0, "deadline": 6.0},
        ]
        w = workload_from_rows(rows)
        assert len(w) == 2
        assert [t.name for t in w.task_types] == ["A", "B"]


CSV_EXTRAS = """task_id,task_type,arrival_time,deadline,priority,user
0,T1,0,10,high,alice
1,T2,1.5,21.5,low,bob
"""


class TestExtras:
    def test_extra_columns_parsed_into_extras(self):
        w = read_workload_csv(io.StringIO(CSV_EXTRAS))
        assert w[0].extras == (("priority", "high"), ("user", "alice"))
        assert w[1].extras == (("priority", "low"), ("user", "bob"))

    def test_round_trip_preserves_extra_columns(self):
        text = write_workload_csv(read_workload_csv(io.StringIO(CSV_EXTRAS)))
        assert text == CSV_EXTRAS

    def test_extras_survive_fresh_copy(self):
        w = read_workload_csv(io.StringIO(CSV_EXTRAS))
        assert w.fresh_copy()[0].extras == w[0].extras

    def test_missing_deadline_error_names_task_and_line(self):
        with pytest.raises(
            WorkloadError, match=r"task 0 \(CSV line 2\): no deadline"
        ):
            read_workload_csv(io.StringIO(CSV_NO_DEADLINE))

    def test_extras_accepted_as_mapping(self):
        rows = [
            {
                "task_id": 0,
                "task_type": "A",
                "arrival_time": 0.0,
                "deadline": 5.0,
                "extras": {"priority": "high"},
            }
        ]
        w = workload_from_rows(rows)
        assert w[0].extras == (("priority", "high"),)


TRACE_CSV = """job_id,submit_us,cpus,klass
j1,1000000,0.1,T1
j2,3000000,0.4,T2
j3,2000000,0.2,T1
j4,9000000,0.8,T2
"""


def _trace_eet():
    import numpy as np

    from repro.machines.eet import EETMatrix

    return EETMatrix(
        np.array([[2.0, 1.0], [8.0, 4.0]]),
        [
            TaskType("T1", 0, relative_deadline=10.0),
            TaskType("T2", 1, relative_deadline=20.0),
        ],
        ["CPU", "GPU"],
    )


class TestTraceSpec:
    def _spec(self, tmp_path, **overrides):
        path = tmp_path / "trace.csv"
        path.write_text(TRACE_CSV, encoding="utf-8")
        options = {
            "path": str(path),
            "columns": {
                "task_id": "job_id",
                "arrival_time": "submit_us",
                "task_type": "klass",
            },
            "time_unit": 1e-6,
        }
        options.update(overrides)
        return TraceSpec(**options)

    def test_basic_import_rebases_and_sorts(self, tmp_path):
        w = self._spec(tmp_path).build_workload(_trace_eet())
        assert [t.arrival_time for t in w] == [0.0, 1.0, 2.0, 8.0]
        assert [t.id for t in w] == [0, 1, 2, 3]
        assert [t.task_type.name for t in w] == ["T1", "T1", "T2", "T2"]

    def test_source_ids_and_unconsumed_columns_become_extras(self, tmp_path):
        w = self._spec(tmp_path).build_workload(_trace_eet())
        assert w[0].extras == (("source_id", "j1"), ("cpus", "0.1"))

    def test_deadline_synthesis_uses_slack_factor(self, tmp_path):
        w = self._spec(tmp_path, slack_factor=2.0).build_workload(_trace_eet())
        assert w[0].deadline == 0.0 + 2.0 * 10.0
        assert w[2].deadline == 2.0 + 2.0 * 20.0

    def test_window_filters_and_reshifts(self, tmp_path):
        spec = self._spec(tmp_path, window=(1.0, 5.0))
        w = spec.build_workload(_trace_eet())
        assert [t.arrival_time for t in w] == [0.0, 1.0]
        assert [t.extras[0][1] for t in w] == ["j3", "j2"]

    def test_time_scale_compresses(self, tmp_path):
        w = self._spec(tmp_path, time_scale=0.5).build_workload(_trace_eet())
        assert [t.arrival_time for t in w] == [0.0, 0.5, 1.0, 4.0]

    def test_quantile_binning_orders_types_by_mean_eet(self, tmp_path):
        spec = self._spec(
            tmp_path,
            columns={"task_id": "job_id", "arrival_time": "submit_us"},
            bin_column="cpus",
        )
        w = spec.build_workload(_trace_eet())
        # T1 (mean EET 1.5) is lighter than T2 (mean 6): the two smallest
        # cpu requests land on T1, the two largest on T2.
        assert [t.task_type.name for t in w] == ["T1", "T1", "T2", "T2"]

    def test_no_type_column_and_no_bin_column_rejected(self, tmp_path):
        spec = self._spec(
            tmp_path,
            columns={"task_id": "job_id", "arrival_time": "submit_us"},
        )
        with pytest.raises(WorkloadError, match="bin_column"):
            spec.build_workload(_trace_eet())

    def test_unknown_type_names_line(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "submit_us,klass\n1000000,T1\n2000000,mystery\n", encoding="utf-8"
        )
        spec = TraceSpec(
            path=str(path),
            columns={"arrival_time": "submit_us", "task_type": "klass"},
            time_unit=1e-6,
        )
        with pytest.raises(WorkloadError, match="line 3.*mystery"):
            spec.build_workload(_trace_eet())

    def test_sampling_is_deterministic_per_replication(self, tmp_path):
        spec = self._spec(tmp_path, sample=0.5)
        first = spec.build_workload(_trace_eet(), seed=11, replication=0)
        again = spec.build_workload(_trace_eet(), seed=11, replication=0)
        assert [t.extras[0][1] for t in first] == [
            t.extras[0][1] for t in again
        ]

    def test_max_tasks_truncates(self, tmp_path):
        spec = self._spec(tmp_path, max_tasks=2)
        w = spec.build_workload(_trace_eet())
        assert len(w) == 2
        assert [t.id for t in w] == [0, 1]

    def test_dict_round_trip(self, tmp_path):
        spec = self._spec(
            tmp_path, sample=0.25, window=(0.5, 9.0), bin_column="cpus"
        )
        assert TraceSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError, match="unknown keys"):
            TraceSpec.from_dict({"path": "x.csv", "subsample": 0.5})

    def test_unknown_column_role_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown roles"):
            TraceSpec(path="x.csv", columns={"arrival": "submit_us"})

    def test_invalid_window_rejected(self):
        with pytest.raises(ConfigurationError, match="window"):
            TraceSpec(path="x.csv", window=(5.0, 5.0))

    def test_missing_file_reports_path(self):
        with pytest.raises(WorkloadError, match="no_such_trace.csv"):
            TraceSpec(path="no_such_trace.csv").build_workload(_trace_eet())

    def test_data_scheme_resolves_to_bundled_sample(self):
        path = resolve_trace_path("data:google_cluster_sample.csv")
        assert path.name == "google_cluster_sample.csv"
        assert path.exists()

    def test_describe_reports_span_and_quartiles(self, tmp_path):
        spec = self._spec(tmp_path, bin_column="cpus")
        info = spec.describe()
        assert info["rows"] == 4
        assert info["arrival_min"] == 1.0
        assert info["arrival_max"] == 9.0
        assert info["type_counts"] == {"T1": 2, "T2": 2}
        assert info["bin_quartiles"][0] == 0.1
        assert info["bin_quartiles"][-1] == 0.8
