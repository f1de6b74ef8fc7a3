"""CLI: subcommand behaviour end-to-end (in-process)."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.machines.eet import EETMatrix


@pytest.fixture
def csv_files(tmp_path):
    eet = EETMatrix(
        np.array([[4.0, 10.0], [9.0, 3.0]]), ["T1", "T2"], ["M1", "M2"]
    )
    eet_path = tmp_path / "eet.csv"
    eet.to_csv(eet_path)
    workload_path = tmp_path / "workload.csv"
    workload_path.write_text(
        "task_id,task_type,arrival_time,deadline\n"
        "0,T1,0.0,50.0\n"
        "1,T2,1.0,51.0\n",
        encoding="utf-8",
    )
    return eet_path, workload_path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--version"])
        assert "e2c-sim" in capsys.readouterr().out


class TestRun:
    def test_run_with_csvs(self, csv_files, capsys):
        eet_path, workload_path = csv_files
        code = main(
            ["run", "--eet", str(eet_path), "--workload", str(workload_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Summary Report" in out
        assert "completion_rate" in out

    def test_run_task_report(self, csv_files, capsys):
        eet_path, workload_path = csv_files
        code = main(
            [
                "run",
                "--eet", str(eet_path),
                "--workload", str(workload_path),
                "--report", "task",
            ]
        )
        assert code == 0
        assert "Task Report" in capsys.readouterr().out

    def test_run_save_reports(self, csv_files, tmp_path, capsys):
        eet_path, workload_path = csv_files
        outdir = tmp_path / "reports"
        code = main(
            [
                "run",
                "--eet", str(eet_path),
                "--workload", str(workload_path),
                "--save-reports", str(outdir),
            ]
        )
        assert code == 0
        assert len(list(outdir.glob("*.csv"))) == 4

    def test_run_batch_policy_with_queue_size(self, csv_files, capsys):
        eet_path, workload_path = csv_files
        code = main(
            [
                "run",
                "--eet", str(eet_path),
                "--workload", str(workload_path),
                "--scheduler", "MM",
                "--queue-size", "2",
            ]
        )
        assert code == 0

    def test_run_animate(self, csv_files, capsys):
        eet_path, workload_path = csv_files
        code = main(
            [
                "run",
                "--eet", str(eet_path),
                "--workload", str(workload_path),
                "--animate",
                "--frame-every", "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "current time" in out

    def test_run_scenario_json(self, scenario_factory, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        scenario_factory("MM", queue_capacity=2).to_json(path)
        code = main(["run", "--scenario", str(path)])
        assert code == 0
        assert "Summary Report" in capsys.readouterr().out

    def test_run_missing_inputs_errors(self, capsys):
        code = main(["run"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_scheduler_reports_error(self, csv_files, capsys):
        eet_path, workload_path = csv_files
        code = main(
            [
                "run",
                "--eet", str(eet_path),
                "--workload", str(workload_path),
                "--scheduler", "WISHFUL",
            ]
        )
        assert code == 1
        assert "unknown scheduler" in capsys.readouterr().err


class TestRunPresets:
    def test_run_registered_preset_by_name(self, capsys):
        code = main(
            ["run", "--scenario", "classroom_homogeneous", "--seed", "1"]
        )
        assert code == 0
        assert "Summary Report" in capsys.readouterr().out

    def test_run_federated_preset_prints_per_cluster_and_global(self, capsys):
        code = main(["run", "--scenario", "edge_cloud", "--policy", "mect"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Federation Summary" in out
        assert "edge" in out and "cloud" in out
        assert "GLOBAL" in out
        assert "offloaded:" in out

    def test_run_federated_with_gateway_override(self, capsys):
        code = main(
            [
                "run",
                "--scenario", "edge_cloud",
                "--gateway", "locality-first",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "LOCALITY_FIRST" in out

    def test_run_federated_task_report(self, capsys):
        code = main(
            ["run", "--scenario", "edge_cloud", "--report", "task"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Federation Summary" in out
        assert "Task Report" in out

    def test_unknown_preset_reports_error(self, capsys):
        code = main(["run", "--scenario", "not_a_preset"])
        assert code == 1
        assert "unknown scenario" in capsys.readouterr().err

    def test_animate_rejected_for_federated(self, capsys):
        code = main(["run", "--scenario", "edge_cloud", "--animate"])
        assert code == 2
        assert "animate" in capsys.readouterr().err

    def test_run_with_migration_flag(self, capsys):
        code = main(
            [
                "run",
                "--scenario", "fed_rebalance",
                "--migration", "deadline-slack",
                "--migration-interval", "5",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "migrated > dst" in out

    def test_run_with_migration_off(self, capsys):
        code = main(
            ["run", "--scenario", "fed_rebalance", "--migration", "off"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "migrated > dst" not in out

    def test_migration_interval_requires_migration(self, capsys):
        code = main(
            ["run", "--scenario", "fed_rebalance", "--migration-interval", "5"]
        )
        assert code == 2
        assert "--migration" in capsys.readouterr().err

    def test_migration_interval_conflicts_with_off(self, capsys):
        code = main(
            [
                "run",
                "--scenario", "fed_rebalance",
                "--migration", "off",
                "--migration-interval", "5",
            ]
        )
        assert code == 2
        assert "conflicts" in capsys.readouterr().err

    def test_migration_rejected_for_single_cluster(self, capsys):
        code = main(
            [
                "run",
                "--scenario", "satellite_imaging",
                "--migration", "LONGEST_WAIT",
            ]
        )
        assert code == 1
        assert "federated" in capsys.readouterr().err


class TestGenerate:
    def test_generate_workload(self, csv_files, tmp_path, capsys):
        eet_path, _ = csv_files
        out = tmp_path / "generated.csv"
        code = main(
            [
                "generate",
                "--eet", str(eet_path),
                "--out", str(out),
                "--duration", "200",
                "--seed", "3",
            ]
        )
        assert code == 0
        text = out.read_text(encoding="utf-8")
        assert text.startswith("task_id,task_type,arrival_time,deadline")
        assert len(text.splitlines()) > 2

    def test_generate_numeric_intensity(self, csv_files, tmp_path):
        eet_path, _ = csv_files
        out = tmp_path / "generated.csv"
        code = main(
            [
                "generate",
                "--eet", str(eet_path),
                "--out", str(out),
                "--intensity", "1.5",
                "--seed", "3",
            ]
        )
        assert code == 0


class TestOtherCommands:
    def test_schedulers_listing(self, capsys):
        assert main(["schedulers"]) == 0
        out = capsys.readouterr().out
        assert "MECT" in out and "MM" in out
        assert "gateway policies" in out
        assert "LEAST_LOADED" in out
        assert "ADAPTIVE" in out
        assert "eviction policies" in out
        assert "LONGEST_WAIT" in out

    def test_schedulers_listing_shows_constructor_params(self, capsys):
        # The listing doubles as the reference for what gateway_params /
        # scheduler_params / policy_params accept: every parameterised
        # policy row carries its constructor kwargs with defaults.
        assert main(["schedulers"]) == 0
        out = capsys.readouterr().out
        assert "(k=50.0)" in out  # KPB scheduler
        assert "(threshold=2.0)" in out  # LOCALITY_FIRST gateway
        assert "epsilon=0.1" in out and "seed=0" in out  # ADAPTIVE
        assert "strategy='epsilon'" in out
        assert "(margin=1.5)" in out  # DEADLINE_SLACK eviction

    def test_scenarios_listing_includes_federated_presets(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("edge_cloud", "geo_3site", "fed_heavytail"):
            assert name in out

    def test_scenarios_listing_is_registry_generated(self, capsys):
        # The listing is rendered from scenario_summaries(), the same
        # single source of truth the README preset table doctests — every
        # registered preset must appear, with its factory's first doc line.
        from repro.scenarios import scenario_summaries

        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name, summary in scenario_summaries():
            assert name in out
            if summary:
                assert summary in out

    def test_schedulers_mode_filter(self, capsys):
        assert main(["schedulers", "--mode", "batch"]) == 0
        out = capsys.readouterr().out
        assert "MM" in out
        assert "FCFS" not in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "CloudSim" in capsys.readouterr().out

    def test_quiz(self, capsys):
        assert main(["quiz", "--seed", "1"]) == 0
        assert "Scheduling quiz" in capsys.readouterr().out

    def test_quiz_with_key(self, capsys):
        assert main(["quiz", "--seed", "1", "--key"]) == 0
        out = capsys.readouterr().out
        assert "Answer key" in out
        assert "MECT" in out

    def test_assignment_single_figure(self, capsys):
        code = main(
            [
                "assignment",
                "--figure", "5",
                "--replications", "1",
                "--duration", "100",
            ]
        )
        assert code == 0
        assert "Fig 5" in capsys.readouterr().out


class TestScenariosCommand:
    def test_lists_registered_presets(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("satellite_imaging", "edge_ai", "classroom_homogeneous"):
            assert name in out


class TestSweep:
    def test_inline_grid(self, capsys):
        code = main(
            [
                "sweep",
                "--scenarios", "classroom_homogeneous",
                "--schedulers", "FCFS,MECT",
                "--seeds", "1",
                "--serial",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "1 scenario(s) x 2 scheduler(s) x 1 seed(s)" in out
        assert "FCFS" in out and "MECT" in out

    def test_requires_spec_or_inline_grid(self, capsys):
        assert main(["sweep"]) == 2
        assert "--spec" in capsys.readouterr().err

    def test_spec_and_inline_are_exclusive(self, tmp_path, capsys):
        spec_path = tmp_path / "c.json"
        spec_path.write_text("{}", encoding="utf-8")
        code = main(
            [
                "sweep",
                "--spec", str(spec_path),
                "--scenarios", "edge_ai",
                "--schedulers", "FCFS",
            ]
        )
        assert code == 2
        # --seeds/--seed alongside --spec must not be silently ignored
        assert main(["sweep", "--spec", str(spec_path), "--seeds", "1"]) == 2
        assert main(["sweep", "--spec", str(spec_path), "--seed", "7"]) == 2

    def test_bad_seeds_are_a_clean_error(self, capsys):
        code = main(
            [
                "sweep",
                "--scenarios", "classroom_homogeneous",
                "--schedulers", "FCFS",
                "--seeds", "abc",
            ]
        )
        assert code == 2
        assert "comma-separated integers" in capsys.readouterr().err

    def test_json_spec_round_trip(self, tmp_path, capsys):
        """--save-spec output reloads via --spec and reproduces the table."""
        from repro.experiments import CampaignSpec

        CampaignSpec(
            scenarios=[
                {"name": "classroom_homogeneous",
                 "overrides": {"duration": 60.0}},
            ],
            schedulers=["FCFS", "MECT"],
            seeds=[1, 2],
            seed=5,
        ).to_json(tmp_path / "campaign.json")

        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        assert main(
            [
                "sweep",
                "--spec", str(tmp_path / "campaign.json"),
                "--serial",
                "--save-table", str(first),
                "--save-spec", str(tmp_path / "resaved.json"),
            ]
        ) == 0
        assert main(
            [
                "sweep",
                "--spec", str(tmp_path / "resaved.json"),
                "--serial",
                "--save-table", str(second),
            ]
        ) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()


class TestTournament:
    ARGS = [
        "tournament",
        "--presets", "fed_rebalance",
        "--gateways", "LEAST_LOADED,LOCALITY_FIRST",
        "--evictions", "LONGEST_WAIT",
        "--repetitions", "1",
        "--seed", "7",
    ]

    def test_prints_ranked_leaderboard(self, capsys):
        assert main([*self.ARGS, "--serial"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("rank")
        assert "LEAST_LOADED" in out and "LOCALITY_FIRST" in out
        assert "completion_rate" in out

    def test_out_json_is_worker_count_invariant(self, tmp_path, capsys):
        import json

        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        table = tmp_path / "table.csv"
        assert main(
            [*self.ARGS, "--serial", "--out", str(serial)]
        ) == 0
        assert main(
            [
                *self.ARGS,
                "--workers", "2",
                "--out", str(parallel),
                "--save-table", str(table),
            ]
        ) == 0
        capsys.readouterr()
        assert serial.read_bytes() == parallel.read_bytes()
        board = json.loads(serial.read_text())
        assert board["kind"] == "tournament-leaderboard"
        assert [e["rank"] for e in board["entries"]] == [1, 2]
        assert table.read_text().startswith("scenario,scheduler,seed")

    def test_unknown_gateway_is_a_clean_error(self, capsys):
        code = main(
            [
                "tournament",
                "--presets", "fed_rebalance",
                "--gateways", "NO_SUCH_GATEWAY",
                "--serial",
            ]
        )
        assert code == 1
        assert "NO_SUCH_GATEWAY" in capsys.readouterr().err


class TestService:
    """The spool transport: submit -> serve -> status/result, in-process."""

    SPEC = '{"preset": "classroom_homogeneous", "overrides": {"duration": 40.0}}'

    def _serve_once(self, root):
        return main(
            [
                "serve",
                "--dir", str(root),
                "--workers", "1",
                "--max-jobs", "1",
                "--idle-exit", "2",
                "--poll", "0.05",
            ]
        )

    def test_spool_round_trip(self, tmp_path, capsys):
        import json

        root = tmp_path / "svc"
        assert main(["submit", "--dir", str(root), self.SPEC]) == 0
        assert "submitted" in capsys.readouterr().out

        assert self._serve_once(root) == 0
        out = capsys.readouterr().out
        assert "job-000001" in out
        assert "--max-jobs" in out

        receipts = list((root / "receipts").glob("sub-*.json"))
        assert len(receipts) == 1
        receipt = json.loads(receipts[0].read_text(encoding="utf-8"))
        assert receipt["kind"] == "scenario"
        assert receipt["cached"] is False
        job_id = receipt["job_id"]

        assert main(["submit", "--dir", str(root), "--status", job_id]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["state"] == "done"
        assert status["key"] == receipt["key"]
        assert "result" not in status and "request" not in status

        assert main(["submit", "--dir", str(root), "--result", job_id]) == 0
        out = capsys.readouterr().out
        assert "summary" in out
        assert "completion_rate" in out

    def test_second_serve_session_hits_the_cache(self, tmp_path, capsys):
        import json

        root = tmp_path / "svc"
        assert main(["submit", "--dir", str(root), self.SPEC]) == 0
        assert self._serve_once(root) == 0
        capsys.readouterr()

        # Same spec, fresh server process: served from the on-disk cache.
        assert main(["submit", "--dir", str(root), self.SPEC]) == 0
        assert self._serve_once(root) == 0
        assert "cache hit" in capsys.readouterr().out
        receipts = sorted((root / "receipts").glob("sub-*.json"))
        cached = [
            json.loads(p.read_text(encoding="utf-8"))["cached"]
            for p in receipts
        ]
        assert sorted(cached) == [False, True]

    def test_rejected_submission_writes_error_receipt(self, tmp_path, capsys):
        import json

        root = tmp_path / "svc"
        assert main(["submit", "--dir", str(root), '{"frobnicate": 1}']) == 0
        code = main(
            [
                "serve",
                "--dir", str(root),
                "--workers", "1",
                "--idle-exit", "0.5",
                "--poll", "0.05",
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "rejected" in err
        receipts = list((root / "receipts").glob("sub-*.json"))
        assert len(receipts) == 1
        body = json.loads(receipts[0].read_text(encoding="utf-8"))
        assert "cannot classify" in body["error"]

    def test_submit_requires_spec_or_query(self, tmp_path, capsys):
        assert main(["submit", "--dir", str(tmp_path / "svc")]) == 2
        assert "provide a spec" in capsys.readouterr().err

    def test_submit_rejects_spec_plus_query(self, tmp_path, capsys):
        code = main(
            ["submit", "--dir", str(tmp_path / "svc"), "--status",
             "job-000001", self.SPEC]
        )
        assert code == 2
        assert "do not take a spec" in capsys.readouterr().err

    def test_status_of_unknown_job(self, tmp_path, capsys):
        code = main(
            ["submit", "--dir", str(tmp_path / "svc"), "--status", "job-9"]
        )
        assert code == 1
        assert "no such job" in capsys.readouterr().err

    def test_wait_without_server_times_out(self, tmp_path, capsys):
        code = main(
            ["submit", "--dir", str(tmp_path / "svc"), self.SPEC,
             "--wait", "0.3"]
        )
        assert code == 1
        assert "no receipt" in capsys.readouterr().err

    def test_bare_word_spec_is_a_preset_reference(self, tmp_path, capsys):
        import json

        root = tmp_path / "svc"
        assert main(["submit", "--dir", str(root), "classroom_homogeneous"]) == 0
        capsys.readouterr()
        submitted = list((root / "inbox").glob("sub-*.json"))
        assert len(submitted) == 1
        body = json.loads(submitted[0].read_text(encoding="utf-8"))
        assert body == {"preset": "classroom_homogeneous"}


class TestTrace:
    SAMPLE = "data:google_cluster_sample.csv"
    MAPPING = "arrival_time=submit_time_us,task_id=job_id"

    def test_inspect_bundled_sample(self, capsys):
        code = main(
            [
                "trace", "inspect", self.SAMPLE,
                "--columns", self.MAPPING,
                "--time-unit", "1e-6",
                "--bin-column", "cpu_request",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "rows     420" in out
        assert "cpu_request" in out
        assert "quartiles" in out

    def test_convert_writes_canonical_workload(self, csv_files, tmp_path, capsys):
        eet_path, _ = csv_files
        out_path = tmp_path / "converted.csv"
        code = main(
            [
                "trace", "convert", self.SAMPLE,
                "--columns", self.MAPPING,
                "--time-unit", "1e-6",
                "--bin-column", "cpu_request",
                "--deadline", "60",
                "--sample", "0.5",
                "--seed", "7",
                "--eet", str(eet_path),
                "--out", str(out_path),
            ]
        )
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        header = out_path.read_text(encoding="utf-8").splitlines()[0]
        assert header.startswith("task_id,task_type,arrival_time,deadline")
        assert "source_id" in header

    def test_convert_is_deterministic(self, csv_files, tmp_path, capsys):
        eet_path, _ = csv_files
        texts = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            assert main(
                [
                    "trace", "convert", self.SAMPLE,
                    "--columns", self.MAPPING,
                    "--time-unit", "1e-6",
                    "--bin-column", "cpu_request",
                    "--deadline", "60",
                    "--sample", "0.5",
                    "--seed", "7",
                    "--eet", str(eet_path),
                    "--out", str(path),
                ]
            ) == 0
            texts.append(path.read_text(encoding="utf-8"))
        assert texts[0] == texts[1]

    def test_replay_preset_summary(self, capsys):
        code = main(["trace", "replay", "--scenario", "trace_replay"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Summary Report" in out
        assert "total_tasks               420" in out

    def test_replay_rejects_non_trace_scenario(self, capsys):
        code = main(["trace", "replay", "--scenario", "classroom_homogeneous"])
        assert code == 2
        assert "not trace-driven" in capsys.readouterr().err

    def test_bad_columns_flag_is_clean_error(self, capsys):
        code = main(
            ["trace", "inspect", self.SAMPLE, "--columns", "nonsense"]
        )
        assert code == 1
        assert "ROLE=COL" in capsys.readouterr().err

    def test_bad_window_flag_is_clean_error(self, capsys):
        code = main(
            ["trace", "inspect", self.SAMPLE, "--window", "oops"]
        )
        assert code == 1
        assert "START:END" in capsys.readouterr().err
