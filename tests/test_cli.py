"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.cluster.base import EXECUTOR_NAMES
from repro.datasets.synthetic import drifting_series
from repro.service import ExplanationService
from tests.conftest import make_failed_pair


@pytest.fixture
def sample_files(tmp_path, rng):
    reference, test = make_failed_pair(rng, 300, 250, shift_fraction=0.15)
    ref_path = tmp_path / "reference.csv"
    test_path = tmp_path / "test.csv"
    ref_path.write_text("\n".join(str(v) for v in reference) + "\n")
    test_path.write_text("\n".join(str(v) for v in test) + "\n")
    return str(ref_path), str(test_path)


@pytest.fixture
def passing_files(tmp_path, rng):
    sample = rng.normal(size=200)
    ref_path = tmp_path / "ref_pass.csv"
    test_path = tmp_path / "test_pass.csv"
    ref_path.write_text("\n".join(str(v) for v in sample) + "\n")
    test_path.write_text("\n".join(str(v) for v in sample) + "\n")
    return str(ref_path), str(test_path)


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_explain_defaults(self):
        args = build_parser().parse_args(["explain", "r.csv", "t.csv"])
        assert args.method == "moche"
        assert args.alpha == 0.05
        assert args.preference == "spectral-residual"

    def test_unknown_method_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explain", "r.csv", "t.csv", "--method", "nope"])


class TestTestCommand:
    def test_failed_test_returns_one(self, sample_files, capsys):
        code = main(["test", *sample_files])
        assert code == 1
        assert "FAILED" in capsys.readouterr().out

    def test_passing_test_returns_zero(self, passing_files, capsys):
        code = main(["test", *passing_files])
        assert code == 0
        assert "passed" in capsys.readouterr().out


class TestExplainCommand:
    def test_explain_prints_report_and_writes_json(self, sample_files, tmp_path, capsys):
        output = tmp_path / "explanation.json"
        code = main([
            "explain", *sample_files,
            "--preference", "values-desc",
            "--output", str(output),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Counterfactual explanation (moche)" in out
        payload = json.loads(output.read_text())
        assert payload["reverses_test"] is True
        assert payload["method"] == "moche"

    def test_explain_with_baseline_method(self, sample_files, capsys):
        code = main(["explain", *sample_files, "--method", "greedy",
                     "--preference", "values-desc"])
        assert code == 0
        assert "greedy" in capsys.readouterr().out

    def test_explain_with_scores_file(self, sample_files, tmp_path, capsys):
        _, test_path = sample_files
        values = [float(line) for line in open(test_path).read().split()]
        scores_path = tmp_path / "scores.csv"
        scores_path.write_text("\n".join(str(v) for v in values) + "\n")
        code = main(["explain", *sample_files, "--preference-scores", str(scores_path)])
        assert code == 0

    def test_explain_passing_pair_reports_error(self, passing_files, capsys):
        code = main(["explain", *passing_files])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_explain_missing_file_reports_error(self, tmp_path, capsys):
        code = main(["explain", str(tmp_path / "a.csv"), str(tmp_path / "b.csv")])
        assert code == 3


class TestMonitorCommand:
    def test_monitor_prints_alarms(self, tmp_path, capsys):
        values, _ = drifting_series(length=1200, drift_start=600, drift_magnitude=3.0, seed=5)
        series_path = tmp_path / "series.csv"
        series_path.write_text("\n".join(str(v) for v in values) + "\n")
        code = main(["monitor", str(series_path), "--window", "150"])
        assert code == 0
        out = capsys.readouterr().out
        assert "drift alarm" in out
        assert "observations processed" in out


class TestServeCommand:
    @pytest.fixture
    def fleet_files(self, tmp_path):
        paths = []
        for index, seed in enumerate([5, 5, 9]):
            values, _ = drifting_series(
                length=1200, drift_start=600, drift_magnitude=3.0, seed=seed
            )
            path = tmp_path / f"sensor{index}.csv"
            path.write_text("\n".join(str(v) for v in values) + "\n")
            paths.append(str(path))
        return paths

    def test_serve_replays_fleet_and_reports(self, fleet_files, capsys):
        code = main(["serve", *fleet_files, "--window", "150"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Explanation service report" in out
        assert "drift alarm at observation" in out
        assert "sensor0" in out and "sensor1" in out and "sensor2" in out

    def test_serve_writes_json_report(self, fleet_files, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main([
            "serve", *fleet_files,
            "--window", "150",
            "--summary-only",
            "--output", str(report_path),
        ])
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert payload["totals"]["streams"] == 3
        assert payload["totals"]["alarms_raised"] >= 3
        assert payload["totals"]["cache_hit_rate"] > 0

    def test_serve_with_incremental_detector(self, fleet_files, capsys):
        code = main([
            "serve", fleet_files[0],
            "--window", "150",
            "--detector", "incremental",
        ])
        assert code == 0
        assert "alarms raised" in capsys.readouterr().out

    def test_serve_duplicate_file_names_get_unique_streams(self, fleet_files, capsys):
        code = main(["serve", fleet_files[0], fleet_files[0],
                     "--window", "150", "--summary-only"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sensor0" in out and "sensor0-2" in out

    def test_serve_on_process_shards(self, fleet_files, capsys):
        code = main([
            "serve", *fleet_files,
            "--window", "150",
            "--executor", "process",
            "--shards", "2",
            "--summary-only",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "alarms raised" in out
        assert "sensor0" in out and "sensor2" in out

    def test_serve_inline_executor(self, fleet_files, capsys):
        code = main(["serve", fleet_files[0], "--window", "150",
                     "--executor", "inline", "--summary-only"])
        assert code == 0
        assert "alarms raised" in capsys.readouterr().out

    def test_inline_is_the_default_executor(self, fleet_files):
        assert EXECUTOR_NAMES == ("inline", "process")
        for command in ("serve", "trace"):
            assert build_parser().parse_args([command, fleet_files[0]]).executor == "inline"
        with ExplanationService() as service:
            assert service.executor.name == "inline"

    def test_serve_rejects_unknown_executor(self, fleet_files):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", fleet_files[0], "--executor", "nope"])

    def test_serve_rejects_mismatched_backend_flags(self, fleet_files, capsys):
        # --shards without the process executor is a configuration mistake,
        # not something to ignore silently.
        code = main(["serve", fleet_files[0], "--shards", "4"])
        assert code == 3
        assert "--shards requires --executor process" in capsys.readouterr().err
        code = main(["serve", fleet_files[0], "--queue-capacity", "8"])
        assert code == 3
        assert "--queue-capacity requires --executor process" in capsys.readouterr().err

    def test_serve_elastic_shards(self, fleet_files, capsys):
        code = main([
            "serve", *fleet_files,
            "--window", "150",
            "--executor", "process",
            "--min-shards", "1",
            "--max-shards", "2",
            "--summary-only",
        ])
        assert code == 0
        assert "alarms raised" in capsys.readouterr().out

    def test_serve_rejects_mismatched_elastic_flags(self, fleet_files, capsys):
        # Half an autoscaling band is a configuration mistake.
        code = main(["serve", fleet_files[0], "--executor", "process",
                     "--min-shards", "1"])
        assert code == 3
        assert "--min-shards and --max-shards" in capsys.readouterr().err
        # ... and the band only means something on the process executor.
        code = main(["serve", fleet_files[0],
                     "--min-shards", "1", "--max-shards", "2"])
        assert code == 3
        assert "--executor process" in capsys.readouterr().err
        # An explicit --shards outside the band is rejected, not clamped.
        code = main(["serve", fleet_files[0], "--executor", "process",
                     "--shards", "8", "--min-shards", "1", "--max-shards", "2"])
        assert code == 3
        assert "outside the autoscaling band" in capsys.readouterr().err

    def test_serve_missing_file_reports_error(self, tmp_path, capsys):
        code = main(["serve", str(tmp_path / "missing.csv")])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag",
        [
            "--workers",
            "--max-batch",
            "--policy",
            "--transport",
            "--frame-size",
            "--migration-buffer",
        ],
    )
    def test_serve_rejects_removed_flags(self, fleet_files, flag):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", fleet_files[0], flag, "1"])

    def test_serve_requires_series_or_listen(self, capsys):
        code = main(["serve"])
        assert code == 3
        assert "--listen" in capsys.readouterr().err

    def test_serve_rejects_series_with_listen(self, fleet_files, capsys):
        code = main(["serve", fleet_files[0], "--listen", "127.0.0.1:0"])
        assert code == 3
        assert "--listen" in capsys.readouterr().err

    def test_serve_rejects_malformed_listen_address(self, capsys):
        code = main(["serve", "--listen", "no-port-here"])
        assert code == 3
        assert "HOST:PORT" in capsys.readouterr().err
        code = main(["serve", "--listen", "127.0.0.1:notaport"])
        assert code == 3
        assert "port" in capsys.readouterr().err

    def test_serve_rejects_mismatched_snapshot_cadence_flags(self, tmp_path, capsys):
        # Round-based cadence is a replay concept; listen mode is timed.
        code = main(["serve", "--listen", "127.0.0.1:0",
                     "--snapshot-dir", str(tmp_path), "--snapshot-every", "2"])
        assert code == 3
        assert "--snapshot-interval" in capsys.readouterr().err
        # ... and the timed cadence needs listen mode plus a directory.
        code = main(["serve", "--listen", "127.0.0.1:0",
                     "--snapshot-interval", "5"])
        assert code == 3
        assert "--snapshot-dir" in capsys.readouterr().err


class TestExperimentsCommand:
    def test_single_experiment_runs(self, capsys):
        code = main(["experiments", "--only", "table1"])
        assert code == 0
        assert "Table 1" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiments", "--only", "figure99"])
