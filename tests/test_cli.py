"""Tests for the command-line interface."""

import argparse
import json
from pathlib import Path

import pytest

from repro.circuit import tree_to_netlist
from repro.cli import main, parse_signal_spec, parse_time_spec
from repro.signals import (
    ExponentialInput,
    RaisedCosineRamp,
    SaturatedRamp,
    SmoothstepRamp,
    StepInput,
)
from repro.workloads import fig1_tree

LINE4 = str(Path(__file__).parent / "data" / "line4.sp")


@pytest.fixture
def netlist_path(tmp_path):
    path = tmp_path / "fig1.sp"
    path.write_text(tree_to_netlist(fig1_tree(), title="fig1"))
    return str(path)


class TestSignalSpec:
    def test_step(self):
        assert isinstance(parse_signal_spec("step"), StepInput)

    def test_ramp_with_units(self):
        sig = parse_signal_spec("ramp:2ns")
        assert isinstance(sig, SaturatedRamp)
        assert sig.rise_time == pytest.approx(2e-9)

    def test_other_kinds(self):
        assert isinstance(parse_signal_spec("cosine:1ns"), RaisedCosineRamp)
        assert isinstance(parse_signal_spec("smoothstep:1ns"), SmoothstepRamp)
        sig = parse_signal_spec("exp:500ps")
        assert isinstance(sig, ExponentialInput)
        assert sig.tau == pytest.approx(500e-12)

    def test_plain_seconds(self):
        assert parse_signal_spec("ramp:2e-9").rise_time == pytest.approx(2e-9)

    def test_bad_specs(self):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_signal_spec("ramp")
        with pytest.raises(argparse.ArgumentTypeError):
            parse_signal_spec("magic:1ns")


class TestAnalyze:
    def test_all_nodes(self, netlist_path, capsys):
        assert main(["analyze", netlist_path]) == 0
        out = capsys.readouterr().out
        assert "n5" in out and "elmore" in out

    def test_node_subset(self, netlist_path, capsys):
        assert main(["analyze", netlist_path, "--nodes", "n5,n7"]) == 0
        out = capsys.readouterr().out
        assert "n5" in out and "n7" in out
        assert "\nn1 " not in out

    def test_table1_values_appear(self, netlist_path, capsys):
        main(["analyze", netlist_path, "--nodes", "n5"])
        out = capsys.readouterr().out
        assert "0.919" in out      # actual delay
        assert "1.2" in out        # elmore

    def test_ramp_signal(self, netlist_path, capsys):
        assert main(
            ["analyze", netlist_path, "--signal", "ramp:2ns"]
        ) == 0
        out = capsys.readouterr().out
        assert "saturated ramp" in out
        assert "prh" not in out    # PRH columns are step-only

    def test_unknown_node(self, netlist_path, capsys):
        assert main(["analyze", netlist_path, "--nodes", "zz"]) == 2

    def test_missing_file(self, capsys):
        assert main(["analyze", "/nonexistent.sp"]) == 2

    def test_bad_netlist(self, tmp_path, capsys):
        path = tmp_path / "bad.sp"
        path.write_text("R1 a b 100\nC1 b 0 1p\n")  # no source
        assert main(["analyze", str(path)]) == 1


class TestUnreadableInput:
    """A netlist that is not UTF-8 text, or a directory, is a one-line
    error on every command that reads one, never a traceback."""

    @staticmethod
    def _binary(tmp_path):
        path = tmp_path / "noise.sp"
        path.write_bytes(bytes(range(128, 256)) * 4)
        return str(path)

    @pytest.mark.parametrize("kind", ["binary", "directory"])
    @pytest.mark.parametrize("command", ["analyze", "stats", "waveform",
                                         "verify"])
    def test_one_line_error(self, command, kind, tmp_path, capsys):
        path = self._binary(tmp_path) if kind == "binary" \
            else str(tmp_path)
        argv = [command, path] + (["n1"] if command == "waveform" else [])
        assert main(argv) in (1, 2)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        expected = "not UTF-8 text" if kind == "binary" \
            else "Is a directory"
        assert expected in err


class TestStatsMonteCarlo:
    @pytest.mark.parametrize("flags", [
        ["--jobs", "1"], ["--jobs", "2"], ["--backend", "serial"],
    ])
    def test_stdout_independent_of_sharding_flags(self, flags, capsys):
        base = ["stats", LINE4, "--samples", "200", "--seed", "3"]
        assert main(base) == 0
        reference = capsys.readouterr().out
        assert main(base + flags) == 0
        assert capsys.readouterr().out == reference

    def test_out_of_memory_is_one_line_error(self, monkeypatch, capsys):
        import repro.core.variation as variation

        def _exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 2.91 TiB")

        monkeypatch.setattr(variation, "monte_carlo_delay_matrix",
                            _exhausted)
        assert main(["stats", LINE4, "--samples", "100000000000"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


class TestVerify:
    def test_claims_hold(self, netlist_path, capsys):
        assert main(["verify", netlist_path]) == 0
        out = capsys.readouterr().out
        assert "all claims hold" in out
        assert out.count("[ok]") == 7


class TestPaperTables:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "n5" in out and "0.919" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "A" in out and "%" in out


class TestTimeSpec:
    def test_units(self):
        from repro._exceptions import ValidationError

        assert parse_time_spec("2ns") == pytest.approx(2e-9)
        assert parse_time_spec("500ps") == pytest.approx(5e-10)
        assert parse_time_spec("1e-9") == pytest.approx(1e-9)
        with pytest.raises(ValidationError):
            parse_time_spec("fast")
        with pytest.raises(ValidationError):
            parse_time_spec("0ns")
        with pytest.raises(ValidationError):
            parse_time_spec("-2ns")


class TestValidation:
    """Bad numeric flags exit 2 with a usage message, never a traceback."""

    def test_negative_samples(self, netlist_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["stats", netlist_path, "--samples", "-5"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--samples must be >= 0" in err

    def test_non_integer_samples(self, netlist_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["stats", netlist_path, "--samples", "many"])
        assert excinfo.value.code == 2
        assert "--samples must be an integer" in capsys.readouterr().err

    def test_negative_sigma(self, netlist_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["stats", netlist_path, "--rsigma", "-0.1"])
        assert excinfo.value.code == 2
        assert "--rsigma must be >= 0" in capsys.readouterr().err

    def test_too_few_points(self, netlist_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["waveform", netlist_path, "n5", "--points", "1"])
        assert excinfo.value.code == 2
        assert "--points must be >= 2" in capsys.readouterr().err

    def test_negative_signal_time(self, netlist_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", netlist_path, "--signal", "ramp:-2ns"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "must be > 0" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["sta", "--seed", "-1"],
        ["ssta", "--seed", "-1"],
        ["ssta", "--mc-seed", "-1", "--samples", "200"],
        ["stats", LINE4, "--samples", "4", "--seed", "-1"],
        ["verify", LINE4, "--inject-faults",
         "shard.slow:p=0.1", "--fault-seed", "-1"],
    ])
    def test_negative_seeds_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "Traceback" not in err
        assert "seed must be >= 0, got -1" in err

    def test_removed_process_backend(self, netlist_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["stats", netlist_path, "--backend", "process"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "Traceback" not in err
        assert "invalid choice: 'process'" in err


class TestObservabilityFlags:
    def test_trace_prints_span_tree(self, netlist_path, capsys):
        assert main(["analyze", netlist_path, "--nodes", "n5",
                     "--trace"]) == 0
        err = capsys.readouterr().err
        assert "repro.analyze" in err
        assert "cum" in err and "self" in err

    def test_trace_out_report_round_trip(self, netlist_path, tmp_path,
                                         capsys):
        out = str(tmp_path / "run.json")
        assert main(["stats", netlist_path, "--samples", "50",
                     "--seed", "3", "--trace-out", out]) == 0
        capsys.readouterr()
        report = json.loads(open(out).read())
        assert report["schema"] == "repro.run_report/2"
        assert report["command"] == "repro stats"
        assert report["seed"] == 3
        names = {s["name"] for s in report["spans"]}
        assert "repro.stats" in names
        # The report subcommand renders it back.
        assert main(["report", out]) == 0
        text = capsys.readouterr().out
        assert "repro.stats" in text
        assert "batch.elmore_delays" in text

    def test_report_rejects_non_report(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"not": "a report"}))
        assert main(["report", str(path)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("body", [
        b"not json at all",
        bytes(range(128, 256)),
        b'{"schema": "repro.run_report/2", "spans": 5}',
        b'{"schema": "repro.run_report/2", "spans": [1]}',
        b'{"schema": "repro.run_report/2", "spans": [{"name": 3}]}',
        b'{"schema": "repro.run_report/2", "spans": [], "metrics": 7}',
        b'{"schema": "repro.run_report/1", "spans": [{}]}',
    ])
    def test_report_rejects_malformed_body(self, body, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_bytes(body)
        assert main(["report", str(path)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    def test_report_needs_a_file(self, capsys):
        for argv in (["report"], ["report", "--compare"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2

    def test_metrics_port_starts_live_endpoint(self, netlist_path,
                                               capsys):
        assert main(["analyze", netlist_path, "--nodes", "n5",
                     "--metrics-port", "0"]) == 0
        # The chosen ephemeral port is announced on stdout so scripts
        # can capture it.
        out = capsys.readouterr().out
        assert "metrics server listening on http://127.0.0.1:" in out

    def test_metrics_out_json(self, netlist_path, tmp_path, capsys):
        out = str(tmp_path / "metrics.json")
        assert main(["verify", netlist_path, "--metrics-out", out]) == 0
        metrics = json.loads(open(out).read())
        assert metrics["verify_nodes_total"]["value"] >= 7
        assert metrics["verify_samples_total"]["kind"] == "counter"

    def test_metrics_out_prometheus(self, netlist_path, tmp_path, capsys):
        out = str(tmp_path / "metrics.prom")
        assert main(["analyze", netlist_path, "--nodes", "n5",
                     "--metrics-out", out]) == 0
        text = open(out).read()
        assert "# TYPE topology_compile_total counter" in text

    def test_tracing_disabled_after_run(self, netlist_path, capsys):
        from repro.obs import tracing_enabled

        assert main(["analyze", netlist_path, "--nodes", "n5",
                     "--trace"]) == 0
        assert not tracing_enabled()

    def test_no_flags_no_observability_output(self, netlist_path, capsys):
        assert main(["analyze", netlist_path, "--nodes", "n5"]) == 0
        err = capsys.readouterr().err
        assert err == ""


class TestResilienceFlags:
    def test_stats_checkpoint_resume_round_trip(self, netlist_path,
                                                tmp_path, capsys):
        journal = str(tmp_path / "stats.ckpt")
        base = ["stats", netlist_path, "--samples", "16", "--seed", "5"]

        assert main(base + ["--checkpoint", journal]) == 0
        reference = capsys.readouterr().out
        assert "monte carlo" in reference

        # Simulate a kill after the first journaled shard, then resume:
        # the printed table must be identical to the uninterrupted run.
        with open(journal, "rb") as handle:
            lines = handle.readlines()
        assert len(lines) >= 2  # header + at least one shard record
        with open(journal, "wb") as handle:
            handle.writelines(lines[:2])
        assert main(base + ["--checkpoint", journal, "--resume"]) == 0
        assert capsys.readouterr().out == reference

    def test_resume_refuses_foreign_journal(self, netlist_path,
                                            tmp_path, capsys):
        journal = str(tmp_path / "stats.ckpt")
        assert main(["stats", netlist_path, "--samples", "16",
                     "--seed", "5", "--checkpoint", journal]) == 0
        capsys.readouterr()
        # Same journal, different seed => different fingerprint.
        assert main(["stats", netlist_path, "--samples", "16",
                     "--seed", "6", "--checkpoint", journal,
                     "--resume"]) == 1
        assert "different run" in capsys.readouterr().err

    def test_inject_faults_runs_and_disarms(self, netlist_path, capsys):
        import os

        from repro.resilience.faults import ENV_SPEC, active_schedule

        assert main(["verify", netlist_path]) == 0
        reference = capsys.readouterr().out
        # A benign fault (zero-delay slow shards) must not change one
        # output character, and the schedule must be disarmed on exit.
        assert main(["verify", netlist_path, "--jobs", "1",
                     "--inject-faults",
                     "shard.slow:times=inf,delay=0",
                     "--fault-seed", "3"]) == 0
        assert capsys.readouterr().out == reference
        assert active_schedule() is None
        assert ENV_SPEC not in os.environ

    def test_bad_fault_spec_is_a_clean_error(self, netlist_path, capsys):
        assert main(["verify", netlist_path, "--inject-faults",
                     "no.such.point"]) == 1
        assert "unknown fault point" in capsys.readouterr().err


class TestSstaCommand:
    def test_round_trip_with_oracle(self, capsys):
        assert main(["ssta", "--layers", "3", "--width", "4",
                     "--samples", "1200", "--required", "2.5e-10"]) == 0
        out = capsys.readouterr().out
        assert "critical delay: mu" in out and "sigma" in out
        assert "sigma corners:" in out
        assert "yield" in out and "P(slack<0)" in out
        assert "monte-carlo oracle (1200 samples)" in out
        assert "WARNING" not in out

    def test_sharded_matches_serial(self, capsys):
        assert main(["ssta", "--layers", "3", "--width", "4"]) == 0
        serial = capsys.readouterr().out
        assert main(["ssta", "--layers", "3", "--width", "4",
                     "--jobs", "2", "--backend", "shm"]) == 0
        sharded = capsys.readouterr().out
        # Identical numbers; only the "N jobs" banner differs.
        strip = ", 2 jobs"
        assert sharded.replace(strip, "") == serial

    def test_bad_correlation_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["ssta", "--correlation", "1.5"])
        assert excinfo.value.code == 2
        assert "--correlation must be <= 1" in capsys.readouterr().err
