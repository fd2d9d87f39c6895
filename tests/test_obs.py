"""Observability layer: typed telemetry, JSONL recorder, schema, metrics.

Covers the ISSUE tentpole contracts:

* every backend publishes one typed :class:`RoundTelemetry` per round,
* the recorder's JSONL stream conforms to the pinned event schema
  (golden-schema test) and replays bit-identically modulo timestamps,
* a disabled recorder emits nothing,
* the metrics registry renders Prometheus exposition text,
* ``python -m repro trace`` summarizes/validates recorded runs without
  re-searching.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main as cli_main
from repro.core import Budget
from repro.master import MasterConfig, MasterProcess
from repro.obs import (
    EVENT_SCHEMAS,
    BurstTelemetry,
    MetricsRegistry,
    RoundTelemetry,
    RunRecorder,
    read_stream,
    replay_metrics,
    summarize_stream,
    validate_event,
    validate_stream,
)
from repro.parallel import MultiprocessingBackend, SerialBackend

N_SLAVES = 3
N_ROUNDS = 3


def run_recorded(
    instance,
    *,
    path=None,
    rng_seed=5,
    backend=None,
    n_slaves=N_SLAVES,
    n_rounds=N_ROUNDS,
):
    """One recorded CTS2 run; returns (result, recorder, backend)."""
    owns = backend is None
    if backend is None:
        backend = SerialBackend(n_slaves)
    config = MasterConfig(n_slaves=n_slaves, n_rounds=n_rounds)
    recorder = RunRecorder(path)
    master = MasterProcess(
        instance, config, backend, rng_seed=rng_seed, recorder=recorder
    )
    try:
        result = master.run(budget_per_slave=Budget(max_evaluations=6_000))
    finally:
        recorder.close()
        if owns:
            backend.shutdown()
    return result, recorder, backend


class TestRoundTelemetry:
    def test_serial_backend_publishes_typed_record(self, small_instance):
        _, _, backend = run_recorded(small_instance)
        told = backend.last_telemetry
        assert isinstance(told, RoundTelemetry)
        assert told.round_index == N_ROUNDS - 1
        assert set(told.phase_seconds) == {"scatter", "compute", "gather"}
        assert set(told.task_nbytes) == set(range(N_SLAVES))
        assert all(v > 0 for v in told.task_nbytes.values())
        assert all(v > 0 for v in told.report_nbytes.values())
        assert told.total_bytes == sum(told.task_nbytes.values()) + sum(
            told.report_nbytes.values()
        )

    def test_multiprocessing_backend_publishes_typed_record(
        self, small_instance, mp_context
    ):
        backend = MultiprocessingBackend(2, mp_context=mp_context)
        try:
            run_recorded(
                small_instance, backend=backend, n_slaves=2, n_rounds=2
            )
            told = backend.last_telemetry
            assert isinstance(told, RoundTelemetry)
            assert told.round_index == 1
            assert set(told.phase_seconds) == {"scatter", "compute", "gather"}
            assert set(told.report_nbytes) == {0, 1}
        finally:
            backend.shutdown()

    def test_event_fields_match_schema(self, small_instance):
        _, _, backend = run_recorded(small_instance)
        fields = backend.last_telemetry.to_event_fields()
        assert set(fields) == EVENT_SCHEMAS["round_telemetry"]
        # JSON-ready: per-slave maps carry string keys.
        assert all(isinstance(k, str) for k in fields["gather_idle_s"])
        json.dumps(fields)  # must not raise

    def test_idle_ratio_bounds(self):
        told = RoundTelemetry(
            round_index=0,
            phase_seconds={"gather": 1.0},
            gather_idle_s={0: 0.5, 1: 0.0},
        )
        assert told.idle_ratio() == pytest.approx(0.25)
        flooded = RoundTelemetry(
            round_index=0,
            phase_seconds={"gather": 0.1},
            gather_idle_s={0: 5.0},
        )
        assert flooded.idle_ratio() == 1.0


class TestRunRecorder:
    def test_disabled_recorder_is_silent(self):
        recorder = RunRecorder.disabled()
        recorder.emit("round_end", round_index=0)
        recorder.round_start(0, tasked_slaves=2, backoff_slaves=0)
        assert recorder.events == []

    def test_golden_stream_schema(self, small_instance, tmp_path):
        path = tmp_path / "run.jsonl"
        result, recorder, _ = run_recorded(small_instance, path=path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert validate_stream(lines) == []
        events = read_stream(path)
        assert [e["seq"] for e in events] == list(range(len(events)))
        kinds = [e["event"] for e in events]
        assert kinds[0] == "run_start"
        assert kinds[-1] == "run_end"
        assert kinds.count("round_start") == N_ROUNDS
        assert kinds.count("round_telemetry") == N_ROUNDS
        assert kinds.count("isp") == N_ROUNDS
        assert kinds.count("sgp") == N_ROUNDS  # CTS2 adapts strategies
        assert kinds.count("round_end") == N_ROUNDS
        # The manifest pins enough to rerun: seed, instance, versions.
        manifest = events[0]
        assert manifest["seed"] == 5
        assert manifest["variant"] == "CTS2"
        assert set(manifest["versions"]) == {"repro", "numpy", "python"}
        # Stream and in-memory copies agree.
        assert events == recorder.events
        finale = events[-1]
        assert finale["best_value"] == result.best.value
        assert finale["total_evaluations"] == result.total_evaluations

    def test_replay_identical_modulo_timestamps(self, small_instance):
        def strip(events):
            return [{k: v for k, v in e.items() if k != "t"} for e in events]

        _, a, _ = run_recorded(small_instance, rng_seed=11)
        _, b, _ = run_recorded(small_instance, rng_seed=11)
        a_events, b_events = strip(a.events), strip(b.events)
        # Wall-clock floats differ run to run; everything else replays.
        for ea, eb in zip(a_events, b_events):
            assert set(ea) == set(eb)
            if ea["event"] in ("round_telemetry", "run_end"):
                continue
            assert ea == eb
        assert [e["event"] for e in a_events] == [e["event"] for e in b_events]

    def test_replay_metrics_matches_live(self, small_instance, tmp_path):
        path = tmp_path / "run.jsonl"
        run_recorded(small_instance, path=path)
        replayed = replay_metrics(read_stream(path))
        assert replayed.counter_value("repro_rounds_total") == N_ROUNDS

    def test_summarize_stream(self, small_instance):
        result, recorder, _ = run_recorded(small_instance)
        summary = summarize_stream(recorder.events)
        assert summary["variant"] == "CTS2"
        assert summary["n_slaves"] == N_SLAVES
        assert summary["n_rounds"] == N_ROUNDS
        assert summary["best_value"] == result.best.value
        assert set(summary["phase_totals"]) >= {"scatter", "compute", "gather"}
        assert summary["bytes"]["task"] > 0
        assert summary["bytes"]["report"] > 0
        assert summary["fault_tallies"] == {}


class TestSchemaValidation:
    def test_unknown_event_type(self):
        assert validate_event({"event": "nope", "seq": 0, "t": 0.0}) == [
            "unknown event type 'nope'"
        ]

    def test_missing_and_extra_fields(self):
        event = {
            "event": "round_start",
            "seq": 0,
            "t": 0.0,
            "round_index": 1,
            "tasked_slaves": 2,
            "surprise": True,
        }
        errors = validate_event(event)
        assert any("missing fields ['backoff_slaves']" in e for e in errors)
        assert any("unexpected fields ['surprise']" in e for e in errors)

    def test_stream_structural_checks(self):
        ok = {"event": "round_start", "round_index": 0, "tasked_slaves": 1,
              "backoff_slaves": 0}
        lines = [
            json.dumps({**ok, "seq": 0, "t": 0.0}),
            json.dumps({**ok, "seq": 2, "t": 0.1}),  # seq gap
        ]
        errors = validate_stream(lines)
        assert any("run_start" in e for e in errors)
        assert any("gapless" in e for e in errors)

    def test_stream_rejects_garbage_line(self):
        errors = validate_stream(["{not json"])
        assert errors and "not valid JSON" in errors[0]


class TestMetricsRegistry:
    def test_counters_and_labels(self):
        m = MetricsRegistry()
        m.inc("repro_bytes_total", 10, direction="task")
        m.inc("repro_bytes_total", 5, direction="task")
        m.inc("repro_bytes_total", 3, direction="report")
        assert m.counter_value("repro_bytes_total", direction="task") == 15
        assert m.counter_value("repro_bytes_total", direction="report") == 3
        assert m.counter_value("repro_bytes_total", direction="other") == 0

    def test_prometheus_rendering(self):
        m = MetricsRegistry()
        m.describe("repro_rounds_total", "rounds completed")
        m.inc("repro_rounds_total", 4)
        m.set_gauge("repro_best_value", 123.0)
        text = m.render_prometheus()
        assert "# HELP repro_rounds_total rounds completed" in text
        assert "# TYPE repro_rounds_total counter" in text
        assert "repro_rounds_total 4" in text
        assert "# TYPE repro_best_value gauge" in text
        assert "repro_best_value 123" in text

    def test_label_rendering_sorted(self):
        m = MetricsRegistry()
        m.inc("repro_x", 1, b="2", a="1")
        assert 'repro_x{a="1",b="2"} 1' in m.render_prometheus()

    def test_invalid_name_rejected(self):
        m = MetricsRegistry()
        with pytest.raises(ValueError, match="metric name"):
            m.inc("bad name")
        with pytest.raises(ValueError, match="metric name"):
            m.set_gauge("1starts_with_digit", 0.0)


class TestTraceCLI:
    @pytest.fixture()
    def stream_path(self, small_instance, tmp_path):
        path = tmp_path / "run.jsonl"
        run_recorded(small_instance, path=path)
        return path

    def test_trace_summarizes_stream(self, stream_path, capsys):
        assert cli_main(["trace", str(stream_path)]) == 0
        out = capsys.readouterr().out
        assert "variant:" in out and "CTS2" in out
        assert "measured wall phases:" in out

    def test_trace_validate_ok(self, stream_path, capsys):
        assert cli_main(["trace", str(stream_path), "--validate"]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_trace_validate_catches_corruption(self, stream_path, capsys):
        text = stream_path.read_text(encoding="utf-8")
        stream_path.write_text(text + '{"event": "nope", "seq": 99, "t": 0}\n')
        assert cli_main(["trace", str(stream_path), "--validate"]) == 1
        assert "invalid:" in capsys.readouterr().out

    def test_trace_prometheus(self, stream_path, capsys):
        assert cli_main(["trace", str(stream_path), "--prometheus"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_rounds_total counter" in out

    def test_trace_reads_saved_result_record(
        self, small_instance, tmp_path, capsys
    ):
        from repro.analysis import save_result

        result, _, _ = run_recorded(small_instance)
        path = tmp_path / "run.json"
        save_result(result, path)
        assert cli_main(["trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "variant:" in out and "CTS2" in out

    def test_trace_rejects_validate_on_record(
        self, small_instance, tmp_path
    ):
        from repro.analysis import save_result

        result, _, _ = run_recorded(small_instance)
        path = tmp_path / "run.json"
        save_result(result, path)
        with pytest.raises(SystemExit, match="JSONL"):
            cli_main(["trace", str(path), "--validate"])

    def test_trace_missing_file(self, tmp_path):
        with pytest.raises(SystemExit, match="no such file"):
            cli_main(["trace", str(tmp_path / "absent.jsonl")])

    def test_solve_record_flag_writes_stream(
        self, tmp_path, capsys
    ):
        out_file = tmp_path / "cli.jsonl"
        code = cli_main(
            [
                "solve", "FP05", "--variant", "cts2", "--slaves", "2",
                "--rounds", "2", "--evals", "4000", "--record", str(out_file),
            ]
        )
        assert code == 0
        assert "recorded" in capsys.readouterr().out
        assert validate_stream(out_file.read_text().splitlines()) == []

    def test_solve_record_rejects_seq(self, tmp_path):
        with pytest.raises(SystemExit, match="record"):
            cli_main(
                ["solve", "FP05", "--variant", "seq", "--evals", "1000",
                 "--record", str(tmp_path / "x.jsonl")]
            )


class TestSubscribers:
    def test_fanout_receives_every_event(self, small_instance):
        recorder = RunRecorder()
        seen: list[dict] = []
        recorder.subscribe(seen.append)
        run_recorded_with(recorder, small_instance)
        assert seen == recorder.events

    def test_unsubscribe_stops_delivery(self):
        recorder = RunRecorder()
        seen: list[dict] = []
        recorder.subscribe(seen.append)
        recorder.emit("note", text="a")
        recorder.unsubscribe(seen.append)
        recorder.emit("note", text="b")
        assert [e["text"] for e in seen] == ["a"]

    def test_raising_subscriber_is_dropped_not_fatal(self):
        recorder = RunRecorder()
        calls = {"n": 0}

        def bad(_record):
            calls["n"] += 1
            raise RuntimeError("subscriber exploded")

        good: list[dict] = []
        recorder.subscribe(bad)
        recorder.subscribe(good.append)
        recorder.emit("note", text="a")  # bad raises, gets dropped
        recorder.emit("note", text="b")
        assert calls["n"] == 1
        assert len(good) == 2


def run_recorded_with(recorder, instance):
    backend = SerialBackend(2)
    config = MasterConfig(n_slaves=2, n_rounds=2)
    master = MasterProcess(instance, config, backend, rng_seed=5, recorder=recorder)
    try:
        return master.run(budget_per_slave=Budget(max_evaluations=2_000))
    finally:
        backend.shutdown()


class TestFollowStream:
    def test_complete_file_terminates_at_run_end(self, small_instance, tmp_path):
        from repro.obs import follow_stream

        path = tmp_path / "run.jsonl"
        run_recorded(small_instance, path=path)
        # no idle timeout needed: run_end ends the tail immediately
        events = list(follow_stream(path))
        assert events == read_stream(path)
        assert events[-1]["event"] == "run_end"

    def test_tails_a_live_writer(self, small_instance, tmp_path):
        import threading
        import time as _time

        from repro.obs import follow_stream

        path = tmp_path / "live.jsonl"
        lines = [
            json.dumps({"event": "run_start", "seq": 0, "t": 0.0}),
            json.dumps({"event": "round_start", "seq": 1, "t": 0.1,
                        "round_index": 0}),
            json.dumps({"event": "run_end", "seq": 2, "t": 0.2}),
        ]
        path.write_text("")

        def writer():
            with path.open("a", encoding="utf-8") as fh:
                for line in lines:
                    # split mid-line: the reader must buffer the fragment
                    fh.write(line[:10])
                    fh.flush()
                    _time.sleep(0.05)
                    fh.write(line[10:] + "\n")
                    fh.flush()

        thread = threading.Thread(target=writer)
        thread.start()
        events = list(follow_stream(path, poll_s=0.01))
        thread.join()
        assert [e["event"] for e in events] == [
            "run_start", "round_start", "run_end",
        ]

    def test_idle_timeout_ends_unfinished_stream(self, tmp_path):
        import time as _time

        from repro.obs import follow_stream

        path = tmp_path / "stalled.jsonl"
        path.write_text(
            json.dumps({"event": "run_start", "seq": 0, "t": 0.0}) + "\n"
        )
        t0 = _time.monotonic()
        events = list(follow_stream(path, poll_s=0.01, idle_timeout_s=0.2))
        assert _time.monotonic() - t0 < 5.0
        assert [e["event"] for e in events] == ["run_start"]

    def test_stop_callback_ends_tail(self, tmp_path):
        from repro.obs import follow_stream

        path = tmp_path / "stop.jsonl"
        path.write_text(
            json.dumps({"event": "run_start", "seq": 0, "t": 0.0}) + "\n"
        )
        events = list(follow_stream(path, poll_s=0.01, stop=lambda: True))
        # existing events drain first; the stop fires once the file is dry
        assert [e["event"] for e in events] == ["run_start"]


class TestTraceFollowCLI:
    def test_follow_completed_stream(self, small_instance, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        run_recorded(small_instance, path=path)
        assert cli_main(["trace", str(path), "--follow"]) == 0
        out = capsys.readouterr().out
        assert "run_start" in out
        assert "run_end" in out
        assert "measured wall phases:" in out  # summary still printed

    def test_follow_excludes_validate(self, small_instance, tmp_path):
        path = tmp_path / "run.jsonl"
        run_recorded(small_instance, path=path)
        with pytest.raises(SystemExit, match="--follow excludes"):
            cli_main(["trace", str(path), "--follow", "--validate"])

    def test_follow_idle_timeout_on_unfinished_stream(self, tmp_path, capsys):
        path = tmp_path / "partial.jsonl"
        path.write_text(
            json.dumps(
                {"event": "run_start", "seq": 0, "t": 0.0, "variant": "CTS2"}
            )
            + "\n"
        )
        assert cli_main(
            ["trace", str(path), "--follow", "--idle-timeout", "0.2"]
        ) == 0
        out = capsys.readouterr().out
        assert "run_start" in out
        assert "stream still open" in out


class TestBurstTelemetryObs:
    """Satellite: pipelined-burst observability (schema, metrics, trace)."""

    def run_recorded_async(self, instance, path=None):
        backend = SerialBackend(2)
        config = MasterConfig(n_slaves=2, n_rounds=2, pipeline="async")
        recorder = RunRecorder(path)
        master = MasterProcess(
            instance, config, backend, rng_seed=5, recorder=recorder
        )
        try:
            result = master.run(budget_per_slave=Budget(max_evaluations=2_000))
        finally:
            recorder.close()
            backend.shutdown()
        return result, recorder

    def test_event_fields_match_pinned_schema(self):
        told = BurstTelemetry(
            slave_id=0,
            burst_index=1,
            queue_depth=1,
            staleness=0,
            latency_s=0.5,
            task_nbytes=10,
            report_nbytes=20,
            outcome="report",
        )
        fields = told.to_event_fields()
        assert set(fields) == EVENT_SCHEMAS["burst_telemetry"]
        json.dumps(fields)  # must not raise
        event = {"event": "burst_telemetry", "seq": 0, "t": 0.0, **fields}
        assert validate_event(event) == []

    def test_async_stream_valid_and_metrics_projection(
        self, small_instance, tmp_path
    ):
        path = tmp_path / "async.jsonl"
        _, recorder = self.run_recorded_async(small_instance, path)
        assert validate_stream(path.read_text().splitlines()) == []
        replayed = replay_metrics(read_stream(path))
        # 2 slaves x 2 bursts, all healthy.
        assert replayed.counter_value("repro_bursts_total", outcome="report") == 4
        assert replayed.counter_value(
            "repro_bursts_total", outcome="report"
        ) == replay_metrics(recorder.events).counter_value(
            "repro_bursts_total", outcome="report"
        )
        prom = replayed.render_prometheus()
        assert "repro_pipeline_queue_depth" in prom
        assert "repro_pipeline_staleness" in prom
        assert "repro_burst_latency_seconds_total" in prom

    def test_summarize_stream_pipeline_section(self, small_instance):
        _, recorder = self.run_recorded_async(small_instance)
        section = summarize_stream(recorder.events)["pipeline"]
        assert section is not None
        assert section["bursts"] == 4
        assert section["outcomes"] == {"report": 4}
        assert section["max_staleness"] <= 2
        assert section["mean_queue_depth"] >= 0.0

    def test_sync_stream_has_no_pipeline_section(self, small_instance):
        _, recorder, _ = run_recorded(small_instance)
        assert summarize_stream(recorder.events)["pipeline"] is None

    def test_trace_follow_renders_burst_lines(
        self, small_instance, tmp_path, capsys
    ):
        path = tmp_path / "async.jsonl"
        self.run_recorded_async(small_instance, path)
        assert cli_main(["trace", str(path), "--follow"]) == 0
        out = capsys.readouterr().out
        assert "burst" in out
        assert "staleness=" in out
