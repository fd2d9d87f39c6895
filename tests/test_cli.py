"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


class TestSolve:
    def test_solve_registry_instance(self, capsys):
        code = main(["solve", "FP05", "--variant", "seq", "--evals", "5000"])
        out = capsys.readouterr().out
        assert code == 0
        assert "SEQ" in out
        assert "packed items" in out

    def test_solve_cts2_with_trace(self, capsys):
        code = main(
            [
                "solve", "FP05", "--variant", "cts2", "--slaves", "2",
                "--rounds", "2", "--evals", "4000", "--trace",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "round 0" in out
        assert "round 1" in out

    @pytest.mark.parametrize(
        "variant,communicate,adapt_strategies",
        [("its", False, False), ("cts1", True, False), ("cts2", True, True)],
    )
    def test_master_variant_records_its_table_row(
        self, tmp_path, capsys, variant, communicate, adapt_strategies
    ):
        out_file = tmp_path / "run.jsonl"
        code = main(
            [
                "solve", "FP05", "--variant", variant, "--slaves", "2",
                "--rounds", "2", "--evals", "4000", "--record", str(out_file),
            ]
        )
        assert code == 0
        assert f"{variant.upper()}: best=" in capsys.readouterr().out
        start = json.loads(out_file.read_text().splitlines()[0])
        assert start["event"] == "run_start"
        assert (start["variant"], start["communicate"], start["adapt_strategies"]) == (
            variant.upper(),
            communicate,
            adapt_strategies,
        )

    def test_solve_async(self, capsys):
        code = main(
            ["solve", "FP05", "--variant", "async", "--slaves", "2", "--evals", "4000"]
        )
        assert code == 0
        assert "CTS-async" in capsys.readouterr().out

    def test_solve_file(self, tmp_path, capsys, small_instance):
        from repro.instances import write_instance

        path = tmp_path / "prob.txt"
        write_instance(small_instance, path)
        code = main(["solve", str(path), "--variant", "seq", "--evals", "3000"])
        assert code == 0

    def test_unknown_instance(self):
        with pytest.raises(SystemExit, match="neither a file nor"):
            main(["solve", "NOPE99", "--evals", "100"])


class TestExact:
    def test_exact_proves_small(self, capsys):
        code = main(["exact", "FP01"])
        out = capsys.readouterr().out
        assert code == 0
        assert "proven optimal" in out

    def test_exact_node_limit_exit_code(self, capsys):
        code = main(["exact", "MK1", "--node-limit", "10"])
        out = capsys.readouterr().out
        assert code == 2
        assert "node limit reached" in out


class TestGenerateAndInfo:
    def test_generate_roundtrip(self, tmp_path, capsys):
        out_path = tmp_path / "gen.txt"
        code = main(
            ["generate", "3", "20", "--correlated", "--seed", "4", "--out", str(out_path)]
        )
        assert code == 0
        assert out_path.exists()
        code = main(["info", str(out_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "3*20" in out
        assert "LP bound" in out

    def test_suite_lists_names(self, capsys):
        code = main(["suite"])
        out = capsys.readouterr().out
        assert code == 0
        assert "GK01" in out and "MK5" in out and "FP57" in out

    def test_info_registry(self, capsys):
        code = main(["info", "GK01"])
        out = capsys.readouterr().out
        assert code == 0
        assert "3*10" in out


class TestServiceCommands:
    @pytest.fixture()
    def live_service(self):
        """A real server on an ephemeral port, in a background thread."""
        import asyncio
        import threading

        from repro.cli import _load_instance
        from repro.service import JobManager, ServiceServer, SolverPool, request

        started = threading.Event()
        box: dict[str, int] = {}

        def runner():
            async def go():
                pool = SolverPool.serial(1, 2)
                manager = JobManager(pool)
                server = ServiceServer(
                    manager, port=0, instance_loader=_load_instance
                )
                _, port = await server.start()
                box["port"] = port
                started.set()
                await server.serve_until_shutdown()

            asyncio.run(go())

        thread = threading.Thread(target=runner, daemon=True)
        thread.start()
        assert started.wait(10), "service thread never bound"
        yield box["port"]
        try:
            request("127.0.0.1", box["port"], {"op": "shutdown"})
        except (OSError, RuntimeError):
            pass
        thread.join(timeout=15)

    def test_submit_stream_status_cancel(self, live_service, capsys):
        port = str(live_service)
        code = main(
            [
                "submit", "FP05", "--port", port, "--rounds", "2",
                "--evals", "2000", "--stream",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "run_end" in out
        assert "done" in out
        job_id = out.strip().splitlines()[0]

        assert main(["status", job_id, "--port", port]) == 0
        assert "done" in capsys.readouterr().out

        # cancelling a finished job reports "already finished", exit 1
        assert main(["cancel", job_id, "--port", port]) == 1
        assert "already finished" in capsys.readouterr().out

    def test_status_unknown_job(self, live_service):
        with pytest.raises(SystemExit, match="unknown job id"):
            main(["status", "job-999999", "--port", str(live_service)])

    def test_unreachable_service(self):
        with pytest.raises(SystemExit, match="cannot reach service"):
            main(["status", "job-000001", "--port", "1"])

    def test_submit_validates_instance_locally(self):
        with pytest.raises(SystemExit, match="neither a file nor"):
            main(["submit", "definitely-not-an-instance", "--port", "1"])
