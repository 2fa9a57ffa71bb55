"""Tests for the telemetry subsystem: spans, counters, exporters, profile.

The contract under test (docs/architecture.md, "Telemetry & profiling"):
telemetry observes only — enabled runs are byte-identical to disabled
ones — and its counters must reconcile exactly with the simulation's own
``BusStats``/``NicStats``/TCP ledgers.
"""

import importlib.util
import json
import signal
import time

import pytest

from repro.capture import trace_digest
from repro.des import Simulator
from repro.programs import run_measured
from repro.telemetry import (
    Telemetry,
    chrome_trace,
    disable_process_telemetry,
    enable_process_telemetry,
    format_profile,
    metrics_snapshot,
    process_telemetry,
    profile_program,
    validate_chrome_trace,
    write_chrome,
    write_metrics,
)
from repro.telemetry.profile import sample_modules


class FakeClock:
    """Deterministic wall clock: each reading advances by ``step``."""

    def __init__(self, step=0.001):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


@pytest.fixture(autouse=True)
def _no_process_telemetry():
    """Keep the process-wide instance out of every test."""
    disable_process_telemetry()
    yield
    disable_process_telemetry()


# -- core -------------------------------------------------------------


class TestCounters:
    def test_count_accumulates(self):
        tel = Telemetry(clock=FakeClock())
        tel.count("x")
        tel.count("x", 4)
        assert tel.counters["x"] == 5

    def test_gauge_keeps_latest(self):
        tel = Telemetry(clock=FakeClock())
        tel.gauge("depth", 3)
        tel.gauge("depth", 1)
        assert tel.gauges["depth"] == 1

    def test_gauge_max_keeps_maximum(self):
        tel = Telemetry(clock=FakeClock())
        tel.gauge_max("depth", 3)
        tel.gauge_max("depth", 1)
        tel.gauge_max("depth", 7)
        assert tel.gauges["depth"] == 7


class TestSpans:
    def test_begin_end_records_both_timelines(self):
        tel = Telemetry(clock=FakeClock(step=0.5))
        span = tel.begin("frame", "net.medium", "nic0", sim_time=1.0)
        tel.end(span, sim_time=3.0)
        assert span.sim_duration == pytest.approx(2.0)
        assert span.wall_duration == pytest.approx(0.5)

    def test_nesting_on_one_track_sets_parent(self):
        tel = Telemetry(clock=FakeClock())
        outer = tel.begin("outer", "fx", "rank0", sim_time=0.0)
        inner = tel.begin("inner", "fx", "rank0", sim_time=1.0)
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        tel.end(inner, 2.0)
        tel.end(outer, 3.0)
        assert tel.open_spans() == []

    def test_root_span_adopts_orphan_tracks(self):
        tel = Telemetry(clock=FakeClock())
        run = tel.begin("run", "harness", "run", sim_time=0.0, root=True)
        frame = tel.begin("frame", "net", "nic1", sim_time=0.5)
        assert frame.parent_id == run.span_id

    def test_complete_is_closed_immediately(self):
        tel = Telemetry(clock=FakeClock())
        span = tel.complete("compute", "fx", "rank1", 1.0, 4.0, rank=1)
        assert span.sim_duration == pytest.approx(3.0)
        assert tel.open_spans() == []
        assert span.args["rank"] == 1

    def test_max_spans_cap_counts_drops(self):
        tel = Telemetry(clock=FakeClock(), max_spans=2)
        for i in range(5):
            tel.complete(f"s{i}", "c", "t", 0.0, 1.0)
        assert len(tel.spans) == 2
        assert tel.counters["telemetry.spans_dropped"] == 3


class TestProcessSingleton:
    def test_disabled_by_default(self):
        assert process_telemetry() is None

    def test_enable_then_count(self):
        tel = enable_process_telemetry()
        assert enable_process_telemetry() is tel  # idempotent


# -- simulator attachment ---------------------------------------------


class TestSimulatorAttachment:
    def test_disabled_by_default(self):
        assert Simulator().telemetry is None

    def test_true_builds_private_instance(self):
        a, b = Simulator(telemetry=True), Simulator(telemetry=True)
        assert a.telemetry is not None
        assert a.telemetry is not b.telemetry

    def test_shared_instance_passes_through(self):
        tel = Telemetry()
        assert Simulator(telemetry=tel).telemetry is tel

    def test_installed_instance_attaches_to_every_simulator(self):
        tel = enable_process_telemetry()
        sim_a, sim_b = Simulator(), Simulator()
        assert sim_a.telemetry is sim_b.telemetry is tel

    def test_events_popped_counts_every_step(self):
        sim = Simulator(telemetry=True)

        def ticker():
            for _ in range(5):
                yield sim.timeout(1.0)

        sim.process(ticker(), name="ticker")
        sim.run()
        assert sim.telemetry.counters["des.events_popped"] > 0


# -- determinism (the load-bearing contract) --------------------------


class TestByteIdenticalTraces:
    @pytest.mark.parametrize(
        "name", ["sor", "2dfft", "t2dfft", "seq", "hist", "airshed"]
    )
    def test_trace_digest_unchanged_by_telemetry(self, name):
        off = trace_digest(run_measured(name, scale="smoke"))
        on = trace_digest(run_measured(name, scale="smoke", telemetry=True))
        assert on == off

    def test_identical_under_faults(self):
        off = trace_digest(run_measured("sor", scale="smoke",
                                        faults="loss=0.05"))
        on = trace_digest(run_measured("sor", scale="smoke",
                                       faults="loss=0.05", telemetry=True))
        assert on == off

    def test_identical_on_switched_medium(self):
        kw = {"cluster_kwargs": {"medium": "switched"}}
        off = trace_digest(run_measured("sor", scale="smoke", **kw))
        on = trace_digest(run_measured("sor", scale="smoke",
                                       telemetry=True, **kw))
        assert on == off


# -- exporters --------------------------------------------------------


class TestChromeExport:
    def _profiled(self):
        return profile_program("sor", scale="smoke")

    def test_document_validates(self):
        doc = chrome_trace(self._profiled().telemetry)
        assert validate_chrome_trace(doc) == []

    def test_tracks_cover_nics_ranks_and_tcp(self):
        doc = chrome_trace(self._profiled().telemetry)
        names = {ev["args"]["name"] for ev in doc["traceEvents"]
                 if ev["ph"] == "M" and ev["name"] == "thread_name"}
        assert any(n.startswith("nic") for n in names)
        assert any(n.startswith("rank") for n in names)
        assert any(n.startswith("tcp ") for n in names)
        assert "run" in names

    def test_counters_ride_in_other_data(self):
        doc = chrome_trace(self._profiled().telemetry)
        assert doc["otherData"]["counters"]["bus.frames_delivered"] > 0

    def test_write_round_trips_through_json(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome(self._profiled().telemetry, path, label="sor/smoke")
        doc = json.loads(path.read_text())
        assert validate_chrome_trace(doc) == []
        assert doc["otherData"]["label"] == "sor/smoke"

    def test_validator_flags_malformed_documents(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({}) != []
        assert validate_chrome_trace({"traceEvents": [{"ph": "X"}]}) != []
        bad_dur = {"traceEvents": [
            {"ph": "X", "name": "s", "cat": "c", "ts": 0, "dur": -1,
             "pid": 1, "tid": 1}
        ]}
        assert any("dur" in e for e in validate_chrome_trace(bad_dur))


class TestMetricsExport:
    def test_snapshot_structure(self):
        result = profile_program("sor", scale="smoke")
        snap = metrics_snapshot(result.telemetry, program="sor")
        assert snap["schema"] == 2
        assert snap["meta"]["program"] == "sor"
        assert snap["counters"]["des.events_popped"] > 0
        assert "wall" not in snap
        assert snap["spans"]["count"] > 0
        assert snap["spans"]["open"] == 0

    def test_write_metrics_is_valid_json(self, tmp_path):
        result = profile_program("sor", scale="smoke")
        path = tmp_path / "metrics.json"
        write_metrics(result.telemetry, path, program="sor")
        doc = json.loads(path.read_text())
        assert doc["counters"] == metrics_snapshot(result.telemetry)["counters"]


# -- profiling --------------------------------------------------------

#: A busy loop compiled into a namespace named like a ``repro`` module.
_FAKE_MODULE = """
def spin(cpu_seconds, clock):
    end = clock() + cpu_seconds
    while clock() < end:
        pass
"""


def _fake_repro_module():
    namespace = {"__name__": "repro.fake"}
    exec(compile(_FAKE_MODULE, "<repro.fake>", "exec"), namespace)
    return namespace["spin"]


class TestSampler:
    def test_samples_land_in_the_innermost_repro_module(self):
        spin = _fake_repro_module()
        _, samples = sample_modules(spin, 0.3, time.process_time)
        assert set(samples) == {"fake"}
        assert samples["fake"] >= 20

    def test_timer_and_handler_restored(self):
        previous = signal.getsignal(signal.SIGPROF)
        assert sample_modules(sum, [1, 2]) == (3, {})
        assert signal.getsignal(signal.SIGPROF) is previous
        assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)

    def test_timer_and_handler_restored_when_the_run_raises(self):
        previous = signal.getsignal(signal.SIGPROF)
        with pytest.raises(ZeroDivisionError):
            sample_modules(lambda: 1 / 0)
        assert signal.getsignal(signal.SIGPROF) is previous
        assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


@pytest.fixture(scope="module")
def airshed_profile():
    """AIRSHED smoke: long enough (about 0.45 s of CPU) to sample."""
    return profile_program("airshed", scale="smoke")


class TestProfileProgram:
    def test_counters_reconcile_with_ground_truth(self):
        result = profile_program("sor", scale="smoke")
        recon = result.reconcile()
        assert result.reconciled, {k: v for k, v in recon.items()
                                   if not v["ok"]}
        # The checks cover the acceptance contract's counter families.
        assert {"bus.frames_delivered", "net.frames_dropped",
                "tcp.retransmits", "nic.frames_sent"} <= set(recon)

    def test_reconciles_under_faults(self):
        result = profile_program("sor", scale="smoke", faults="loss=0.05")
        assert result.reconciled
        assert result.telemetry.counters.get("tcp.retransmits", 0) == sum(
            p.retransmits
            for conn in result.cluster.vm._connections.values()
            for p in (conn.forward, conn.reverse)
        )

    def test_subsystem_rows_share_run_wall_time(self, airshed_profile):
        """The module rows split the sampled (unobserved) run's samples."""
        rows = airshed_profile.module_rows()
        assert sum(share for _, _, share in rows) == pytest.approx(1.0)
        assert sum(n for _, n, _ in rows) == sum(
            airshed_profile.samples.values())
        for module, _, _ in rows:
            assert module == "other" or importlib.util.find_spec(
                f"repro.{module}") is not None, module
            assert not module.startswith("telemetry."), module
        assert airshed_profile.samples["net.medium"] > 0

    def test_events_per_second_positive(self):
        result = profile_program("sor", scale="smoke")
        assert result.events_popped > 0
        assert result.events_per_second > 0

    def test_format_profile_renders_report(self, airshed_profile):
        report = format_profile(airshed_profile)
        assert "events popped" in report
        assert "telemetry skew" in report
        assert "net.medium" in report
        assert "reconciliation: 10/10" in report

    def test_unknown_scale_raises(self):
        with pytest.raises(KeyError):
            profile_program("sor", scale="galactic")


# -- CLI --------------------------------------------------------------


class TestProfileCli:
    def test_profile_command(self, capsys):
        from repro.__main__ import main

        assert main(["profile", "sor", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "== profile: sor" in out
        assert "reconciliation" in out

    def test_profile_emits_artifacts(self, tmp_path, capsys):
        from repro.__main__ import main

        chrome = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        assert main(["profile", "sor", "--scale", "smoke",
                     "--emit-chrome", str(chrome),
                     "--emit-metrics", str(metrics)]) == 0
        assert validate_chrome_trace(json.loads(chrome.read_text())) == []
        doc = json.loads(metrics.read_text())
        assert all(c["ok"] for c in doc["meta"]["reconciliation"].values())
        assert doc["schema"] == 2
        assert doc["meta"]["observed_wall_seconds"] > 0

    def test_profile_unknown_program(self, capsys):
        from repro.__main__ import main

        assert main(["profile", "nope", "--scale", "smoke"]) == 2

    def test_profile_rejects_a_one_machine_cluster(self, capsys):
        from repro.__main__ import main

        assert main(["profile", "sor", "--scale", "smoke",
                     "--nprocs", "0"]) == 2
        assert "at least 2 machines" in capsys.readouterr().err

    def test_trace_with_telemetry_prints_summary(self, tmp_path, capsys):
        from repro.__main__ import main

        out_file = tmp_path / "t.npz"
        assert main(["trace", "sor", "--scale", "smoke",
                     "--out", str(out_file), "--telemetry"]) == 0
        out = capsys.readouterr().out
        assert "telemetry:" in out
        assert "bus.bytes_delivered" in out
