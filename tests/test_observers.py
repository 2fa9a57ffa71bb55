"""Observers watch the simulation and change nothing.

* **Golden observer outputs.**  Three smoke runs with every observer
  their medium allows attached at once.  The telemetry counters and
  gauges, a hash of the sim-time span census, a hash of the qmon
  manifest and the sanitizer's check count must equal the values
  recorded here, and each trace must equal the unobserved run's.
* **The digest matrix.**  Every fault-free golden program under
  ``{telemetry on, off} x {sanitized, not}`` reproduces its golden
  trace.
* **The probe contract.**  No hook fires with nothing subscribed, a
  subscriber added after the components are built still sees every
  hook, and the simulation packages reach observers only through
  ``sim.probe``.
"""

import ast
import hashlib
import json
from pathlib import Path

import pytest

import repro
from repro.capture import trace_digest
from repro.des import Simulator
from repro.des.probe import HOOKS
from repro.fx import FxCluster, FxRuntime
from repro.netmon import build_manifest, manifest_json
from repro.programs import make_program, run_measured
from repro.programs.calibration import ITERATIONS, work_model_for
from repro.programs.registry import resolve_route
from repro.telemetry import Telemetry

from .test_sanitizer import GOLDEN_FAULT_FREE, _legacy_digest

FAULTS = "loss=0.005,corrupt=0.005,queue=4,attempts=16,seed=2"

#: (program, route, faults) for each golden observed run; qmon rides
#: along on the switched route.
RUNS = {
    "sor-bus": ("sor", "direct", None),
    "2dfft-switched": ("2dfft", "switched", None),
    "2dfft-bus-faulted": ("2dfft", "direct", FAULTS),
}

#: Recorded on the tree before the observers moved behind one probe.
GOLDEN = {
    "sor-bus": {
        "counters": {
            "bus.backoff_rounds": 66, "bus.bytes_delivered": 80856,
            "bus.collisions": 28, "bus.frames_delivered": 108,
            "bus.frames_offered": 108,
            "conn.0->1.bytes": 12432, "conn.1->0.bytes": 12432,
            "conn.1->2.bytes": 12432, "conn.2->1.bytes": 12432,
            "conn.2->3.bytes": 12432, "conn.3->2.bytes": 12432,
            "des.events_popped": 1225, "fx.compute_phases": 24,
            "nic.bytes_sent": 80856, "nic.frames_queued": 108,
            "nic.frames_sent": 108,
            "pvm.message_bytes": 73728, "pvm.messages_sent": 36,
            "tcp.acks_sent": 36, "tcp.bytes_sent": 74592,
            "tcp.segments_sent": 72,
        },
        "gauges": {"nic.max_queue_depth": 2,
                   "run.sim_seconds": 13.541311425983835},
        "spans": "1a19cd5c73a046aa8fb0c9fbd5006f24"
                 "92c467d1c2eb8d2966d3a9ef05396fe4",
        "qmon": None,
        "checks": 1446,
        "drops": {},
    },
    "2dfft-switched": {
        "counters": {
            "bus.bytes_delivered": 8336546, "bus.frames_delivered": 8117,
            "bus.frames_offered": 8117,
            **{f"conn.{a}->{b}.bytes": 655480
               for a in range(4) for b in range(4) if a != b},
            "des.events_popped": 61036, "fx.compute_phases": 40,
            "nic.bytes_sent": 8336546, "nic.frames_queued": 8117,
            "nic.frames_sent": 8117,
            "pvm.message_bytes": 7864320, "pvm.messages_sent": 60,
            "tcp.acks_sent": 2708, "tcp.bytes_sent": 7865760,
            "tcp.segments_sent": 5409,
        },
        "gauges": {"nic.max_queue_depth": 3,
                   "run.sim_seconds": 5.602959171398743},
        "spans": "466cfd3f875042b82be83be10f0e312a"
                 "1cad118e844fa9f5425615525cf6b9dc",
        "qmon": "f7d6cea36f093b009265c96f1000f895"
                "93836c9f7f611ae9993c31865e9eb5b5",
        "checks": 69153,
        "drops": {},
    },
    "2dfft-bus-faulted": {
        "counters": {
            "bus.backoff_rounds": 9362, "bus.bytes_delivered": 10406166,
            "bus.collisions": 4585, "bus.frames_delivered": 8855,
            "bus.frames_offered": 8951,
            "conn.0->1.bytes": 932016, "conn.0->2.bytes": 842564,
            "conn.0->3.bytes": 791488, "conn.1->0.bytes": 832992,
            "conn.1->2.bytes": 947496, "conn.1->3.bytes": 924808,
            "conn.2->0.bytes": 960912, "conn.2->1.bytes": 868844,
            "conn.2->3.bytes": 755660, "conn.3->0.bytes": 922536,
            "conn.3->1.bytes": 859272, "conn.3->2.bytes": 1019544,
            "des.events_popped": 87179,
            "drops.corrupt": 41, "drops.excess-collisions": 6,
            "drops.loss": 49, "drops.queue-overflow": 3071,
            "fx.compute_phases": 40, "net.frames_dropped": 3167,
            "nic.bytes_sent": 10506146, "nic.frames_queued": 8951,
            "nic.frames_sent": 8945,
            "pvm.message_bytes": 7864320, "pvm.messages_sent": 60,
            "tcp.acks_sent": 4571, "tcp.bytes_retransmitted": 2828632,
            "tcp.bytes_sent": 10658132, "tcp.fast_retransmits": 78,
            "tcp.retransmits": 1965, "tcp.rto_timeouts": 36,
            "tcp.segments_sent": 7451,
        },
        "gauges": {"nic.max_queue_depth": 4,
                   "run.sim_seconds": 31.87557592279215},
        "spans": "7a2f31bc02243518539066119d23b8ff"
                 "c5490756845aa43973c62d62a71d7815",
        "qmon": None,
        "checks": 108151,
        # Every bus drop reason occurs.
        "drops": {"corrupt": 41, "excess-collisions": 6, "loss": 49,
                  "queue-overflow": 3071},
    },
}


def span_census(tel) -> str:
    """sha256 over every span's sim-time facts in begin order: name,
    category, track, sim bounds, sorted args and the parent's index.
    Wall times and span ids are left out."""
    index = {span.span_id: i for i, span in enumerate(tel.spans)}
    rows = [
        [span.name, span.category, span.track, span.sim_start, span.sim_end,
         sorted((span.args or {}).items()), index.get(span.parent_id)]
        for span in tel.spans
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def observer_outputs(key) -> dict:
    """One smoke seed-0 run with the sanitizer, telemetry and (switched)
    qmon attached, built as ``run_measured`` builds it but keeping the
    cluster, next to the same run unobserved."""
    name, route, faults = RUNS[key]
    pvm_route, medium = resolve_route(route)
    tel = Telemetry(label=key)
    cluster = FxCluster(n_machines=5, seed=0, faults=faults, sanitize=True,
                        telemetry=tel, medium=medium or "ethernet",
                        qmon=True if medium else None)
    runtime = FxRuntime(cluster, 4, work_model_for(name, seed=0),
                        route=pvm_route)
    trace = runtime.execute(make_program(name), ITERATIONS[name]["smoke"])
    plain = run_measured(name, scale="smoke", seed=0, route=route,
                         faults=faults, sanitize=False, telemetry=False)
    qmon = None
    if cluster.qmon is not None:
        qmon = hashlib.sha256(
            manifest_json(build_manifest(cluster.qmon)).encode()).hexdigest()
    return {
        "digest": trace_digest(trace),
        "plain_digest": trace_digest(plain),
        "counters": dict(sorted(tel.counters.items())),
        "gauges": dict(sorted(tel.gauges.items())),
        "spans": span_census(tel),
        "qmon": qmon,
        "checks": cluster.sim.sanitizer.checks,
        "drops": cluster.fault_report()["drops"],
    }


class TestGoldenObserverOutputs:
    @pytest.mark.parametrize("key", sorted(RUNS))
    def test_observed_run_matches_recording(self, key):
        out = observer_outputs(key)
        golden = GOLDEN[key]
        assert out["digest"] == out["plain_digest"]
        assert out["counters"] == golden["counters"]
        assert out["gauges"] == golden["gauges"]
        assert out["spans"] == golden["spans"]
        assert out["qmon"] == golden["qmon"]
        assert out["checks"] == golden["checks"]
        assert out["drops"] == golden["drops"]


class TestDigestMatrix:
    """``{telemetry on, off} x {sanitized, not}`` reproduces the golden
    traces; with both observers on, every hook fans out to two
    subscribers."""

    @pytest.mark.parametrize("sanitize", [False, True])
    @pytest.mark.parametrize("telemetry", [False, True])
    @pytest.mark.parametrize("name", sorted(GOLDEN_FAULT_FREE))
    def test_golden_digest(self, name, telemetry, sanitize):
        packets, digest = GOLDEN_FAULT_FREE[name]
        trace = run_measured(name, scale="smoke", seed=0,
                             sanitize=sanitize, telemetry=telemetry)
        assert len(trace) == packets
        assert _legacy_digest(trace) == digest


class _Recorder:
    """Implements every hook but ``on_pop``; remembers which fired."""

    def __init__(self):
        self.fired = set()

    def __getattr__(self, hook):
        if hook == "on_pop" or hook not in HOOKS:
            raise AttributeError(hook)
        return lambda *_args: self.fired.add(hook)


class TestProbeContract:
    def test_nothing_subscribed_means_no_probe(self):
        sim = Simulator(sanitize=False, telemetry=False)
        assert sim.probe is None and sim.subscribers == ()

    def test_subscribed_after_construction_sees_every_hook(self, monkeypatch):
        """Components bind ``sim.probe`` at first resume, so a subscriber
        added once the cluster exists (as qmon is) misses nothing — and
        one without ``on_pop`` keeps ``run()`` on the fast loop."""
        def observed_loop(self):
            raise AssertionError("the observed loop ran")

        monkeypatch.setattr(Simulator, "_run_observed", observed_loop)
        cluster = FxCluster(n_machines=5, seed=0, medium="switched",
                            sanitize=False, telemetry=False)
        recorder = cluster.sim.subscribe(_Recorder())
        runtime = FxRuntime(cluster, 4, work_model_for("sor", seed=0))
        trace = runtime.execute(make_program("sor"), ITERATIONS["sor"]["smoke"])
        assert {"on_nic_up", "on_enqueue", "on_frame_offered",
                "on_frame_sent", "on_service_start", "on_delivered",
                "on_tcp_data", "on_tcp_data_sent", "on_tcp_ack",
                "on_pvm_send_begin", "on_pvm_send_end", "on_compute",
                "on_rank_begin", "on_rank_end", "on_run_begin",
                "on_run_end"} <= recorder.fired
        plain = run_measured("sor", scale="smoke", seed=0, route="switched",
                             sanitize=False, telemetry=False)
        assert trace_digest(trace) == trace_digest(plain)

    def test_one_monitor_per_fabric(self):
        from repro.net import SwitchedFabric
        from repro.netmon import FabricMonitor

        sim = Simulator()
        fabric = SwitchedFabric(sim)
        monitor = fabric.attach_monitor(FabricMonitor())
        with pytest.raises(ValueError):
            fabric.attach_monitor(FabricMonitor())
        assert sim.subscribers == (monitor,)

    def test_simulation_packages_reach_observers_only_by_probe(self):
        """``.sanitizer``, ``.telemetry`` and ``.monitor`` are read in two
        places only: the attach code in ``Simulator.__init__`` and the
        wall-time accounting around ``Process`` resumes."""
        def reads(tree):
            return [node for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and node.attr in ("sanitizer", "telemetry", "monitor")]

        root = Path(repro.__file__).parent
        found = set()
        for pkg in ("des", "net", "transport", "pvm", "fx"):
            for path in sorted((root / pkg).glob("*.py")):
                tree = ast.parse(path.read_text())
                in_functions = set()
                for fn in ast.walk(tree):
                    if isinstance(fn, ast.FunctionDef):
                        for node in reads(fn):
                            found.add(f"{pkg}/{path.name}:{fn.name}")
                            in_functions.add(id(node))
                if any(id(node) not in in_functions for node in reads(tree)):
                    found.add(f"{pkg}/{path.name}:<outside functions>")
        assert found == {
            "des/simulator.py:__init__",
            "des/process.py:__init__",
            "des/process.py:_resume_timed",
        }
