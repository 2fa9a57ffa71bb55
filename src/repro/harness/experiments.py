"""One experiment per paper artifact (tables and figures).

Each experiment reproduces the rows or data series of one figure of the
paper and returns an :class:`Artifact` carrying

* ``tables`` — formatted text tables mirroring the paper's layout,
* ``series`` — the (x, y) data a plot of the figure would draw,
* ``metrics`` — scalar measurements (fundamentals, bandwidths, ...),
* ``checks`` — named boolean *shape criteria* from DESIGN.md §4, the
  definition of "reproduced" used by the benchmark suite.

The registry :data:`EXPERIMENTS` maps experiment ids (fig1..fig11,
model, qos, baseline) to runner callables taking (scale, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import numpy as np

from ..analysis import (
    average_bandwidth,
    binned_bandwidth,
    find_peaks,
    fundamental_frequency,
    harmonic_energy_ratio,
    interarrival_stats,
    is_trimodal,
    packet_size_stats,
    power_spectrum,
    size_modes,
    sliding_window_bandwidth,
    spectral_concentration,
    spectral_flatness,
    hurst_aggregated_variance,
)
from ..baselines import OnOffTraffic, PoissonTraffic, SelfSimilarTraffic, VbrVideoTraffic
from ..core import (
    Network,
    SpectralModel,
    SpectralTrafficGenerator,
    burst_size_constancy,
    characterize_program,
    connection_correlation,
    series_nrmse,
)
from ..fx import Pattern, connectivity_matrix, pattern_pairs
from ..programs import CALIBRATIONS, KERNELS, PROGRAMS, kernel_table, make_program
from .runner import REPRESENTATIVE_CONNECTIONS, get_trace
from .tables import format_matrix, format_table

__all__ = ["Artifact", "COST_RANK", "EXPERIMENTS", "EXPERIMENT_TRACES",
           "TRACE_PROGRAMS", "longest_first", "run_experiment", "trace_specs"]

#: Programs whose measured traces the experiments consume: the five
#: kernels plus AIRSHED.  This is the default warm set for
#: ``repro cache warm`` and :func:`repro.harness.replicate` with jobs.
TRACE_PROGRAMS: Tuple[str, ...] = KERNELS + ("airshed",)

#: :data:`TRACE_PROGRAMS` by simulation cost, longest first.  A batch of
#: traces is dispatched in this order so that the longest never starts
#: last on a worker pool.  At default scale on one 2-vCPU host they took
#: 2.12, 1.64, 1.32, 0.85, 0.05 and 0.03 s.
COST_RANK: Tuple[str, ...] = ("airshed", "2dfft", "t2dfft", "seq", "hist",
                              "sor")


def longest_first(specs):
    """Warm-style ``(name, scale, seed[, overrides])`` specs sorted by
    :data:`COST_RANK`: stable within a program, unranked programs last."""
    rank = {name: i for i, name in enumerate(COST_RANK)}
    return sorted(specs, key=lambda spec: rank.get(spec[0], len(rank)))


def trace_specs(scale: str = "default", seeds=(0,), programs=None,
                faults=None):
    """(name, scale, seed[, overrides]) production jobs covering the
    experiments.

    The unit of parallelism for :meth:`TraceStore.warm`: every
    trace-based experiment at ``scale``/``seeds`` is served from cache
    once these jobs have run.  ``faults`` (a plan spec) rides along as
    an override, so warmed faulted traces key — and digest — exactly
    like the ones the experiments will request.
    """
    names = TRACE_PROGRAMS if programs is None else tuple(programs)
    if faults is None:
        return [(name, scale, seed) for seed in seeds for name in names]
    return [(name, scale, seed, {"faults": faults})
            for seed in seeds for name in names]


@dataclass
class Artifact:
    """The output of one reproduced experiment."""

    exp_id: str
    title: str
    tables: Dict[str, str] = field(default_factory=dict)
    series: Dict[str, Tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)
    checks: Dict[str, bool] = field(default_factory=dict)

    def render(self) -> str:
        """All tables plus the check summary, as printable text."""
        parts = [f"== {self.exp_id}: {self.title} =="]
        parts.extend(self.tables.values())
        if self.metrics:
            rows = sorted(self.metrics.items())
            parts.append(format_table(["metric", "value"], rows, "Metrics"))
        if self.checks:
            rows = [(k, "PASS" if v else "FAIL") for k, v in sorted(self.checks.items())]
            parts.append(format_table(["shape criterion", "status"], rows, "Checks"))
        return "\n\n".join(parts)

    @property
    def all_checks_pass(self) -> bool:
        return all(self.checks.values())


# ---------------------------------------------------------------------------
# Figure 1 and 2: patterns and kernels
# ---------------------------------------------------------------------------

def fig1_patterns(scale: str = "default", seed: int = 0) -> Artifact:
    """Figure 1: the Fx communication patterns, as connectivity matrices."""
    art = Artifact("fig1", "Fx communication patterns (P=8)")
    P = 8
    for pattern in Pattern:
        m = connectivity_matrix(pattern, P)
        art.tables[str(pattern)] = format_matrix(
            m.tolist(), title=f"{pattern} (x = src sends to dst)"
        )
        art.metrics[f"{pattern}/connections"] = int(m.sum())
    art.checks["all_to_all uses P(P-1)"] = (
        art.metrics["all-to-all/connections"] == P * (P - 1)
    )
    art.checks["neighbor uses 2(P-1)"] = (
        art.metrics["neighbor/connections"] == 2 * (P - 1)
    )
    art.checks["partition uses P^2/4"] = (
        art.metrics["partition/connections"] == P * P // 4
    )
    return art


def fig2_kernels(scale: str = "default", seed: int = 0) -> Artifact:
    """Figure 2: the kernel/pattern table."""
    art = Artifact("fig2", "Fx kernels")
    rows = [(r["pattern"], r["kernel"], r["description"]) for r in kernel_table()]
    art.tables["kernels"] = format_table(
        ["Pattern", "Kernel", "Description"], rows
    )
    art.checks["five kernels"] = len(rows) == 5
    art.checks["patterns distinct"] = len({r[0] for r in rows}) == 5
    return art


# ---------------------------------------------------------------------------
# Figures 3-5: kernel statistics tables
# ---------------------------------------------------------------------------

def _kernel_stat_tables(scale, seed, stat_fn, unit):
    agg_rows, conn_rows = [], []
    stats = {}
    for name in KERNELS:
        trace = get_trace(name, scale, seed)
        s = stat_fn(trace)
        stats[name, "agg"] = s
        agg_rows.append((name.upper(),) + s.row())
        pair = REPRESENTATIVE_CONNECTIONS.get(name)
        if pair is not None:
            cs = stat_fn(trace.connection(*pair))
            stats[name, "conn"] = cs
            conn_rows.append((name.upper(),) + cs.row())
        else:
            conn_rows.append((name.upper(), None, None, None, None))
    headers = ["Program", f"Min ({unit})", f"Max ({unit})", f"Avg ({unit})", f"SD ({unit})"]
    return (
        format_table(headers, agg_rows, "(aggregate)"),
        format_table(headers, conn_rows, "(connection)"),
        stats,
    )


def fig3_packet_sizes(scale: str = "default", seed: int = 0) -> Artifact:
    """Figure 3: packet size statistics for the Fx kernels."""
    art = Artifact("fig3", "Packet size statistics for Fx kernels")
    agg, conn, stats = _kernel_stat_tables(scale, seed, packet_size_stats, "B")
    art.tables["aggregate"] = agg
    art.tables["connection"] = conn

    for name in KERNELS:
        trace = get_trace(name, scale, seed)
        s = stats[name, "agg"]
        art.metrics[f"{name}/min"] = s.min
        art.metrics[f"{name}/max"] = s.max
        art.metrics[f"{name}/avg"] = s.avg
    # Shape criteria (DESIGN.md / paper §6.1).  The remainder mode of a
    # 128 KB message is one packet in ninety, so the mode threshold must
    # sit below 1%.
    for name in ("sor", "2dfft", "hist"):
        art.checks[f"{name} trimodal"] = is_trimodal(
            get_trace(name, scale, seed), min_fraction=0.005
        )
    seq_trace = get_trace("seq", scale, seed)
    seq = stats["seq", "agg"]
    coalesced = float((seq_trace.sizes > 90).mean())
    art.metrics["seq/frac_above_90B"] = coalesced
    art.checks["seq packets small"] = seq.avg < 120 and coalesced < 0.05
    art.checks["seq min is 58"] = seq.min == 58
    art.checks["kernels span 58..1518"] = all(
        stats[n, "agg"].min == 58 and stats[n, "agg"].max == 1518
        for n in ("sor", "2dfft", "t2dfft", "hist")
    )
    t2 = stats["t2dfft", "conn"]
    art.checks["t2dfft conn near-max packets"] = t2.avg > 1300 and t2.sd < 400
    return art


def fig4_interarrival(scale: str = "default", seed: int = 0) -> Artifact:
    """Figure 4: packet interarrival time statistics (ms)."""
    art = Artifact("fig4", "Packet interarrival time statistics for Fx kernels")
    agg, conn, stats = _kernel_stat_tables(scale, seed, interarrival_stats, "ms")
    art.tables["aggregate"] = agg
    art.tables["connection"] = conn
    for name in KERNELS:
        s = stats[name, "agg"]
        art.metrics[f"{name}/avg_ms"] = s.avg
        art.metrics[f"{name}/max_over_avg"] = s.max / s.avg if s.avg else float("nan")
    # burstiness: max/avg ratio >> 1 for every kernel
    art.checks["bursty interarrivals"] = all(
        art.metrics[f"{n}/max_over_avg"] > 10 for n in KERNELS
    )
    art.checks["sor slowest connection"] = (
        stats["sor", "conn"].avg > 5 * stats["2dfft", "conn"].avg
    )
    return art


def fig5_bandwidth(scale: str = "default", seed: int = 0) -> Artifact:
    """Figure 5: average bandwidth for the Fx kernels (KB/s)."""
    art = Artifact("fig5", "Average bandwidth for Fx kernels")
    agg_rows, conn_rows = [], []
    bw = {}
    for name in KERNELS:
        trace = get_trace(name, scale, seed)
        b = average_bandwidth(trace)
        bw[name] = b
        agg_rows.append((name.upper(), round(b, 1)))
        pair = REPRESENTATIVE_CONNECTIONS.get(name)
        if pair is not None:
            conn = trace.connection(*pair)
            cb = conn.total_bytes / trace.duration / 1024 if trace.duration else 0
            bw[name, "conn"] = cb
            conn_rows.append((name.upper(), round(cb, 1)))
        else:
            conn_rows.append((name.upper(), None))
        art.metrics[f"{name}/KB_s"] = b
    art.tables["aggregate"] = format_table(["Program", "KB/s"], agg_rows, "(aggregate)")
    art.tables["connection"] = format_table(["Program", "KB/s"], conn_rows, "(connection)")
    # Shape criteria: ordering and capacity headroom.
    art.checks["2dfft heaviest"] = bw["2dfft"] > bw["t2dfft"]
    art.checks["ffts dominate others"] = min(bw["2dfft"], bw["t2dfft"]) > 4 * max(
        bw["seq"], bw["hist"], bw["sor"]
    )
    art.checks["sor lightest"] = bw["sor"] < min(bw["seq"], bw["hist"])
    art.checks["below ethernet capacity"] = bw["2dfft"] < 1.25e6 / 1024
    art.checks["t2dfft conn heavier than 2dfft conn"] = (
        bw["t2dfft", "conn"] > bw["2dfft", "conn"]
    )
    return art


# ---------------------------------------------------------------------------
# Figures 6-7: instantaneous bandwidth and spectra
# ---------------------------------------------------------------------------

#: Figure 6/7 panels: (program, aggregate-or-connection)
_FIG67_PANELS: List[Tuple[str, str]] = [
    ("sor", "aggregate"), ("sor", "connection"),
    ("2dfft", "aggregate"), ("2dfft", "connection"),
    ("t2dfft", "aggregate"), ("t2dfft", "connection"),
    ("seq", "aggregate"), ("hist", "aggregate"),
]


def _panel_trace(name, which, scale, seed):
    trace = get_trace(name, scale, seed)
    if which == "connection":
        trace = trace.connection(*REPRESENTATIVE_CONNECTIONS[name])
    return trace


def fig6_instantaneous(scale: str = "default", seed: int = 0) -> Artifact:
    """Figure 6: instantaneous bandwidth (10 ms sliding window), 10 s span."""
    art = Artifact("fig6", "Instantaneous bandwidth of Fx kernels (10ms window)")
    summary_rows = []
    for name, which in _FIG67_PANELS:
        trace = _panel_trace(name, which, scale, seed)
        t, bw = sliding_window_bandwidth(trace, window=0.010)
        if len(t):
            t0 = t[0]
            mask = t - t0 <= 10.0
            art.series[f"{name}-{which}"] = (t[mask] - t0, bw[mask])
            peak = float(bw.max())
        else:
            art.series[f"{name}-{which}"] = (t, bw)
            peak = 0.0
        # idle fraction over 10ms bins of the whole trace
        series = binned_bandwidth(trace, 0.010)
        idle = float((series.values == 0).mean())
        art.metrics[f"{name}-{which}/peak_KB_s"] = peak
        art.metrics[f"{name}-{which}/idle_fraction"] = idle
        summary_rows.append((f"{name.upper()} ({which})", round(peak, 0), round(idle, 3)))
    art.tables["summary"] = format_table(
        ["Panel", "Peak KB/s", "Idle fraction"], summary_rows,
        "Burst peaks and idle time (compute phases)",
    )
    # Compute/communicate alternation: long idle stretches on every panel.
    # Even the FFTs idle ~25% of the time in 10 ms bins; the light
    # kernels idle >80%.
    art.checks["substantial idle time"] = all(
        art.metrics[f"{n}-{w}/idle_fraction"] > 0.15 for n, w in _FIG67_PANELS
    )
    art.checks["bursts reach hundreds of KB/s"] = all(
        art.metrics[f"{n}-aggregate/peak_KB_s"] > 200
        for n in ("2dfft", "t2dfft", "hist")
    )
    return art


def fig7_spectra(scale: str = "default", seed: int = 0) -> Artifact:
    """Figure 7: power spectra of the kernels' binned bandwidth."""
    art = Artifact("fig7", "Power spectrum of bandwidth of Fx kernels (10ms bins)")
    peak_rows = []
    for name, which in _FIG67_PANELS:
        trace = _panel_trace(name, which, scale, seed)
        series = binned_bandwidth(trace, 0.010)
        spec = power_spectrum(series)
        art.series[f"{name}-{which}"] = (spec.freqs, spec.power)
        f0 = fundamental_frequency(spec)
        conc = spectral_concentration(spec, k=20)
        art.metrics[f"{name}-{which}/fundamental_Hz"] = f0
        art.metrics[f"{name}-{which}/concentration_top20"] = conc
        top = find_peaks(spec, k=3)
        peak_rows.append(
            (f"{name.upper()} ({which})", round(f0, 3), round(conc, 2),
             ", ".join(f"{f:.2f}" for f, _ in top))
        )
    art.tables["peaks"] = format_table(
        ["Panel", "Fundamental (Hz)", "Top-20 power frac", "Strongest peaks (Hz)"],
        peak_rows,
        "Spectral structure",
    )
    # Shape criteria: periodicity at the calibrated scales.
    art.checks["seq fundamental ~4 Hz"] = (
        abs(art.metrics["seq-aggregate/fundamental_Hz"] - 4.0) < 0.5
    )
    art.checks["hist fundamental ~5 Hz"] = (
        abs(art.metrics["hist-aggregate/fundamental_Hz"] - 5.0) < 0.5
    )
    art.checks["2dfft fundamental ~0.5 Hz"] = (
        0.3 < art.metrics["2dfft-aggregate/fundamental_Hz"] < 0.7
    )
    art.checks["spectra are spiky"] = all(
        art.metrics[f"{n}-aggregate/concentration_top20"] > 0.25
        for n in ("2dfft", "seq", "hist")
    )
    # harmonic combs: energy concentrated at multiples of the fundamental
    seq_spec = power_spectrum(
        binned_bandwidth(get_trace("seq", scale, seed), 0.010)
    )
    art.metrics["seq/harmonic_energy"] = harmonic_energy_ratio(seq_spec, 4.0, 10)
    art.checks["seq harmonic comb"] = art.metrics["seq/harmonic_energy"] > 0.5
    return art


# ---------------------------------------------------------------------------
# Figures 8-11: AIRSHED
# ---------------------------------------------------------------------------

def _airshed_traces(scale, seed):
    trace = get_trace("airshed", scale, seed)
    conn = trace.connection(*REPRESENTATIVE_CONNECTIONS["airshed"])
    return trace, conn


def fig8_airshed_packets(scale: str = "default", seed: int = 0) -> Artifact:
    """Figure 8: AIRSHED packet size statistics."""
    art = Artifact("fig8", "Packet size statistics for AIRSHED")
    trace, conn = _airshed_traces(scale, seed)
    s_agg = packet_size_stats(trace)
    s_conn = packet_size_stats(conn)
    headers = ["Program", "Min (B)", "Max (B)", "Avg (B)", "SD (B)"]
    art.tables["aggregate"] = format_table(
        headers, [("AIRSHED",) + s_agg.row()], "(aggregate)"
    )
    art.tables["connection"] = format_table(
        headers, [("AIRSHED",) + s_conn.row()], "(connection)"
    )
    art.metrics["agg/avg"] = s_agg.avg
    art.metrics["conn/avg"] = s_conn.avg
    # paper: the single connection's distribution mirrors the aggregate
    art.checks["connection mirrors aggregate"] = (
        abs(s_conn.avg - s_agg.avg) / s_agg.avg < 0.15
        and s_conn.min == s_agg.min
        and s_conn.max == s_agg.max
    )
    return art


def fig9_airshed_interarrival(scale: str = "default", seed: int = 0) -> Artifact:
    """Figure 9: AIRSHED interarrival statistics (ms)."""
    art = Artifact("fig9", "Packet interarrival time statistics for AIRSHED")
    trace, conn = _airshed_traces(scale, seed)
    s_agg = interarrival_stats(trace)
    s_conn = interarrival_stats(conn)
    headers = ["Program", "Min (ms)", "Max (ms)", "Avg (ms)", "SD (ms)"]
    art.tables["aggregate"] = format_table(
        headers, [("AIRSHED",) + s_agg.row()], "(aggregate)"
    )
    art.tables["connection"] = format_table(
        headers, [("AIRSHED",) + s_conn.row()], "(connection)"
    )
    art.metrics["agg/avg_ms"] = s_agg.avg
    art.metrics["agg/max_ms"] = s_agg.max
    art.metrics["agg/max_over_avg"] = s_agg.max / s_agg.avg
    # paper: an order of magnitude above the kernels; very bursty
    kernel_max = max(
        interarrival_stats(get_trace(n, scale, seed)).max
        for n in ("2dfft", "t2dfft", "hist")
    )
    art.checks["interarrival max exceeds kernels"] = s_agg.max > 3 * kernel_max
    art.checks["bursty"] = s_agg.max / s_agg.avg > 50
    return art


def fig10_airshed_bandwidth(scale: str = "default", seed: int = 0) -> Artifact:
    """Figure 10: AIRSHED instantaneous bandwidth, 500 s and 60 s spans."""
    art = Artifact("fig10", "Instantaneous bandwidth of AIRSHED (10ms window)")
    trace, conn = _airshed_traces(scale, seed)
    for label, tr in (("aggregate", trace), ("connection", conn)):
        t, bw = sliding_window_bandwidth(tr, window=0.010)
        if not len(t):
            continue
        t0 = t[0]
        for span in (500.0, 60.0):
            mask = t - t0 <= span
            art.series[f"{label}-{int(span)}s"] = (t[mask] - t0, bw[mask])
    agg_bw = average_bandwidth(trace)
    conn_bw = conn.total_bytes / trace.duration / 1024
    art.metrics["agg/KB_s"] = agg_bw
    art.metrics["conn/KB_s"] = conn_bw
    art.tables["average"] = format_table(
        ["Scope", "KB/s"],
        [("aggregate", round(agg_bw, 1)), ("connection", round(conn_bw, 1))],
        "Average bandwidth (paper: 32.7 / 2.7 KB/s)",
    )
    series = binned_bandwidth(trace, 0.010)
    art.metrics["idle_fraction"] = float((series.values == 0).mean())
    art.checks["mostly idle between bursts"] = art.metrics["idle_fraction"] > 0.7
    art.checks["connection ~ aggregate/12"] = (
        0.04 < conn_bw / agg_bw < 0.14  # 12 connections share the transposes
    )
    return art


def fig11_airshed_spectra(scale: str = "default", seed: int = 0) -> Artifact:
    """Figure 11: AIRSHED power spectra at three zoom levels."""
    art = Artifact("fig11", "Power spectrum of bandwidth of AIRSHED (10ms bins)")
    trace, conn = _airshed_traces(scale, seed)
    bands = [(0.0, 0.1), (0.0, 1.0), (0.0, 20.0)]
    for label, tr in (("aggregate", trace), ("connection", conn)):
        spec = power_spectrum(binned_bandwidth(tr, 0.010))
        for f0, f1 in bands:
            sub = spec.band(f0, f1)
            art.series[f"{label}-{f1}Hz"] = (sub.freqs, sub.power)
    spec = power_spectrum(binned_bandwidth(trace, 0.010))
    # The three peak families (paper: ~0.015 Hz, ~0.2 Hz, ~5 Hz).
    hour_band = spec.band(0.005, 0.05)
    chem_band = spec.band(0.1, 0.4)
    # The horizontal-transport family: the burst-pair spacing is
    # 2*t_h + transpose; with t_h ~ 0.2 s and ~0.4 s of transpose it
    # lands near 1-2.5 Hz in our calibration.
    transport_band = spec.band(0.8, 8.0)
    def peak_of(band):
        peaks = find_peaks(band, k=1, min_prominence=0.0)
        return peaks[0][0] if peaks else float("nan")
    art.metrics["hour_peak_Hz"] = peak_of(hour_band)
    art.metrics["chem_peak_Hz"] = peak_of(chem_band)
    art.metrics["transport_peak_Hz"] = peak_of(transport_band)
    rows = [
        ("simulation hour", "0.005-0.05", round(art.metrics["hour_peak_Hz"], 4)),
        ("chemistry step", "0.1-0.4", round(art.metrics["chem_peak_Hz"], 3)),
        ("horizontal transport", "0.8-8.0", round(art.metrics["transport_peak_Hz"], 2)),
    ]
    art.tables["peaks"] = format_table(
        ["Time scale", "Band (Hz)", "Peak (Hz)"], rows,
        "Three periodicities (paper: ~0.015, ~0.2, ~5 Hz)",
    )
    art.checks["hour-scale peak"] = 0.005 < art.metrics["hour_peak_Hz"] < 0.05
    art.checks["chemistry-scale peak"] = 0.1 < art.metrics["chem_peak_Hz"] < 0.4
    art.checks["transport-scale peak"] = 0.8 < art.metrics["transport_peak_Hz"] < 8.0
    hour = art.metrics["hour_peak_Hz"]
    art.checks["scales separated"] = (
        art.metrics["chem_peak_Hz"] > 5 * hour
        and art.metrics["transport_peak_Hz"] > 4 * art.metrics["chem_peak_Hz"]
    )
    return art


# ---------------------------------------------------------------------------
# §7.2 model and §7.3 QoS experiments
# ---------------------------------------------------------------------------

def model_convergence(scale: str = "default", seed: int = 0) -> Artifact:
    """§7.2: truncated-Fourier approximation converges with spike count."""
    art = Artifact("model", "Spectral model convergence (paper §7.2)")
    spike_counts = [1, 2, 5, 10, 20, 50, 100, 200]
    rows = []
    for name in ("2dfft", "seq", "hist"):
        trace = get_trace(name, scale, seed)
        series = binned_bandwidth(trace, 0.010)
        full = SpectralModel.fit(series, n_spikes=max(spike_counts))
        errors = [full.truncated(k).error(series) for k in spike_counts]
        rows.append((name.upper(),) + tuple(round(e, 3) for e in errors))
        art.series[name] = (np.array(spike_counts, dtype=float), np.array(errors))
        art.metrics[f"{name}/err@10"] = errors[spike_counts.index(10)]
        art.metrics[f"{name}/err@200"] = errors[-1]
        art.checks[f"{name} error non-increasing"] = all(
            b <= a + 1e-9 for a, b in zip(errors, errors[1:])
        )
        art.checks[f"{name} converges"] = errors[-1] < errors[0] * 0.8
        # Generated traffic reproduces the modelled bandwidth.  The
        # comparison bin-averages the clipped reconstruction (a point
        # sample misrepresents impulsive signals with high harmonics).
        model = full.truncated(50)
        gen = SpectralTrafficGenerator(model)
        dur = min(20.0, series.duration)
        synth = gen.generate(duration=dur, dt=0.010, t0=series.t0)
        got = binned_bandwidth(synth, 0.1, t0=series.t0, t1=series.t0 + dur)
        fine_t = series.t0 + 0.010 * np.arange(int(dur / 0.010)) + 0.005
        fine = np.maximum(model.reconstruct(fine_t), 0.0)
        n = min(len(fine) // 10, len(got.values))
        want = fine[: n * 10].reshape(n, 10).mean(axis=1)
        err = series_nrmse(np.maximum(want, 1e-9), got.values[:n])
        art.metrics[f"{name}/generation_nrmse"] = err
        art.checks[f"{name} generator tracks model"] = err < 0.35
    art.tables["convergence"] = format_table(
        ["Program"] + [f"k={k}" for k in spike_counts],
        rows,
        "NRMSE of truncated Fourier reconstruction vs spike count",
    )
    return art


def qos_negotiation(scale: str = "default", seed: int = 0) -> Artifact:
    """§7.3: the network returns the P minimizing the burst interval."""
    art = Artifact("qos", "QoS negotiation model (paper §7.3)")
    net = Network(capacity=1.25e6)
    candidates = (2, 4, 8, 16, 32)
    rows = []
    for name in KERNELS:
        program = make_program(name)
        char = characterize_program(program, CALIBRATIONS[name].work_rate)
        result = net.negotiate(char, candidates)
        for p in result.curve:
            rows.append(
                (name.upper(), p.nprocs, p.active_connections,
                 round(p.burst_bandwidth / 1024, 1),
                 round(p.burst_length * 1e3, 2),
                 round(p.burst_interval * 1e3, 1),
                 "*" if p.nprocs == result.nprocs else "")
            )
        art.metrics[f"{name}/chosen_P"] = result.nprocs
        art.series[name] = (
            np.array([p.nprocs for p in result.curve], dtype=float),
            np.array([p.burst_interval for p in result.curve]),
        )
    art.tables["negotiation"] = format_table(
        ["Program", "P", "Active conns", "B (KB/s)", "t_b (ms)", "t_bi (ms)", "chosen"],
        rows,
        "Burst-interval minimization over processor count",
    )
    # The tension: the compute-heavy neighbor kernel scales to more
    # processors than the all-to-all FFT on the same network.
    art.checks["sor scales further than 2dfft"] = (
        art.metrics["sor/chosen_P"] >= art.metrics["2dfft/chosen_P"]
    )
    art.checks["every kernel got an answer"] = all(
        art.metrics[f"{n}/chosen_P"] in candidates for n in KERNELS
    )
    return art


def synthetic_twin(scale: str = "default", seed: int = 0) -> Artifact:
    """§7.2's full loop: measure -> fit -> generate a synthetic twin.

    For each kernel, a 50-spike spectral model is fitted to the measured
    trace and used to generate synthetic traffic of the same duration;
    the twin must match the original's mean bandwidth and fundamental
    frequency — the operational meaning of "analytic models to generate
    similar traffic".
    """
    art = Artifact("twin", "Synthetic traffic twins from spectral models (§7.2)")
    rows = []
    for name in KERNELS:
        trace = get_trace(name, scale, seed)
        series = binned_bandwidth(trace, 0.010)
        model = SpectralModel.fit(series, n_spikes=50)
        duration = min(40.0, series.duration)
        synth = SpectralTrafficGenerator(model, normalize_volume=True).generate(
            duration=duration, dt=0.010, t0=series.t0
        )
        # measured vs twin: mean bandwidth and fundamental
        meas_bw = series.values.mean()
        twin_series = binned_bandwidth(synth, 0.010, t0=series.t0,
                                       t1=series.t0 + duration)
        twin_bw = twin_series.values.mean()
        meas_f0 = fundamental_frequency(power_spectrum(series))
        twin_f0 = fundamental_frequency(power_spectrum(twin_series))
        art.metrics[f"{name}/measured_KB_s"] = meas_bw
        art.metrics[f"{name}/twin_KB_s"] = twin_bw
        art.metrics[f"{name}/measured_f0"] = meas_f0
        art.metrics[f"{name}/twin_f0"] = twin_f0
        rows.append(
            (name.upper(), round(meas_bw, 1), round(twin_bw, 1),
             round(meas_f0, 2), round(twin_f0, 2), len(synth))
        )
        art.checks[f"{name} twin bandwidth"] = (
            abs(twin_bw - meas_bw) <= 0.15 * max(meas_bw, 1.0)
        )
        if meas_f0 > 0 and twin_f0 > 0:
            # Fundamental estimation on a comb can lock onto an octave
            # neighbour (the 2nd harmonic often dominates T2DFFT); the
            # twin matches when the two estimates are harmonically
            # equivalent.
            ratio = twin_f0 / meas_f0
            art.checks[f"{name} twin periodicity"] = any(
                abs(ratio - r) <= 0.25 * r for r in (0.5, 1.0, 2.0)
            )
    art.tables["twins"] = format_table(
        ["Program", "Measured KB/s", "Twin KB/s", "Measured f0 (Hz)",
         "Twin f0 (Hz)", "Twin packets"],
        rows,
        "Each kernel and its model-generated twin",
    )
    return art


def baseline_comparison(scale: str = "default", seed: int = 0) -> Artifact:
    """§1/§8: Fx traffic is fundamentally unlike typical network traffic."""
    art = Artifact("baseline", "Fx traffic vs classical traffic models")
    duration = 60.0
    sources = {
        "POISSON": PoissonTraffic(rate=1500.0, seed=seed).generate(duration),
        "ON-OFF": OnOffTraffic(seed=seed).generate(duration),
        "SELF-SIM": SelfSimilarTraffic(seed=seed).generate(duration),
        "VBR-VIDEO": VbrVideoTraffic(seed=seed).generate(duration),
        "2DFFT": get_trace("2dfft", scale, seed),
        "HIST": get_trace("hist", scale, seed),
        "AIRSHED": get_trace("airshed", scale, seed),
    }
    rows = []
    for label, trace in sources.items():
        series = binned_bandwidth(trace, 0.010)
        spec = power_spectrum(series)
        flat = spectral_flatness(spec)
        conc = spectral_concentration(spec, k=20)
        coarse = binned_bandwidth(trace, 0.050)
        try:
            h = hurst_aggregated_variance(coarse.values)
        except ValueError:
            h = float("nan")
        constancy = burst_size_constancy(trace)
        rho = connection_correlation(trace)
        rows.append(
            (label, round(flat, 3), round(conc, 2), round(h, 2),
             round(constancy, 2) if constancy == constancy else None,
             round(rho, 2) if rho == rho else None)
        )
        key = label.lower()
        art.metrics[f"{key}/flatness"] = flat
        art.metrics[f"{key}/concentration"] = conc
        art.metrics[f"{key}/hurst"] = h
    art.tables["comparison"] = format_table(
        ["Source", "Spectral flatness", "Top-20 conc.", "Hurst",
         "Burst CoV", "Conn corr"],
        rows,
        "Traffic character: parallel programs vs classical models",
    )
    art.checks["fx spikier than poisson"] = (
        art.metrics["2dfft/concentration"] > 2 * art.metrics["poisson/concentration"]
    )
    art.checks["poisson flat, fx not"] = (
        art.metrics["poisson/flatness"] > 1.5 * art.metrics["2dfft/flatness"]
    )
    art.checks["self-similar has high hurst"] = art.metrics["self-sim/hurst"] > 0.65
    # Correlated connections: demonstrated on the tree kernel (all
    # connections of a phase co-active) and AIRSHED's transposes.  The
    # all-to-all shift schedule *serializes* its rounds on the shared
    # wire, so its connections only co-occur at phase granularity.
    art.metrics["hist/conn_corr"] = connection_correlation(
        get_trace("hist", scale, seed)
    )
    art.metrics["airshed/conn_corr"] = connection_correlation(
        get_trace("airshed", scale, seed), bin_width=0.5
    )
    art.checks["fx connections correlated"] = (
        art.metrics["hist/conn_corr"] > 0.5
        and art.metrics["airshed/conn_corr"] > 0.3
    )
    return art


#: The experiment registry: id -> runner(scale, seed).
EXPERIMENTS: Dict[str, Callable[..., Artifact]] = {
    "fig1": fig1_patterns,
    "fig2": fig2_kernels,
    "fig3": fig3_packet_sizes,
    "fig4": fig4_interarrival,
    "fig5": fig5_bandwidth,
    "fig6": fig6_instantaneous,
    "fig7": fig7_spectra,
    "fig8": fig8_airshed_packets,
    "fig9": fig9_airshed_interarrival,
    "fig10": fig10_airshed_bandwidth,
    "fig11": fig11_airshed_spectra,
    "model": model_convergence,
    "twin": synthetic_twin,
    "qos": qos_negotiation,
    "baseline": baseline_comparison,
}


#: The measured traces each experiment consumes.  ``repro run`` and
#: ``repro all`` produce the union of these as one batch through the
#: sweep engine before any (analysis-only) runner executes, so every
#: ``get_trace`` inside a runner is a cache hit.  Experiments absent
#: here (fig1, fig2, qos) are analytic and touch no traces.
EXPERIMENT_TRACES: Dict[str, Tuple[str, ...]] = {
    "fig3": KERNELS,
    "fig4": KERNELS,
    "fig5": KERNELS,
    "fig6": KERNELS,
    "fig7": KERNELS,
    "fig8": ("airshed",),
    "fig9": ("2dfft", "t2dfft", "hist", "airshed"),
    "fig10": ("airshed",),
    "fig11": ("airshed",),
    "model": ("2dfft", "seq", "hist"),
    "twin": KERNELS,
    "baseline": ("2dfft", "hist", "airshed"),
}


def run_experiment(exp_id: str, scale: str = "default", seed: int = 0
                   ) -> Artifact:
    """Run one registered experiment by id."""
    try:
        runner = EXPERIMENTS[exp_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {exp_id!r}; known: {sorted(EXPERIMENTS)}"
        ) from None
    return runner(scale=scale, seed=seed)
