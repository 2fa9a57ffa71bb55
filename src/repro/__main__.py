"""Command-line interface: run and export paper experiments.

Usage::

    python -m repro list
    python -m repro run fig7 [--scale default|full|smoke] [--seed N]
                             [--export DIR] [--faults SPEC] [--sanitize]
                             [--jobs N]
    python -m repro all [--scale ...] [--seed N] [--export DIR] [--jobs N]
    python -m repro trace 2dfft --out trace.npz [--scale ...] [--text]
                                [--faults "loss=0.01,seed=1"] [--sanitize]
                                [--route direct|default|switched]
    python -m repro qmon 2dfft [--route switched] [--scale ...] [--seed N]
                               [--window W] [--burst-depth N]
                               [--burst-duration S] [--top-k K]
                               [--out qmon.json] [--emit-chrome FILE]
    python -m repro cache stats|clear|warm [--jobs N] [--dir DIR]
    python -m repro cache scrub [--repair] [--dir DIR]
    python -m repro sweep 'program=* scale=smoke seed=0..3' --jobs 4
                          [--manifest FILE] [--cache-dir DIR] [--qmon-dir DIR]
                          [--chaos 'kill-worker=P,hang=P,corrupt-cache=P,seed=N']
                          [--task-timeout S] [--retries N] [--journal FILE]
    python -m repro faults show "loss=0.01,stall=2:10-20:3"
    python -m repro faults demo [--scale smoke] [--loss 0.01]
    python -m repro lint [paths...] [--select/--ignore SIMxxx,...]
                         [--format text|json] [--baseline FILE] [--stats]
                         [--comm]
    python -m repro xray PROG [--nprocs P] [--scale ...] [--iterations N]
                              [--validate] [--seed N] [--format text|json]
                              [--out FILE]
    python -m repro profile sor [--scale ...] [--seed N] [--top N]
                                [--emit-chrome [FILE]] [--emit-metrics [FILE]]

``run``/``all``/``cache`` share the persistent trace cache: the
directory is ``--cache-dir`` (``--dir`` for ``cache``), else the
``REPRO_TRACE_CACHE`` environment variable, else
``results/.trace-cache``.  Traces simulated once are reused by every
later invocation.  ``--no-cache`` keeps a run's traces in memory only.

Before any runner starts, ``run`` and ``all`` collect the traces their
runners declare (``EXPERIMENT_TRACES``, plus ``ABLATION_TRACES`` under
``--ablations``) into one batch, longest simulation first, and produce
its cache misses on a worker pool, which is shut down before the
command returns.  ``--jobs`` defaults to every CPU the process may use,
capped at the batch size (``cache warm`` likewise); ``--jobs 1``
produces the batch serially in this process.  Traces are byte-identical
either way.

``--sanitize`` runs the simulation under the runtime sanitizer
(:mod:`repro.simlint.sanitizer`): invariant violations raise instead of
silently corrupting figures.  It implies ``--no-cache`` so traces are
actually re-simulated under observation, in this process; the traces
produced stay byte-identical to unsanitized runs.

``--telemetry`` (on ``run``, ``all`` and ``trace``, the commands that
simulate in this process) installs the process-wide telemetry observer
(:mod:`repro.telemetry`), which every simulator the command builds
attaches, and prints a counter summary when it finishes.  Like
``--sanitize`` it implies ``--no-cache`` for ``run``/``all`` (cached
traces involve no simulation to observe, and pool workers' counters
would never reach this process) and leaves trace bytes untouched.
``REPRO_SANITIZE`` set in the environment counts as ``--sanitize``.
``--faults``, ``--sanitize`` and ``--telemetry`` hold for one command:
``main()`` puts back the fault plan, ``REPRO_SANITIZE`` and telemetry
instance it found once the command returns.
``repro profile`` is the dedicated front-end: a sampling profile of an
unobserved run per ``repro`` module, beside the counters of a run under
a private telemetry instance, with optional Chrome-trace and
``metrics.json`` exports.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .harness import (ABLATIONS, EXPERIMENTS, default_faults,
                      export_artifact, set_default_faults)
from .telemetry import (disable_process_telemetry, enable_process_telemetry,
                        process_telemetry)

ALL_RUNNERS = {**EXPERIMENTS, **ABLATIONS}

DEFAULT_CACHE_DIR = "results/.trace-cache"


def _store(args):
    """The process-wide trace store: memory-only under ``--no-cache``,
    else on disk at ``--cache-dir``, ``REPRO_TRACE_CACHE`` or
    :data:`DEFAULT_CACHE_DIR`, in that order."""
    from .harness import configure_trace_store
    from .harness.store import CACHE_ENV_VAR

    if getattr(args, "no_cache", False):
        return configure_trace_store(disk_dir=None)
    directory = (getattr(args, "cache_dir", None)
                 or os.environ.get(CACHE_ENV_VAR) or DEFAULT_CACHE_DIR)
    return configure_trace_store(disk_dir=directory)


def _env_on(name: str) -> bool:
    return os.environ.get(name, "").strip().lower() in ("1", "true", "yes",
                                                        "on")


def _jobs(args, batch_size: int) -> int:
    """``--jobs``, by default every CPU this process may use but no more
    workers than traces in the batch."""
    if args.jobs is not None:
        return args.jobs
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform can pin a process
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, batch_size))


def trace_batch(exp_ids, scale: str, seed: int):
    """The traces the runners ``exp_ids`` declare, as warm-style specs:
    deduplicated in first-seen order, then sorted longest first."""
    from .harness.ablations import ablation_trace_specs
    from .harness.experiments import EXPERIMENT_TRACES, longest_first
    from .harness.sweep import as_work_items

    specs = []
    for exp_id in exp_ids:
        specs += [(name, scale, seed)
                  for name in EXPERIMENT_TRACES.get(exp_id, ())]
        specs += ablation_trace_specs(exp_id, scale, seed)
    return longest_first([(key.name, key.scale, key.seed, overrides)
                          for key, overrides in as_work_items(specs)])


def _cmd_list(args) -> int:
    width = max(len(k) for k in ALL_RUNNERS)
    for exp_id, fn in ALL_RUNNERS.items():
        doc = (fn.__doc__ or "").strip().splitlines()[0]
        print(f"{exp_id.ljust(width)}  {doc}")
    return 0


def _produce_batch(exp_ids, args) -> None:
    """Set up a ``run``/``all`` process, then produce the traces the
    runners ``exp_ids`` declare as one batch, before any runner starts.

    Observed runs (sanitizer or telemetry) imply ``--no-cache``: with a
    memory-only store the sweep engine produces in this process, where
    the observers are.  The pool is shut down once the batch is done."""
    from .harness import prefetch_traces
    from .harness.sweep import shutdown_pool

    _parse_faults(args)
    _apply_sanitize(args)
    _apply_telemetry(args)
    if _env_on("REPRO_SANITIZE") or process_telemetry() is not None:
        args.no_cache = True
    _store(args)
    batch = trace_batch(exp_ids, args.scale, args.seed)
    if not batch:
        return
    try:
        prefetch_traces(batch, jobs=_jobs(args, len(batch)))
    finally:
        shutdown_pool()


def _run_one(exp_id: str, args) -> bool:
    from .harness import run_ablation, run_experiment

    run = run_experiment if exp_id in EXPERIMENTS else run_ablation
    artifact = run(exp_id, scale=args.scale, seed=args.seed)
    print(artifact.render())
    print()
    if getattr(args, "plot", False) and artifact.series:
        from .harness import render_series

        print(render_series(artifact.series))
    if args.export:
        root = export_artifact(artifact, args.export)
        print(f"[exported to {root}]")
    return artifact.all_checks_pass


def _parse_faults(args):
    """Validate ``--faults`` early and install it as the process default.

    Returns the parsed plan (or None), or raises SystemExit(2) with the
    parse error on stderr.
    """
    spec = getattr(args, "faults", None)
    if not spec:
        return None
    from .faults import FaultPlan

    try:
        plan = FaultPlan.coerce(spec)
    except ValueError as exc:
        print(f"bad --faults spec: {exc}", file=sys.stderr)
        raise SystemExit(2)
    set_default_faults(plan)
    return plan


def _apply_sanitize(args) -> None:
    """Honor ``--sanitize``: every simulator this process builds attaches
    the runtime sanitizer (traces stay byte-identical, so nothing
    downstream changes)."""
    if getattr(args, "sanitize", False):
        os.environ["REPRO_SANITIZE"] = "1"


def _apply_telemetry(args) -> None:
    """Honor ``--telemetry``: install the process-wide telemetry
    instance, which every simulator this command builds attaches; trace
    bytes are unchanged."""
    if args.telemetry:
        enable_process_telemetry()


def _print_telemetry_summary(top: int = 10) -> None:
    """Counter summary for ``--telemetry`` runs (no-op when disabled)."""
    tel = process_telemetry()
    if tel is None or not tel.counters:
        return
    print(f"telemetry: {len(tel.counters)} counters, "
          f"{len(tel.spans)} spans")
    by_value = sorted(tel.counters.items(), key=lambda kv: (-kv[1], kv[0]))
    for name, value in by_value[:top]:
        print(f"  {name:<32} {value:>14.0f}")


def _cmd_run(args) -> int:
    if args.experiment not in ALL_RUNNERS:
        print(f"unknown experiment {args.experiment!r}; "
              f"known: {', '.join(ALL_RUNNERS)}", file=sys.stderr)
        return 2
    _produce_batch([args.experiment], args)
    ok = _run_one(args.experiment, args)
    _print_telemetry_summary()
    return 0 if ok else 1


def _cmd_all(args) -> int:
    runners = ALL_RUNNERS if args.ablations else EXPERIMENTS
    _produce_batch(runners, args)
    failures = []
    for exp_id in runners:
        if not _run_one(exp_id, args):
            failures.append(exp_id)
        print("=" * 72)
    _print_telemetry_summary()
    if failures:
        print(f"shape criteria FAILED for: {', '.join(failures)}", file=sys.stderr)
        return 1
    print("all shape criteria pass")
    return 0


# -- sweep engine -----------------------------------------------------


def _cmd_sweep(args) -> int:
    """``repro sweep GRID``: produce a grid through the trace cache.

    SIGINT/SIGTERM drain in-flight keys and exit 130; rerunning with the
    same ``--journal`` resumes.  A detached run is plain shell job
    control (``nohup python -m repro sweep GRID --journal J ... &``).
    """
    import signal
    import threading

    from .harness.resilience import ChaosPlan, RetryPolicy, SweepJournal
    from .harness.sweep import GridError, parse_grid, run_sweep

    try:
        grid = parse_grid(args.tokens)
    except GridError as exc:
        print(f"bad grid: {exc}", file=sys.stderr)
        return 2
    chaos = None
    if args.chaos:
        try:
            chaos = ChaosPlan.parse(args.chaos)
        except ValueError as exc:
            print(f"bad --chaos spec: {exc}", file=sys.stderr)
            return 2
    store = _store(args)
    total_hint = grid.size
    stride = max(1, total_hint // 20)

    def stream(prog, entry) -> None:
        if prog.done % stride == 0 or prog.done == prog.total:
            print(f"  {prog.describe()}", file=sys.stderr)

    # Graceful shutdown: first SIGINT/SIGTERM drains in-flight keys and
    # checkpoints the journal; the run exits 130, resumable via the same
    # --journal file.
    stop = threading.Event()
    previous = {}

    def request_stop(signum, frame) -> None:  # noqa: ARG001
        stop.set()
        print("  [draining: finishing in-flight keys, "
              "checkpointing journal]", file=sys.stderr)

    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[sig] = signal.signal(sig, request_stop)
        except ValueError:
            pass
    journal = SweepJournal(args.journal) if args.journal else None
    try:
        result = run_sweep(
            grid, jobs=args.jobs, store=store,
            progress=None if args.quiet else stream,
            retry=RetryPolicy(max_attempts=args.retries + 1),
            chaos=chaos, task_timeout=args.task_timeout,
            journal=journal, stop=stop, qmon_dir=args.qmon_dir,
        )
    except ValueError as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return 2
    finally:
        if journal is not None:
            journal.close()
        for sig, handler in previous.items():
            try:
                signal.signal(sig, handler)
            except ValueError:
                pass
    for entry in result.failed:
        print(f"FAILED  {entry.key.describe():<28} {entry.error}",
              file=sys.stderr)
    stats = result.stats()
    resilience = result.resilience or {}
    tail = ""
    if any(resilience.values()):
        tail = ("  [" + ", ".join(
            f"{name}={value}" for name, value in sorted(resilience.items())
            if value) + "]")
    print(f"sweep complete: {stats['keys']} keys "
          f"({stats['cache_hits']} hit, {stats['produced']} produced, "
          f"{stats['replayed']} replayed, "
          f"{stats['failed']} failed) in {stats['wall_seconds']:.2f}s "
          f"with {args.jobs} job{'s' if args.jobs != 1 else ''} "
          f"-> {store.disk_dir}{tail}")
    print(f"manifest sha256={result.manifest_digest()}")
    if args.manifest:
        path = result.write_manifest(args.manifest)
        print(f"[manifest -> {path}]")
    if result.interrupted:
        print(f"sweep interrupted at {stats['keys']} of "
              f"{stats['total_keys']} keys"
              + (f"; resume with --journal {args.journal}"
                 if args.journal else ""),
              file=sys.stderr)
        return 130
    return 1 if result.failed else 0


# -- trace cache ------------------------------------------------------


def _cmd_cache_stats(args) -> int:
    store = _store(args)
    entries = store.disk_entries()
    total = sum(e["bytes"] for e in entries)
    print(f"cache dir: {store.disk_dir}")
    print(f"entries:   {len(entries)}  ({total / 1024:.1f} KiB)")
    for e in entries:
        key = e.get("key", {})
        tag = (f"{key.get('name', '?')}/{key.get('scale', '?')}"
               f"/seed{key.get('seed', '?')}")
        extra = " +overrides" if key.get("overrides") else ""
        print(f"  {e['digest'][:12]}  schema={e.get('schema')}  "
              f"{e.get('packets', 0):>8} pkts  {tag}{extra}")
    print(f"this process: {store.stats.as_dict()}")
    return 0


def _cmd_cache_clear(args) -> int:
    store = _store(args)
    removed = store.clear(disk=True)
    print(f"removed {removed} cache files from {store.disk_dir}")
    return 0


def _cmd_cache_scrub(args) -> int:
    """``repro cache scrub``: verify every npz against its sidecar sha."""
    store = _store(args)
    report = store.scrub(repair=args.repair)
    print(f"cache dir: {store.disk_dir}")
    print(report.describe())
    for entry in report.corrupt:
        print(f"  {entry.status:<9} {entry.digest[:16]}  {entry.detail}")
    for entry in report.orphans:
        print(f"  {entry.status:<9} {entry.digest[:16]}  {entry.detail}")
    unresolved = [e for e in report.corrupt if e.status != "repaired"]
    return 1 if unresolved else 0


def _cmd_cache_warm(args) -> int:
    from .harness.experiments import longest_first, trace_specs
    from .programs import PROGRAMS

    store = _store(args)
    try:
        seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError:
        print(f"--seeds must be comma-separated integers, got {args.seeds!r}",
              file=sys.stderr)
        return 2
    programs = args.programs.split(",") if args.programs else None
    unknown = [p for p in programs or () if p not in PROGRAMS]
    if unknown:
        print(f"unknown programs: {', '.join(unknown)}; "
              f"known: {', '.join(PROGRAMS)}", file=sys.stderr)
        return 2
    plan = _parse_faults(args)
    specs = longest_first(trace_specs(scale=args.scale, seeds=seeds,
                                      programs=programs, faults=plan))
    jobs = _jobs(args, len(specs))
    results = store.warm(specs, jobs=jobs)
    produced = sum(1 for r in results if r.produced and r.ok)
    failed = [r for r in results if not r.ok]
    for r in results:
        if not r.ok:
            print(f"FAILED    {r.key.describe():<28} {r.error}")
        else:
            state = "produced" if r.produced else "cached  "
            print(f"{state}  {r.key.describe():<28} {r.packets:>8} pkts  "
                  f"sha256={r.trace_sha256[:16]}")
    print(f"warm complete: {produced} produced, "
          f"{len(results) - produced - len(failed)} already cached, "
          f"{len(failed)} failed "
          f"({jobs} job{'s' if jobs != 1 else ''}) "
          f"-> {store.disk_dir}")
    if failed:
        print(f"warm FAILED for: "
              f"{', '.join(r.key.describe() for r in failed)}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_trace(args) -> int:
    from .capture import save_npz, save_text, trace_digest
    from .programs import PROGRAMS, run_measured

    if args.program not in PROGRAMS:
        print(f"unknown program {args.program!r}; known: {', '.join(PROGRAMS)}",
              file=sys.stderr)
        return 2
    plan = _parse_faults(args)
    _apply_sanitize(args)
    _apply_telemetry(args)
    route = getattr(args, "route", "direct")
    detail: dict = {}
    try:
        trace = run_measured(args.program, scale=args.scale, seed=args.seed,
                             faults=plan, route=route,
                             qmon=True if route == "switched" else None,
                             sanitize=True if args.sanitize else None,
                             detail=detail)
    except ValueError as exc:
        print(f"trace: {exc}", file=sys.stderr)
        return 2
    if args.text:
        save_text(trace, args.out)
    else:
        save_npz(trace, args.out)
    print(f"{args.program}: {len(trace)} packets over {trace.duration:.1f} s "
          f"-> {args.out}")
    print(f"sha256={trace_digest(trace)}")
    mon = detail.get("qmon")
    if mon is not None:
        print(f"switched: max queue depth {mon.max_depth_frames()} frames, "
              f"{mon.total_drops()} drop(s)")
        for sid in sorted(mon.ports):
            pm = mon.ports[sid]
            print(f"  port{sid}: max depth {pm.max_depth_frames} frames, "
                  f"{len(pm.drops)} drop(s)")
    if plan is not None:
        drops = detail.get("drops", {})
        dropped = ", ".join(f"{k}={v}" for k, v in sorted(drops.items()))
        print(f"faults: {plan.describe()}")
        print(f"drops: {dropped or 'none'}")
        print(f"retransmissions: {detail.get('retransmitted_segments', 0)} "
              f"segments ({trace.retransmit_share():.1%} of bytes)")
    _print_telemetry_summary()
    return 0


def _cmd_qmon(args) -> int:
    from .capture import trace_digest
    from .netmon import build_manifest, format_qmon, validate_qmon, write_qmon
    from .programs import PROGRAMS, run_measured

    if args.program not in PROGRAMS:
        print(f"unknown program {args.program!r}; known: {', '.join(PROGRAMS)}",
              file=sys.stderr)
        return 2
    tel = None
    if args.emit_chrome is not None:
        from .telemetry import Telemetry

        tel = Telemetry(label=f"qmon {args.program}/{args.scale}")
    config = {
        "window": args.window,
        "burst_depth": args.burst_depth,
        "burst_min_duration": args.burst_duration,
        "top_k": args.top_k,
    }
    detail: dict = {}
    try:
        trace = run_measured(
            args.program, scale=args.scale, seed=args.seed,
            nprocs=args.nprocs, iterations=args.iterations,
            route=args.route, qmon=config, telemetry=tel, detail=detail,
        )
    except (KeyError, ValueError) as exc:
        print(f"qmon: {exc}", file=sys.stderr)
        return 2
    print(f"{args.program}: {len(trace)} packets over {trace.duration:.1f} s "
          f"({args.route} route)")
    print(f"sha256={trace_digest(trace)}")
    doc = build_manifest(detail["qmon"], meta={
        "program": args.program, "scale": args.scale, "seed": args.seed,
        "nprocs": args.nprocs, "route": args.route,
    })
    problems = validate_qmon(doc)
    if problems:
        for problem in problems:
            print(f"qmon: invalid manifest: {problem}", file=sys.stderr)
        return 1
    print(format_qmon(doc))
    if args.out is not None:
        write_qmon(args.out, doc)
        print(f"[qmon manifest -> {args.out}]")
    if tel is not None:
        from .telemetry import write_chrome

        doc_chrome = write_chrome(tel, args.emit_chrome,
                                  label=f"qmon {args.program}/{args.scale}")
        print(f"[chrome trace: {len(doc_chrome['traceEvents'])} events "
              f"-> {args.emit_chrome}]")
    return 0


# -- profiling --------------------------------------------------------


def _cmd_profile(args) -> int:
    from .programs import PROGRAMS
    from .telemetry import (format_profile, profile_program, write_chrome,
                            write_metrics)

    if args.program not in PROGRAMS:
        print(f"unknown program {args.program!r}; known: {', '.join(PROGRAMS)}",
              file=sys.stderr)
        return 2
    plan = _parse_faults(args)
    try:
        result = profile_program(
            args.program, scale=args.scale, seed=args.seed,
            nprocs=args.nprocs, iterations=args.iterations, faults=plan,
        )
    except (KeyError, ValueError) as exc:
        print(f"profile: {exc}", file=sys.stderr)
        return 2
    print(format_profile(result, top_counters=args.top))
    meta = {"program": args.program, "scale": args.scale, "seed": args.seed,
            "nprocs": args.nprocs}
    if args.emit_chrome is not None:
        doc = write_chrome(result.telemetry, args.emit_chrome,
                           label=f"{args.program}/{args.scale}")
        print(f"[chrome trace: {len(doc['traceEvents'])} events "
              f"-> {args.emit_chrome}]")
    if args.emit_metrics is not None:
        meta["wall_seconds"] = round(result.wall_seconds, 6)
        meta["observed_wall_seconds"] = round(result.observed_wall_seconds, 6)
        meta["packets"] = len(result.trace)
        meta["samples"] = dict(sorted(result.samples.items()))
        meta["reconciliation"] = result.reconcile()
        write_metrics(result.telemetry, args.emit_metrics, **meta)
        print(f"[metrics -> {args.emit_metrics}]")
    if not result.reconciled:
        return 1
    return 0


# -- static analysis --------------------------------------------------


def _cmd_lint(args) -> int:
    from . import simlint

    paths = args.paths
    if not paths:
        paths = [p for p in ("src", "benchmarks", "bench")
                 if os.path.isdir(p)] or ["."]
    try:
        select = args.select.split(",") if args.select else None
        ignore = args.ignore.split(",") if args.ignore else None
        result = simlint.lint_paths(paths, select=select, ignore=ignore,
                                    comm=args.comm)
    except ValueError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline:
        if not args.baseline:
            print("lint: --write-baseline requires --baseline FILE",
                  file=sys.stderr)
            return 2
        count = simlint.write_baseline(args.baseline, result)
        print(f"recorded {count} accepted finding(s) in {args.baseline}")
        return 0

    findings = result.findings
    baselined = 0
    if args.baseline:
        try:
            accepted = simlint.load_baseline(args.baseline)
        except FileNotFoundError:
            print(f"lint: baseline {args.baseline} not found "
                  "(create it with --write-baseline)", file=sys.stderr)
            return 2
        except ValueError as exc:
            print(f"lint: {exc}", file=sys.stderr)
            return 2
        findings, baselined = simlint.apply_baseline(result, accepted)

    if args.format == "json":
        print(simlint.format_json(result, findings=findings,
                                  baselined=baselined))
    else:
        print(simlint.format_text(result, findings=findings))
        if baselined:
            print(f"({baselined} baselined finding(s) not shown)")
    if args.stats:
        print(simlint.format_stats(result))
    if result.errors:
        return 1
    return 1 if findings else 0


def _cmd_xray(args) -> int:
    """``repro xray``: static communication analysis + commprint."""
    from pathlib import Path

    from . import commlint, simlint
    from .programs.calibration import ITERATIONS, work_model_for

    try:
        program = commlint.resolve_program(args.program)
    except ValueError as exc:
        print(f"xray: {exc}", file=sys.stderr)
        return 2
    iterations = args.iterations
    if iterations is None:
        iterations = ITERATIONS.get(args.program, {}).get(args.scale, 1)
    try:
        result = commlint.xray(program, args.nprocs, iterations)
    except commlint.XrayError as exc:
        print(f"xray: {exc}", file=sys.stderr)
        return 2

    if args.out:
        Path(args.out).write_text(commlint.manifest_json(result.manifest))

    if args.format == "json":
        findings_doc = json.loads(simlint.format_json(result.lint_result()))
        print(json.dumps(
            {"manifest": result.manifest, "lint": findings_doc},
            indent=2, sort_keys=True,
        ))
    else:
        print(commlint.format_commprint(result.manifest))
        if args.out:
            print(f"[manifest -> {args.out}]")
        if result.findings:
            print()
            print(simlint.format_text(result.lint_result()))
        else:
            print("schedule: clean (0 findings)")

    status = 0 if result.clean else 1
    if args.validate:
        if result.findings:
            # A broken schedule would run the simulator dry mid-run and
            # fail every comparison; report the findings instead.
            print("validate: skipped — fix the schedule findings first",
                  file=sys.stderr)
            return 1
        work_model = None
        if args.program in ITERATIONS:
            work_model = work_model_for(args.program, seed=args.seed)
        report = commlint.validate_program(
            program, args.nprocs, iterations, seed=args.seed,
            work_model=work_model, graph=result.graph,
        )
        print(commlint.format_validation(report))
        if not report.ok:
            status = 1
    return status


# -- fault injection --------------------------------------------------


def _cmd_faults_show(args) -> int:
    from .faults import FaultPlan

    try:
        plan = FaultPlan.parse(args.spec)
    except ValueError as exc:
        print(f"bad fault spec: {exc}", file=sys.stderr)
        return 2
    print(f"spec:      {plan.describe()}")
    print("canonical:")
    for key, value in plan.canonical().items():
        print(f"  {key} = {value}")
    return 0


def _cmd_faults_demo(args) -> int:
    from .faults import FaultPlan
    from .programs import KERNELS, run_measured

    plan = FaultPlan(loss_rate=args.loss, seed=args.seed)
    programs = list(KERNELS) + ["airshed"]
    print(f"running {len(programs)} programs at scale={args.scale} "
          f"under {plan.describe()!r}")
    failures = []
    for name in programs:
        detail: dict = {}
        try:
            trace = run_measured(name, scale=args.scale, seed=args.seed,
                                 faults=plan, detail=detail)
        except Exception as exc:  # noqa: BLE001 - demo reports, not crashes
            failures.append(name)
            print(f"  {name:<8} FAILED: {type(exc).__name__}: {exc}")
            continue
        drops = detail.get("drops", {})
        print(f"  {name:<8} {len(trace):>7} pkts  "
              f"dropped={sum(drops.values()):>4}  "
              f"retx={detail.get('retransmitted_segments', 0):>5} segs  "
              f"retx-share={trace.retransmit_share():6.1%}")
    if failures:
        print(f"did not complete under faults: {', '.join(failures)}",
              file=sys.stderr)
        return 1
    print("all programs completed under faults")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'The Measured Network Traffic of "
                    "Compiler-Parallelized Programs'",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiment ids").set_defaults(fn=_cmd_list)

    def add_common(p):
        p.add_argument("--scale", default="default",
                       choices=["smoke", "default", "full"])
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--cache-dir", metavar="DIR", default=None,
                       help=f"persistent trace cache ({DEFAULT_CACHE_DIR})")
        p.add_argument("--no-cache", action="store_true",
                       help="disable the persistent trace cache")
        p.add_argument("--faults", metavar="SPEC", default=None,
                       help='fault-plan spec, e.g. "loss=0.01,seed=1" '
                            "(see `repro faults show`)")
        p.add_argument("--sanitize", action="store_true",
                       help="run under the simulation sanitizer "
                            "(implies --no-cache; traces stay "
                            "byte-identical)")
        p.add_argument("--telemetry", action="store_true",
                       help="collect telemetry counters/spans and print "
                            "a summary (implies --no-cache; traces stay "
                            "byte-identical)")

    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("experiment")
    add_common(p_run)
    p_run.add_argument("--jobs", type=int, default=None,
                       help="worker processes producing the experiment's "
                            "traces before it runs (default: every usable "
                            "CPU, at most one per trace; 1 = serial, "
                            "in-process)")
    p_run.add_argument("--export", metavar="DIR",
                       help="export tables/series under DIR")
    p_run.add_argument("--plot", action="store_true",
                       help="render the figure's series as ASCII plots")
    p_run.set_defaults(fn=_cmd_run)

    p_all = sub.add_parser("all", help="run every experiment")
    add_common(p_all)
    p_all.add_argument("--jobs", type=int, default=None,
                       help="worker processes producing every experiment's "
                            "traces, longest first, before the first runs "
                            "(default: every usable CPU, at most one per "
                            "trace; 1 = serial, in-process)")
    p_all.add_argument("--export", metavar="DIR")
    p_all.add_argument("--ablations", action="store_true",
                       help="include the ablation studies")
    p_all.set_defaults(fn=_cmd_all)

    p_sweep = sub.add_parser(
        "sweep",
        help="sweep a program/scale/seed/faults grid through the "
             "trace cache",
    )
    p_sweep.add_argument(
        "tokens", nargs="+", metavar="GRID",
        help="grid tokens like 'program=* scale=smoke seed=0..3'")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="parallel production workers (default: 1)")
    p_sweep.add_argument("--cache-dir", metavar="DIR", default=None,
                         help=f"persistent trace cache ({DEFAULT_CACHE_DIR})")
    p_sweep.add_argument("--manifest", metavar="FILE", default=None,
                         help="write the deterministic sweep manifest here")
    p_sweep.add_argument("--chaos", metavar="SPEC", default=None,
                         help="deterministic failure injection, e.g. "
                              "'kill-worker=0.2,hang=0.1,corrupt-cache=0.1,"
                              "seed=7' (needs --jobs >= 2)")
    p_sweep.add_argument("--task-timeout", metavar="SECONDS", type=float,
                         default=None,
                         help="wall-clock limit per pooled key; a key "
                              "past it fails and is retried")
    p_sweep.add_argument("--retries", metavar="N", type=int, default=2,
                         help="retry attempts per failed key before "
                              "quarantine (default: 2)")
    p_sweep.add_argument("--journal", metavar="FILE", default=None,
                         help="crash-safe journal; rerunning with the "
                              "same file resumes")
    p_sweep.add_argument("--quiet", action="store_true",
                         help="suppress streaming progress on stderr")
    p_sweep.add_argument("--qmon-dir", metavar="DIR", default=None,
                         help="collect switch-queue manifests for "
                              "route=switched keys as DIR/<digest>.qmon.json")
    p_sweep.set_defaults(fn=_cmd_sweep, no_cache=False)

    p_tr = sub.add_parser("trace", help="capture one program's packet trace")
    p_tr.add_argument("program")
    add_common(p_tr)
    p_tr.add_argument("--out", required=True, help="output file (.npz or text)")
    p_tr.add_argument("--text", action="store_true",
                      help="write tcpdump-style text instead of npz")
    p_tr.add_argument("--route", choices=["direct", "default", "switched"],
                      default="direct",
                      help="message route: direct TCP, daemon-routed UDP, "
                           "or direct TCP over the switched fabric (also "
                           "prints per-port queue depth and drops)")
    p_tr.set_defaults(fn=_cmd_trace)

    p_qm = sub.add_parser(
        "qmon",
        help="run a program over the switched fabric under per-port queue "
             "monitors: depth, microbursts, delay attribution, drops",
    )
    p_qm.add_argument("program")
    p_qm.add_argument("--route", choices=["switched"], default="switched",
                      help="only the switched fabric has output-port queues")
    p_qm.add_argument("--scale", default="default",
                      choices=["smoke", "default", "full"])
    p_qm.add_argument("--seed", type=int, default=0)
    p_qm.add_argument("--nprocs", type=int, default=4)
    p_qm.add_argument("--iterations", type=int, default=None)
    p_qm.add_argument("--window", type=float, default=0.010, metavar="W",
                      help="aggregation window in simulated seconds "
                           "(default: 0.010)")
    p_qm.add_argument("--burst-depth", type=int, default=4, metavar="N",
                      help="queue depth (frames) counting as a microburst "
                           "(default: 4)")
    p_qm.add_argument("--burst-duration", type=float, default=0.0,
                      metavar="S",
                      help="minimum sustained burst duration in seconds "
                           "(default: 0)")
    p_qm.add_argument("--top-k", type=int, default=3, metavar="K",
                      help="contributor flows ranked per window/burst "
                           "(default: 3)")
    p_qm.add_argument("--out", default=None, metavar="FILE",
                      help="write the byte-deterministic qmon.json manifest")
    p_qm.add_argument("--emit-chrome", default=None, metavar="FILE",
                      help="write a Perfetto trace with per-port queue-depth "
                           "counter tracks")
    p_qm.set_defaults(fn=_cmd_qmon)

    p_cache = sub.add_parser(
        "cache", help="inspect, clear, or warm the persistent trace cache"
    )
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)

    def add_cache_common(p):
        p.add_argument("--dir", dest="cache_dir", metavar="DIR", default=None,
                       help=f"cache directory ({DEFAULT_CACHE_DIR})")

    p_stats = cache_sub.add_parser("stats", help="list cached traces and counters")
    add_cache_common(p_stats)
    p_stats.set_defaults(fn=_cmd_cache_stats)

    p_clear = cache_sub.add_parser("clear", help="delete every cached trace")
    add_cache_common(p_clear)
    p_clear.set_defaults(fn=_cmd_cache_clear)

    p_scrub = cache_sub.add_parser(
        "scrub", help="verify cached trace bytes against their sidecar "
                      "sha256s; quarantine (and optionally re-produce) rot"
    )
    add_cache_common(p_scrub)
    p_scrub.add_argument("--repair", action="store_true",
                         help="re-produce corrupt entries through the engine")
    p_scrub.set_defaults(fn=_cmd_cache_scrub)

    p_warm = cache_sub.add_parser(
        "warm", help="produce the experiments' traces through a worker pool"
    )
    add_cache_common(p_warm)
    p_warm.add_argument("--jobs", type=int, default=None,
                        help="parallel production workers, longest trace "
                             "first (default: every usable CPU, at most "
                             "one per trace)")
    p_warm.add_argument("--scale", default="default",
                        choices=["smoke", "default", "full"])
    p_warm.add_argument("--seeds", default="0",
                        help="comma-separated seed list (default: 0)")
    p_warm.add_argument("--programs", default=None,
                        help="comma-separated program subset "
                             "(default: the experiment warm set)")
    p_warm.add_argument("--faults", metavar="SPEC", default=None,
                        help="warm faulted variants of the traces")
    p_warm.set_defaults(fn=_cmd_cache_warm)

    p_prof = sub.add_parser(
        "profile", help="sampling profile of one measured run, per repro "
                        "module, with telemetry counters"
    )
    p_prof.add_argument("program")
    p_prof.add_argument("--scale", default="default",
                        choices=["smoke", "default", "full"])
    p_prof.add_argument("--seed", type=int, default=0)
    p_prof.add_argument("--nprocs", type=int, default=4)
    p_prof.add_argument("--iterations", type=int, default=None,
                        help="override the scale's iteration count")
    p_prof.add_argument("--faults", metavar="SPEC", default=None,
                        help="profile the run under a fault plan")
    p_prof.add_argument("--top", type=int, default=12,
                        help="counters shown in the summary (default: 12)")
    p_prof.add_argument("--emit-chrome", metavar="FILE", nargs="?",
                        const="profile-trace.json", default=None,
                        help="write a Chrome trace-event file "
                             "(default name: profile-trace.json)")
    p_prof.add_argument("--emit-metrics", metavar="FILE", nargs="?",
                        const="profile-metrics.json", default=None,
                        help="write a metrics snapshot "
                             "(default name: profile-metrics.json)")
    p_prof.set_defaults(fn=_cmd_profile)

    p_lint = sub.add_parser(
        "lint", help="determinism & causality static analysis (simlint)"
    )
    p_lint.add_argument("paths", nargs="*",
                        help="files or directories (default: src "
                             "benchmarks bench)")
    p_lint.add_argument("--select", metavar="RULES", default=None,
                        help="comma-separated rule IDs to run (default: all)")
    p_lint.add_argument("--ignore", metavar="RULES", default=None,
                        help="comma-separated rule IDs to skip")
    p_lint.add_argument("--format", choices=["text", "json"], default="text")
    p_lint.add_argument("--baseline", metavar="FILE", default=None,
                        help="accepted-findings file; only regressions fail")
    p_lint.add_argument("--write-baseline", action="store_true",
                        help="record current findings into --baseline FILE")
    p_lint.add_argument("--stats", action="store_true",
                        help="print a coverage summary (files, per-rule "
                             "counts, suppressions)")
    p_lint.add_argument("--comm", action="store_true",
                        help="also run the commlint AST rules (COMM0xx)")
    p_lint.set_defaults(fn=_cmd_lint)

    p_xray = sub.add_parser(
        "xray",
        help="static communication analysis + commprint (commlint)",
    )
    p_xray.add_argument("program",
                        help="registry name (sor) or path/to/file.py:Class")
    p_xray.add_argument("--nprocs", type=int, default=4)
    p_xray.add_argument("--scale", default="default",
                        choices=["smoke", "default", "full"],
                        help="iteration count preset for registry programs")
    p_xray.add_argument("--iterations", type=int, default=None,
                        help="override the scale's iteration count")
    p_xray.add_argument("--seed", type=int, default=0,
                        help="simulation seed for --validate")
    p_xray.add_argument("--validate", action="store_true",
                        help="simulate and assert the commprint matches "
                             "the captured trace exactly")
    p_xray.add_argument("--format", choices=["text", "json"], default="text")
    p_xray.add_argument("--out", metavar="FILE", default=None,
                        help="write the commprint manifest (JSON) to FILE")
    p_xray.set_defaults(fn=_cmd_xray)

    p_faults = sub.add_parser(
        "faults", help="inspect fault plans and demo fault injection"
    )
    faults_sub = p_faults.add_subparsers(dest="faults_command", required=True)

    p_show = faults_sub.add_parser(
        "show", help="parse a fault-plan spec and print its canonical form"
    )
    p_show.add_argument("spec")
    p_show.set_defaults(fn=_cmd_faults_show)

    p_demo = faults_sub.add_parser(
        "demo", help="run every measured program under frame loss"
    )
    p_demo.add_argument("--scale", default="smoke",
                        choices=["smoke", "default", "full"])
    p_demo.add_argument("--seed", type=int, default=0)
    p_demo.add_argument("--loss", type=float, default=0.01,
                        help="frame loss probability (default: 0.01)")
    p_demo.set_defaults(fn=_cmd_faults_demo)

    args = parser.parse_args(argv)
    # --faults/--sanitize/--telemetry hold for this one command only.
    faults = default_faults()
    sanitize = os.environ.get("REPRO_SANITIZE")
    telemetry = process_telemetry()
    try:
        return args.fn(args)
    finally:
        set_default_faults(faults)
        os.environ.pop("REPRO_SANITIZE", None)
        if sanitize is not None:
            os.environ["REPRO_SANITIZE"] = sanitize
        disable_process_telemetry()
        if telemetry is not None:
            enable_process_telemetry(telemetry)


if __name__ == "__main__":
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader of stdout exited (``repro list | head``).  Point
        # stdout at devnull so the exit flush cannot raise again, and
        # exit as a process killed by SIGPIPE would: 128 + 13.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 141
    raise SystemExit(status)
