"""Command-line interface to the MOCHE reproduction.

The CLI exposes the library's main workflows without writing any Python:

``repro test``
    Run the two-sample KS test on two sample files and print the verdict.

``repro explain``
    Explain a failed KS test: load the reference and test samples, build a
    preference list, run MOCHE (or a baseline) and print / save the
    explanation.

``repro monitor``
    Stream a series file through the sliding-window drift monitor and print
    an explained alarm for every detected drift.

``repro serve``
    Replay one or many series files through the multi-stream explanation
    service (shared caches, pluggable executor: inline on the replay thread
    or ``--shards N`` worker processes, optionally elastic between
    ``--min-shards``/``--max-shards``) and print the service report
    with every explained alarm.  With ``--snapshot-dir`` the service state
    (detector windows, alarm logs, cache contents) is checkpointed after
    every replay round and a re-run *warm-restarts* from the checkpoint,
    resuming the replay byte-identically across a process kill.  With
    ``--listen HOST:PORT`` there is no replay at all: the service is fed
    live over TCP (newline-delimited JSON events, see
    :mod:`repro.aio.sources`) until a client sends ``{"op": "shutdown"}``;
    checkpointing then runs *inside* the service on a timer
    (``--snapshot-interval``) instead of per replay round.

``repro trace``
    Replay series files with per-chunk tracing on (full sampling by
    default) and write the span timelines as Chrome trace-event JSON —
    load the file at https://ui.perfetto.dev or ``chrome://tracing`` to
    see each chunk's ``detect → ingest_enqueue → explain`` flame (under
    ``--executor process``: ``ingest_enqueue → wire_roundtrip →
    batch_wait → detect → explain``).

``repro experiments``
    Regenerate the paper's tables and figures at a reduced scale.

Installed as the ``repro`` console script; also runnable via
``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from repro.cluster.autoscale import Autoscaler, LatencyPolicy, QueueDepthPolicy
from repro.cluster.base import EXECUTOR_NAMES
from repro.core.ks import ks_test
from repro.core.preference import PreferenceList
from repro.drift.monitor import ExplainedDriftMonitor
from repro.exceptions import ReproError
from repro.experiments.config import ExperimentConfig
from repro.experiments.run_all import EXPERIMENT_IDS, render_all, run_all_experiments
from repro.io.export import (
    explanation_report,
    save_chrome_trace,
    save_explanation,
    save_service_report,
)
from repro.io.loaders import load_sample, load_series_csv
from repro.service import ExplanationService, StreamConfig
from repro.service.snapshot import SNAPSHOT_FILENAME, ServiceSnapshot
from repro.service.registry import (
    DETECTORS,
    EXPLAINERS,
    PREFERENCE_BUILDERS,
    build_preference_list,
)

#: CLI name -> explainer factory (alpha, top_k, seed); shared with the service.
_METHODS = EXPLAINERS

#: CLI name -> preference construction strategy; shared with the service.
_PREFERENCES = tuple(sorted(PREFERENCE_BUILDERS))


def _build_preference(
    name: str,
    reference: np.ndarray,
    test: np.ndarray,
    scores_path: Optional[str],
    column: Optional[str],
    seed: int,
) -> PreferenceList:
    if scores_path is not None:
        scores = load_sample(scores_path, column=column)
        return PreferenceList.from_scores(scores, descending=True, seed=seed)
    return build_preference_list(name, reference, test, seed)


# ----------------------------------------------------------------------
# Sub-command implementations
# ----------------------------------------------------------------------
def _cmd_test(args: argparse.Namespace) -> int:
    reference = load_sample(args.reference, column=args.column)
    test = load_sample(args.test, column=args.column)
    result = ks_test(reference, test, args.alpha)
    print(result)
    return 1 if result.rejected else 0


def _cmd_explain(args: argparse.Namespace) -> int:
    reference = load_sample(args.reference, column=args.column)
    test = load_sample(args.test, column=args.column)
    preference = _build_preference(
        args.preference, reference, test, args.preference_scores, args.column, args.seed
    )
    explainer = _METHODS[args.method](args.alpha, args.top_k, args.seed)
    explanation = explainer.explain(reference, test, preference)
    print(explanation_report(explanation))
    if args.output:
        path = save_explanation(explanation, args.output)
        print(f"\nexplanation written to {path}")
    return 0 if explanation.reverses_test else 2


def _cmd_monitor(args: argparse.Namespace) -> int:
    series = load_series_csv(args.series, value_column=args.column)
    monitor = ExplainedDriftMonitor(window_size=args.window, alpha=args.alpha)
    alarm_count = 0
    for alarm in monitor.process(series):
        alarm_count += 1
        print(f"drift alarm #{alarm_count} at observation {alarm.position}")
        print(explanation_report(alarm.explanation))
        print()
    print(f"{monitor.detector.observations_seen} observations processed, "
          f"{alarm_count} drift alarm(s)")
    return 0


def _stream_ids(paths: Sequence[str]) -> list[str]:
    """Derive unique stream ids from the series file names."""
    ids: list[str] = []
    for path in paths:
        stem = Path(path).stem or "stream"
        candidate, suffix = stem, 1
        while candidate in ids:
            suffix += 1
            candidate = f"{stem}-{suffix}"
        ids.append(candidate)
    return ids


def _parse_listen(value: str, flag: str = "--listen") -> tuple[str, int]:
    """``HOST:PORT`` -> ``(host, port)``; port 0 binds an ephemeral port."""
    host, sep, port_text = value.rpartition(":")
    if not sep or not host:
        raise ReproError(f"{flag} expects HOST:PORT (got {value!r})")
    try:
        port = int(port_text)
    except ValueError:
        raise ReproError(f"{flag} port must be an integer (got {port_text!r})")
    if not 0 <= port <= 65535:
        raise ReproError(f"{flag} port {port} is out of range")
    return host, port


async def _serve_listen(
    service,
    host: str,
    port: int,
    snapshot_path,
    snapshot_interval,
    autoscaler=None,
    metrics_bind=None,
):
    """Run the TCP ingest front-end until a client requests shutdown."""
    from repro.aio import AsyncExplanationService, serve_listen

    aio = AsyncExplanationService(service)
    metrics_server = None
    try:
        if snapshot_path is not None:
            # The service checkpoints itself on a timer (bounded staleness)
            # instead of relying on replay rounds it does not have here.
            aio.start_snapshot_task(snapshot_path, snapshot_interval)
        if metrics_bind is not None:
            from repro.obs import start_metrics_server

            def announce_metrics(address: tuple) -> None:
                print(f"metrics on {address[0]}:{address[1]}", flush=True)

            # Scrapes render through the dedicated ingest thread
            # (`metrics_text`) so a worker stats round-trip never stalls
            # the event loop mid-ingest.
            metrics_server = await start_metrics_server(
                aio.metrics_text,
                metrics_bind[0],
                metrics_bind[1],
                health=aio.health,
                on_bound=announce_metrics,
            )

        def announce(address: tuple) -> None:
            print(f"listening on {address[0]}:{address[1]}", flush=True)

        report = await serve_listen(aio, host, port, on_bound=announce)
        if snapshot_path is not None:
            # Final checkpoint: a restart after a clean shutdown resumes
            # from the full run, not from the last timer tick.
            await aio.snapshot_now()
        return report
    finally:
        if metrics_server is not None:
            metrics_server.close()
            await metrics_server.wait_closed()
        if autoscaler is not None:
            # Stopped before the service closes, so a late tick cannot
            # resize a dead executor and read as a spurious failure.
            autoscaler.stop()
        await aio.close()


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.chunk < 1:
        raise ReproError("--chunk must be at least 1")
    listen = _parse_listen(args.listen) if args.listen is not None else None
    metrics_bind = (
        _parse_listen(args.metrics, flag="--metrics")
        if args.metrics is not None
        else None
    )
    if metrics_bind is not None and listen is None:
        raise ReproError(
            "--metrics serves HTTP scrapes from the live ingest loop; "
            "it requires --listen"
        )
    if args.cache_ttl is not None and args.cache_ttl <= 0:
        raise ReproError("--cache-ttl must be positive")
    if args.trace_sample is not None and not 0.0 <= args.trace_sample <= 1.0:
        raise ReproError("--trace-sample must be between 0 and 1")
    tracing_on = args.trace_dir is not None or args.trace_sample is not None
    if listen is None and not args.series:
        raise ReproError("serve needs series files to replay, or --listen HOST:PORT")
    if listen is not None and args.series:
        raise ReproError(
            "--listen serves live TCP ingestion; replaying series files "
            "with it is ambiguous (drop the files or the flag)"
        )
    # Flags that only configure the process backend are rejected with
    # inline instead of being silently dropped.
    if args.executor != "process" and args.queue_capacity is not None:
        raise ReproError("--queue-capacity requires --executor process")
    if args.executor != "process" and args.shards is not None:
        raise ReproError("--shards requires --executor process")
    if (args.min_shards is None) != (args.max_shards is None):
        raise ReproError("--min-shards and --max-shards must be given together")
    autoscale = args.min_shards is not None
    if autoscale and args.executor != "process":
        raise ReproError("--min-shards/--max-shards require --executor process")
    if args.autoscale_interval is not None and not autoscale:
        raise ReproError(
            "--autoscale-interval requires --min-shards/--max-shards"
        )
    if args.autoscale_policy is not None and not autoscale:
        raise ReproError(
            "--autoscale-policy requires --min-shards/--max-shards"
        )
    if args.target_p95 is not None:
        if args.autoscale_policy != "latency":
            raise ReproError("--target-p95 requires --autoscale-policy latency")
        if args.target_p95 <= 0:
            raise ReproError("--target-p95 must be positive (seconds)")
    if args.snapshot_every is not None:
        if listen is not None:
            raise ReproError(
                "--snapshot-every counts replay rounds; with --listen use "
                "--snapshot-interval seconds instead"
            )
        if args.snapshot_dir is None:
            raise ReproError("--snapshot-every requires --snapshot-dir")
        if args.snapshot_every < 1:
            raise ReproError("--snapshot-every must be at least 1")
    if args.snapshot_interval is not None:
        if listen is None:
            raise ReproError("--snapshot-interval requires --listen")
        if args.snapshot_dir is None:
            raise ReproError("--snapshot-interval requires --snapshot-dir")
        if args.snapshot_interval <= 0:
            raise ReproError("--snapshot-interval must be positive")
    series = [load_series_csv(path, value_column=args.column) for path in args.series]
    stream_ids = _stream_ids(args.series)
    config = StreamConfig(
        window_size=args.window,
        alpha=args.alpha,
        detector=args.detector,
        preference=args.preference,
        method=args.method,
        top_k=args.top_k,
        seed=args.seed,
    )
    # Only flags the user actually set are forwarded, so the service's own
    # signature defaults stay the single source of truth.
    shards = args.shards
    if autoscale:
        if shards is not None and not args.min_shards <= shards <= args.max_shards:
            raise ReproError(
                f"--shards {shards} lies outside the autoscaling band "
                f"[{args.min_shards}, {args.max_shards}]"
            )
        # The pool starts at the floor (or the explicit --shards) and the
        # queue-depth policy elastically resizes it between the bounds as
        # the replay load develops.
        shards = shards if shards is not None else args.min_shards
    # Metrics instrument the service when anything consumes them: an HTTP
    # scrape endpoint, or the latency autoscaler (it decides on the p95 of
    # the merged stage histograms).
    metrics_enabled = metrics_bind is not None or args.autoscale_policy == "latency"
    overrides = {
        name: value
        for name, value in (
            ("queue_capacity", args.queue_capacity),
            ("shards", shards),
            ("cache_ttl", args.cache_ttl),
            ("metrics", metrics_enabled or None),
            ("tracing", True if tracing_on else None),
            ("trace_sample", args.trace_sample),
            ("trace_dir", args.trace_dir),
        )
        if value is not None
    }
    snapshot_path = None
    if args.snapshot_dir is not None:
        snapshot_path = Path(args.snapshot_dir) / SNAPSHOT_FILENAME
    snapshot_every = args.snapshot_every if args.snapshot_every is not None else 1
    with ExplanationService(
        default_config=config,
        executor=args.executor,
        **overrides,
    ) as service:
        if args.trace_dir is not None and hasattr(signal, "SIGUSR2"):
            def _dump_telemetry(signum, frame):
                # On-demand post-mortem: flush the flight recorder and the
                # traces retained so far without stopping the service.
                service.dump_flight_recorder("sigusr2")
                save_chrome_trace(
                    service.trace_export(),
                    Path(args.trace_dir) / "trace-sigusr2.json",
                )

            signal.signal(signal.SIGUSR2, _dump_telemetry)
        autoscaler = None
        if autoscale:
            if args.autoscale_policy == "latency":
                policy_kwargs = {}
                if args.target_p95 is not None:
                    # Keep the scale-down watermark a decade under the
                    # target so sub-50ms targets stay constructible.
                    policy_kwargs["target_p95"] = args.target_p95
                    policy_kwargs["scale_down_p95"] = args.target_p95 / 10.0
                policy = LatencyPolicy(
                    min_shards=args.min_shards,
                    max_shards=args.max_shards,
                    **policy_kwargs,
                )
                autoscaler = Autoscaler(
                    service.executor, policy, signals=service.autoscale_signals
                )
            else:
                autoscaler = Autoscaler(
                    service.executor,
                    QueueDepthPolicy(
                        min_shards=args.min_shards, max_shards=args.max_shards
                    ),
                )
            # A daemon tick thread drives the pool, so it stays elastic
            # even while the replay loop is blocked on backpressure.
            autoscaler.start(
                interval=args.autoscale_interval
                if args.autoscale_interval is not None
                else 0.25
            )
        resume: dict[str, int] = {}
        if snapshot_path is not None and snapshot_path.exists():
            snapshot = ServiceSnapshot.load(snapshot_path)
            if listen is None:
                expected = set(stream_ids)
                if set(snapshot.stream_ids()) != expected:
                    raise ReproError(
                        f"snapshot {snapshot_path} holds streams "
                        f"{snapshot.stream_ids()} but the replay defines "
                        f"{sorted(expected)}; refusing to mix runs"
                    )
                # A restore rebuilds the streams from the *snapshot's*
                # configs; silently ignoring different flags on the restart
                # invocation would print a report the user thinks reflects
                # them.  With --listen both the stream set and the
                # per-stream configs are the clients' (a register op may
                # carry overrides), so neither is cross-checked against the
                # CLI flags — the snapshot is authoritative.
                expected_config = config.to_dict()
                mismatched = sorted(
                    stream_id
                    for stream_id, payload in snapshot.configs.items()
                    if payload != expected_config
                )
                if mismatched:
                    raise ReproError(
                        f"snapshot {snapshot_path} was written with different "
                        f"stream configs (streams {mismatched}); rerun with the "
                        "original flags or point --snapshot-dir elsewhere"
                    )
            service.restore(snapshot)
            resume = snapshot.resume_offsets()
            print(
                f"warm restart: resumed {len(resume)} stream(s) from "
                f"{snapshot_path} "
                f"({sum(resume.values())} observations already served)"
            )
        elif listen is None:
            for stream_id in stream_ids:
                service.register(stream_id)
        if listen is not None:
            host, port = listen
            interval = (
                args.snapshot_interval if args.snapshot_interval is not None else 30.0
            )
            report = asyncio.run(
                _serve_listen(
                    service,
                    host,
                    port,
                    snapshot_path,
                    interval,
                    autoscaler=autoscaler,
                    metrics_bind=metrics_bind,
                )
            )
        else:
            # Replay the files in interleaved chunks so the service sees the
            # fleet concurrently, the way a live multiplexed feed would.  On a
            # warm restart each stream skips the observations the snapshot
            # already accounts for, so nothing is re-detected or lost.
            longest = max(values.size for values in series)
            rounds = 0
            dirty = False
            for start in range(0, longest, args.chunk):
                for stream_id, values in zip(stream_ids, series):
                    end = min(start + args.chunk, values.size)
                    begin = max(start, resume.get(stream_id, 0))
                    if end > begin:
                        service.submit(stream_id, values[begin:end])
                        dirty = True
                rounds += 1
                # Catch-up rounds a warm restart skips entirely submit
                # nothing; checkpointing them would re-capture an unchanged
                # fleet once per round (drain + wire capture + pickle) for
                # no new state.
                if (
                    snapshot_path is not None
                    and dirty
                    and rounds % snapshot_every == 0
                ):
                    service.snapshot().save(snapshot_path)
                    dirty = False
            if snapshot_path is not None and dirty:
                # Final checkpoint: a re-run against a completed snapshot is
                # a pure no-op replay that reprints the same report.
                service.snapshot().save(snapshot_path)
        if autoscaler is not None:
            if not autoscaler.stop():
                print(
                    "warning: autoscaler tick thread did not stop in time",
                    file=sys.stderr,
                )
            if autoscaler.error is not None:
                # The loop died early; the replay still completed, but the
                # operator must know the pool stopped being elastic.
                print(
                    f"warning: autoscaler stopped early: {autoscaler.error}",
                    file=sys.stderr,
                )
            for decision in autoscaler.decisions:
                print(decision.render())
        if listen is None:
            report = service.report()
        if args.trace_dir is not None:
            trace_path = save_chrome_trace(
                service.trace_export(), Path(args.trace_dir) / "trace.json"
            )
            print(f"chunk traces written to {trace_path}", flush=True)
    print(report.render(alarms=not args.summary_only))
    if args.output:
        path = save_service_report(report, args.output)
        print(f"\nservice report written to {path}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.chunk < 1:
        raise ReproError("--chunk must be at least 1")
    if not 0.0 <= args.sample <= 1.0:
        raise ReproError("--sample must be between 0 and 1")
    if args.executor != "process" and args.shards is not None:
        raise ReproError("--shards requires --executor process")
    series = [load_series_csv(path, value_column=args.column) for path in args.series]
    stream_ids = _stream_ids(args.series)
    config = StreamConfig(window_size=args.window, alpha=args.alpha, seed=args.seed)
    overrides = {"shards": args.shards} if args.shards is not None else {}
    with ExplanationService(
        default_config=config,
        executor=args.executor,
        tracing=True,
        trace_sample=args.sample,
        trace_seed=args.seed,
        **overrides,
    ) as service:
        for stream_id in stream_ids:
            service.register(stream_id)
        longest = max(values.size for values in series)
        for start in range(0, longest, args.chunk):
            for stream_id, values in zip(stream_ids, series):
                end = min(start + args.chunk, values.size)
                if end > start:
                    service.submit(stream_id, values[start:end])
        service.drain()
        payload = service.trace_export()
        stats = service.tracer.stats()
    path = save_chrome_trace(payload, args.output)
    print(
        f"{stats['started']} chunk(s) traced, {stats['retained']} retained "
        f"(sample rate {stats['sample_rate']:g}); "
        f"{len(payload['traceEvents'])} trace events written to {path}"
    )
    print("open it at https://ui.perfetto.dev or chrome://tracing")
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    config = ExperimentConfig.paper() if args.scale == "paper" else ExperimentConfig.smoke()
    only = tuple(args.only) if args.only else None
    tables = run_all_experiments(config, only=only, progress=print)
    print()
    print(render_all(tables))
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    """Build the ``repro`` argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Comprehensible counterfactual explanations on failed KS tests (MOCHE).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--alpha", type=float, default=0.05,
                         help="significance level of the KS test (default 0.05)")
        sub.add_argument("--column", default=None,
                         help="column name to read from tabular input files")

    test_parser = subparsers.add_parser("test", help="run the two-sample KS test")
    test_parser.add_argument("reference", help="file with the reference sample")
    test_parser.add_argument("test", help="file with the test sample")
    add_common(test_parser)
    test_parser.set_defaults(handler=_cmd_test)

    explain_parser = subparsers.add_parser("explain", help="explain a failed KS test")
    explain_parser.add_argument("reference", help="file with the reference sample")
    explain_parser.add_argument("test", help="file with the test sample")
    add_common(explain_parser)
    explain_parser.add_argument("--method", choices=sorted(_METHODS), default="moche",
                                help="explanation method (default moche)")
    explain_parser.add_argument("--preference", choices=_PREFERENCES,
                                default="spectral-residual",
                                help="how to build the preference list")
    explain_parser.add_argument("--preference-scores", default=None,
                                help="file with per-test-point preference scores "
                                     "(overrides --preference)")
    explain_parser.add_argument("--top-k", type=int, default=100,
                                help="top-k restriction for the search baselines")
    explain_parser.add_argument("--seed", type=int, default=0, help="random seed")
    explain_parser.add_argument("--output", default=None,
                                help="write the explanation to this .json/.csv/.txt file")
    explain_parser.set_defaults(handler=_cmd_explain)

    monitor_parser = subparsers.add_parser(
        "monitor", help="drift-monitor a series and explain every alarm"
    )
    monitor_parser.add_argument("series", help="file with the time series")
    add_common(monitor_parser)
    monitor_parser.add_argument("--window", type=int, default=200,
                                help="sliding window size (default 200)")
    monitor_parser.set_defaults(handler=_cmd_monitor)

    serve_parser = subparsers.add_parser(
        "serve", help="replay series files through the multi-stream explanation service"
    )
    serve_parser.add_argument("series", nargs="*",
                              help="one file per stream with its time series "
                                   "(omit with --listen)")
    serve_parser.add_argument("--listen", metavar="HOST:PORT", default=None,
                              help="serve live TCP ingestion (newline-JSON "
                                   "events) instead of replaying files; "
                                   "port 0 binds an ephemeral port and the "
                                   "chosen one is printed")
    add_common(serve_parser)
    serve_parser.add_argument("--window", type=int, default=200,
                              help="sliding window size (default 200)")
    serve_parser.add_argument("--detector", choices=DETECTORS, default="windowed",
                              help="drift detector flavour (default windowed)")
    serve_parser.add_argument("--method", choices=sorted(_METHODS), default="moche",
                              help="explanation method (default moche)")
    serve_parser.add_argument("--preference", choices=_PREFERENCES,
                              default="spectral-residual",
                              help="how to build the preference lists")
    serve_parser.add_argument("--top-k", type=int, default=100,
                              help="top-k restriction for the search baselines")
    serve_parser.add_argument("--seed", type=int, default=0, help="random seed")
    serve_parser.add_argument("--executor", choices=EXECUTOR_NAMES, default="inline",
                              help="execution backend: inline (synchronous, "
                                   "on the replay thread; default) or process "
                                   "(sharded worker processes)")
    serve_parser.add_argument("--shards", type=int, default=None,
                              help="worker processes for --executor process "
                                   "(default 2)")
    serve_parser.add_argument("--min-shards", type=int, default=None,
                              help="enable queue-depth autoscaling: lower "
                                   "bound of the elastic shard pool "
                                   "(--executor process; use with "
                                   "--max-shards)")
    serve_parser.add_argument("--max-shards", type=int, default=None,
                              help="upper bound of the elastic shard pool "
                                   "(--executor process; use with "
                                   "--min-shards)")
    serve_parser.add_argument("--queue-capacity", type=int, default=None,
                              help="backpressure bound on in-flight chunks "
                                   "(--executor process; default 128)")
    serve_parser.add_argument("--autoscale-interval", type=float, default=None,
                              help="seconds between background autoscaler "
                                   "ticks (with --min-shards/--max-shards; "
                                   "default 0.25)")
    serve_parser.add_argument("--autoscale-policy",
                              choices=("queue-depth", "latency"), default=None,
                              help="autoscaling signal: queue-depth "
                                   "(backpressure gauge; default) or latency "
                                   "(p95 explanation latency and shard load "
                                   "skew from the stage histograms; enables "
                                   "metrics on the service)")
    serve_parser.add_argument("--target-p95", type=float, default=None,
                              help="explanation-latency p95 in seconds at or "
                                   "above which the latency policy adds a "
                                   "shard (default 0.5)")
    serve_parser.add_argument("--metrics", metavar="HOST:PORT", default=None,
                              help="with --listen: also serve a Prometheus "
                                   "/metrics HTTP endpoint on this address "
                                   "(port 0 binds an ephemeral port and the "
                                   "chosen one is printed); enables stage-"
                                   "latency telemetry on the service")
    serve_parser.add_argument("--cache-ttl", type=float, default=None,
                              help="age out shared-cache entries after this "
                                   "many seconds (default: never expire)")
    serve_parser.add_argument("--trace-dir", default=None,
                              help="enable per-chunk tracing and the flight "
                                   "recorder; write trace.json (Chrome "
                                   "trace-event JSON) and flight-recorder "
                                   "dumps into this directory (SIGUSR2 "
                                   "flushes both mid-run)")
    serve_parser.add_argument("--trace-sample", type=float, default=None,
                              help="fraction of chunks whose traces are "
                                   "retained (0..1; default 0.1; implies "
                                   "tracing even without --trace-dir)")
    serve_parser.add_argument("--snapshot-dir", default=None,
                              help="checkpoint the service state into this "
                                   "directory after every replay round and "
                                   "warm-restart from it when it already "
                                   "holds a snapshot")
    serve_parser.add_argument("--snapshot-every", type=int, default=None,
                              help="replay rounds between checkpoints "
                                   "(with --snapshot-dir; default 1)")
    serve_parser.add_argument("--snapshot-interval", type=float, default=None,
                              help="seconds between in-service checkpoints "
                                   "(with --listen and --snapshot-dir; "
                                   "default 30)")
    serve_parser.add_argument("--chunk", type=int, default=256,
                              help="observations per interleaved replay chunk")
    serve_parser.add_argument("--summary-only", action="store_true",
                              help="print only the run summary, not every alarm")
    serve_parser.add_argument("--output", default=None,
                              help="write the service report to this .json/.txt file")
    serve_parser.set_defaults(handler=_cmd_serve)

    trace_parser = subparsers.add_parser(
        "trace",
        help="replay series files with tracing on and export Perfetto JSON",
    )
    trace_parser.add_argument("series", nargs="+",
                              help="one file per stream with its time series")
    add_common(trace_parser)
    trace_parser.add_argument("--window", type=int, default=200,
                              help="sliding window size (default 200)")
    trace_parser.add_argument("--executor", choices=EXECUTOR_NAMES, default="inline",
                              help="execution backend to trace (default inline)")
    trace_parser.add_argument("--shards", type=int, default=None,
                              help="worker processes for --executor process "
                                   "(default 2)")
    trace_parser.add_argument("--sample", type=float, default=1.0,
                              help="fraction of chunks whose traces are "
                                   "retained (default 1.0: keep everything)")
    trace_parser.add_argument("--seed", type=int, default=0, help="random seed")
    trace_parser.add_argument("--chunk", type=int, default=256,
                              help="observations per interleaved replay chunk")
    trace_parser.add_argument("--output", default="trace.json",
                              help="write the Chrome trace-event JSON here "
                                   "(default trace.json)")
    trace_parser.set_defaults(handler=_cmd_trace)

    experiments_parser = subparsers.add_parser(
        "experiments", help="regenerate the paper's tables and figures"
    )
    experiments_parser.add_argument("--scale", choices=("smoke", "paper"), default="smoke",
                                    help="workload scale (default smoke)")
    experiments_parser.add_argument("--only", nargs="*", choices=EXPERIMENT_IDS,
                                    help="run only these experiment ids")
    experiments_parser.set_defaults(handler=_cmd_experiments)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return int(args.handler(args))
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess tests
    sys.exit(main())
