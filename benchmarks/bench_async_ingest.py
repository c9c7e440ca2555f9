"""Async ingestion — TCP front-end parity and throughput.

Replays the same fleet of regime-switching streams two ways:

* **in-process** — the classic synchronous replay loop driving
  :class:`~repro.service.engine.ExplanationService` directly;
* **tcp** — a real ``repro serve --listen HOST:PORT`` child process fed
  the identical chunks over the newline-JSON wire protocol by an asyncio
  client, exactly how a network event source would.

The claim checked (always enforced): both paths produce **byte-identical
canonical reports** — same alarms, same explanations — so putting the
asyncio/TCP front-end in front of the service changes where observations
come from and nothing about what is detected or explained.  Throughput of
both paths is measured and recorded for the curious (the TCP path pays
JSON + loopback tax by design; it buys a network-reachable service).

Run it directly (the CI smoke job does)::

    PYTHONPATH=src python benchmarks/bench_async_ingest.py --quick

Results are printed as a table and written machine-readably to
``benchmarks/results/BENCH_async.json``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.service import ExplanationService, StreamConfig
from repro.service.results import canonical_report_dict

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from benchmarks.conftest import save_bench_json  # noqa: E402

DEFAULT_OUTPUT = Path(__file__).parent / "results" / "BENCH_async.json"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"

FULL = {"streams": 24, "segments": 4, "segment": 400, "window": 150, "chunk": 200}
QUICK = {"streams": 6, "segments": 3, "segment": 250, "window": 100, "chunk": 125}

LISTEN_RE = re.compile(r"listening on (\S+):(\d+)")


def build_fleet(streams: int, segments: int, segment: int) -> dict[str, np.ndarray]:
    """``streams`` unique regime-switching feeds."""
    fleet: dict[str, np.ndarray] = {}
    for index in range(streams):
        rng = np.random.default_rng(index)
        parts = [
            rng.normal(3.0 if part % 2 else 0.0, 1.0, size=segment)
            for part in range(segments)
        ]
        fleet[f"stream-{index:02d}"] = np.concatenate(parts)
    return fleet


def iter_chunks(fleet: dict[str, np.ndarray], chunk: int):
    """The interleaved replay order both paths share."""
    longest = max(values.size for values in fleet.values())
    for start in range(0, longest, chunk):
        for stream_id, values in fleet.items():
            piece = values[start:start + chunk]
            if piece.size:
                yield stream_id, piece


def run_in_process(fleet: dict[str, np.ndarray], window: int, chunk: int):
    """Baseline: the synchronous replay loop; returns (seconds, canonical)."""
    with ExplanationService(default_config=StreamConfig(window_size=window)) as service:
        for stream_id in fleet:
            service.register(stream_id)
        started = time.perf_counter()
        for stream_id, piece in iter_chunks(fleet, chunk):
            service.submit(stream_id, piece)
        service.drain()
        seconds = time.perf_counter() - started
        return seconds, canonical_report_dict(service.report().to_dict())


async def _feed_tcp(host: str, port: int, fleet, chunk: int) -> float:
    """Stream the fleet to the listening service; returns replay seconds."""
    reader, writer = await asyncio.open_connection(host, port)
    started = time.perf_counter()
    for stream_id, piece in iter_chunks(fleet, chunk):
        writer.write(
            (json.dumps({"stream": stream_id, "values": piece.tolist()}) + "\n").encode()
        )
        await writer.drain()  # backpressure: the socket pushes back on us
    writer.write(b'{"op": "drain"}\n')
    await writer.drain()
    ack = json.loads(await reader.readline())
    if not ack.get("ok"):
        raise RuntimeError(f"drain not acknowledged: {ack}")
    seconds = time.perf_counter() - started
    writer.write(b'{"op": "shutdown"}\n')
    await writer.drain()
    ack = json.loads(await reader.readline())
    if not ack.get("ok"):
        raise RuntimeError(f"shutdown not acknowledged: {ack}")
    writer.close()
    return seconds


def run_over_tcp(fleet: dict[str, np.ndarray], window: int, chunk: int):
    """The real thing: a ``repro serve --listen`` child fed over loopback."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    with tempfile.TemporaryDirectory(prefix="bench-async-") as tmp:
        report_path = Path(tmp) / "report.json"
        child = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--window",
                str(window),
                "--summary-only",
                "--output",
                str(report_path),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            line = child.stdout.readline()
            match = LISTEN_RE.search(line)
            if not match:
                raise RuntimeError(f"child did not announce a port: {line!r}")
            host, port = match.group(1), int(match.group(2))
            seconds = asyncio.run(_feed_tcp(host, port, fleet, chunk))
            _, stderr = child.communicate(timeout=120)
            if child.returncode != 0:
                raise RuntimeError(
                    f"child exited with {child.returncode}:\n{stderr}"
                )
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        payload = json.loads(report_path.read_text())
    return seconds, canonical_report_dict(payload)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small workload for CI smoke runs")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help="where to write the machine-readable JSON")
    args = parser.parse_args(argv)

    scale = QUICK if args.quick else FULL
    fleet = build_fleet(scale["streams"], scale["segments"], scale["segment"])
    observations = sum(values.size for values in fleet.values())

    runs = []
    canonicals = {}
    for label, runner in (("in-process", run_in_process), ("tcp", run_over_tcp)):
        seconds, canonical = runner(fleet, scale["window"], scale["chunk"])
        canonicals[label] = json.dumps(canonical, sort_keys=True)
        alarms = sum(len(stream["alarms"]) for stream in canonical["streams"])
        runs.append({
            "label": label,
            "replay_seconds": round(seconds, 4),
            "obs_per_second": round(observations / seconds, 1),
            "alarms": alarms,
        })
        print(f"{label:<12} {seconds:8.3f} s   {observations / seconds:>10,.0f} obs/s   "
              f"{alarms} alarms")

    parity_ok = canonicals["in-process"] == canonicals["tcp"]

    payload = {
        "quick": args.quick,
        "streams": scale["streams"],
        "observations": observations,
        "window": scale["window"],
        "chunk": scale["chunk"],
        "runs": runs,
        "parity_ok": parity_ok,
    }
    save_bench_json("async_ingest", payload, args.output)
    print(f"\nparity: {'ok' if parity_ok else 'FAILED'}")
    print(f"written to {args.output}")

    if not parity_ok:
        print("FAIL: TCP-ingested replay diverged from the in-process replay",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
