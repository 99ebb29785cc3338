"""``service_mix``: an open-loop load generator against a service process.

The server (``server_main.py``) runs in its own process over a quality
store built like the ``window_reads`` one, with a decoded-chunk cache of
half the working set.  One client process keeps ``CONNECTIONS``
``AsyncServiceClient`` connections and sends seeded Poisson arrivals at
``RATE``: mostly hot and cold window reads, plus ``compress`` and
``decompress`` of a 64x32x32 array.  Latencies are timed from each request's scheduled
send time, so a stall also delays the requests queued behind it.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import repro.core as core
from repro.service import AsyncServiceClient

from . import window_reads
from .common import (
    CHUNK,
    SETUP_REPEATS,
    Tally,
    finish_end_to_end,
    make_field,
    pct,
    psnr_db,
    tolerance,
    within_bound,
    workdir,
)
from .tracer import per_layer

SERVER = Path(__file__).resolve().parent / "server_main.py"
#: At most one connection per core of the reference host (2 cores).
CONNECTIONS = 2
#: Mean arrivals per second.  Above about 25/s the read tails on the
#: reference host stop repeating from run to run (see README.md).
RATE = 20.0
#: Operations per block of arrivals.  Every block sends exactly these
#: counts in a seeded order, so runs differ in timing, not in mix.  Hot
#: reads are windows of varied extent in frame 0, which the server's cache
#: holds; cold reads are one-chunk windows of the other frames, about two
#: thirds of which miss the cache, so the 95th percentile of reads falls
#: inside the cold-read latencies.
BLOCK = {"hot": 85, "cold": 11, "compress": 2, "decompress": 2}
#: The array every compress and decompress request carries: two chunks.
ARRAY_SHAPE = (64, 32, 32)
ARRAY_GENERATOR = "s3d_temperature"
#: A request answered later than this (or failed) misses the goodput limit.
LIMIT_S = 0.5
#: A run whose generator lags its schedule by more than this share of the
#: limit (at the 99th percentile) is invalid: it did not offer the load.
MAX_LAG_FRAC = 0.2
#: Admission limits high enough that the offered load is never refused.
MAX_INFLIGHT = 64


@dataclass
class Server:
    proc: asyncio.subprocess.Process
    port: int
    stderr_path: Path
    cpu_ready_s: float  # the server's CPU time when it started listening
    ready_at: float  # event-loop time when it started listening


async def start_server(store_path: Path, root: Path, trace: bool) -> Server:
    stderr_path = root / f"server-{time.monotonic_ns()}.err"
    with open(stderr_path, "wb") as err:
        proc = await asyncio.create_subprocess_exec(
            sys.executable, str(SERVER),
            "--store", str(store_path),
            "--cache-bytes", str(window_reads.CACHE_BYTES),
            "--max-inflight", str(MAX_INFLIGHT),
            "--trace", str(int(trace)),
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            stderr=err,
        )
    try:
        ready = json.loads(await asyncio.wait_for(proc.stdout.readline(), 60))
    except BaseException:
        proc.kill()
        await proc.wait()
        raise
    loop = asyncio.get_running_loop()
    return Server(proc, ready["port"], stderr_path, ready["cpu_s"], loop.time())


async def stop_server(server: Server, tally: Tally) -> dict:
    """Close the server's stdin, wait for it to exit, and count a nonzero
    exit or a traceback on its stderr as failures.  Returns the server's
    last line, plus ``cpu_frac``: its CPU time over its wall while serving."""
    server.proc.stdin.close()
    try:
        out = await asyncio.wait_for(server.proc.stdout.read(), 60)
        await asyncio.wait_for(server.proc.wait(), 10)
    except asyncio.TimeoutError:
        server.proc.kill()
        await server.proc.wait()
        out = b""
    tally.record(server.proc.returncode == 0, f"server exit code {server.proc.returncode}")
    stderr = server.stderr_path.read_text(errors="replace")
    tally.record("Traceback" not in stderr, f"server stderr: {stderr[-2000:]}")
    lines = out.decode().strip().splitlines()
    done = json.loads(lines[-1]) if lines else {"peak_rss_mib": 0.0, "cpu_s": 0.0, "trace": {}}
    serving_s = asyncio.get_running_loop().time() - server.ready_at
    done["cpu_frac"] = max(0.0, done["cpu_s"] - server.cpu_ready_s) / serving_s
    return done


@dataclass
class Inputs:
    data: np.ndarray
    tol: float
    payload: bytes
    decoded: np.ndarray


def make_inputs(seed: int) -> Inputs:
    data = make_field(ARRAY_GENERATOR, ARRAY_SHAPE, seed * 16 + 8)
    tol = tolerance(data)
    payload = core.compress(data, core.PweMode(tol), chunk_shape=CHUNK).payload
    return Inputs(data, tol, payload, core.decompress(payload))


def schedule(seed: int, seconds: float, n_frames: int) -> list[tuple[float, str, object]]:
    """``RATE * seconds`` seeded arrivals ``(offset_s, op, window or None)``.

    The offsets are sorted uniform draws over ``[0, seconds)``: a Poisson
    process conditioned on its count, so every run offers the same load.
    """
    rng = np.random.default_rng(seed)
    offsets = np.sort(rng.uniform(0.0, seconds, int(RATE * seconds)))
    block = [op for op, n in BLOCK.items() for _ in range(n)]
    pending: list[str] = []
    out = []
    for t in offsets:
        if not pending:
            pending = [str(op) for op in rng.permutation(block)]
        op = pending.pop()
        if op == "hot":
            window = window_reads.random_window(rng, window_reads.SHAPE)
            out.append((float(t), "read", (0, window)))
        elif op == "cold":
            frame = int(rng.integers(1, n_frames))
            window = window_reads.random_window(rng, window_reads.SHAPE, (CHUNK,), aligned=1.0)
            out.append((float(t), "read", (frame, window)))
        else:
            out.append((float(t), op, None))
    return out


@dataclass
class Done:
    op: str
    scheduled_s: float  # latency from the scheduled send time
    sent_s: float  # latency from the actual send
    ok: bool
    nbytes: int  # array bytes sent (compress) or received (others)


@dataclass
class Phase:
    lag_s: list[float] = field(default_factory=list)
    done: list[Done] = field(default_factory=list)
    compressed: list[bytes] = field(default_factory=list)
    sent: int = 0
    wall_s: float = 0.0
    stats: dict = field(default_factory=dict)

    def latencies(self, op: str, scheduled: bool = True) -> list[float]:
        """Latencies in ms of the ``op`` requests that succeeded."""
        return [
            1e3 * (d.scheduled_s if scheduled else d.sent_s)
            for d in self.done
            if d.op == op and d.ok
        ]

    def mb_per_s(self, op: str) -> float:
        """Array MB over the median latency from send of ``op`` requests."""
        ok = [d for d in self.done if d.op == op and d.ok]
        return ok[0].nbytes / 1e6 / float(np.median([d.sent_s for d in ok]))


async def run_load(clients, plan, store, inputs: Inputs, tally: Tally, tamper=None) -> Phase:
    """Send ``plan`` on its schedule and check every answer as it lands;
    compress payloads are kept and decoded once the load is over.
    ``tamper(op, result) -> result`` lets the tests corrupt an answer."""
    loop = asyncio.get_running_loop()
    phase = Phase()

    async def one(i: int, t_sched: float, op: str, arg) -> None:
        t_send = loop.time()
        phase.lag_s.append(t_send - t_sched)
        client = clients[i % len(clients)]
        ok, nbytes, what = False, 0, f"service {op}"
        try:
            if op == "read":
                frame, window = arg
                out = await client.read_window(window, frame=frame)
                out = out if tamper is None else tamper(op, out)
                direct = store.reader.read_window(window, frame=frame)
                ok, nbytes = np.array_equal(out, direct), out.nbytes
                what = f"service read frame {frame} {window}: differs from read_window"
            elif op == "compress":
                payload = await client.compress(inputs.data, pwe=inputs.tol, chunk=CHUNK)
                payload = payload if tamper is None else tamper(op, payload)
                phase.compressed.append(payload)
                ok, nbytes = True, inputs.data.nbytes  # checked after the load
            else:
                out = await client.decompress(inputs.payload)
                out = out if tamper is None else tamper(op, out)
                ok, nbytes = np.array_equal(out, inputs.decoded), out.nbytes
                what = "service decompress: differs from decompress"
        except Exception as exc:  # noqa: BLE001 - a failed request is counted
            what = f"service {op}: {type(exc).__name__}: {exc}"
        t_done = loop.time()
        if op != "compress" or not ok:
            tally.record(ok, what)
        phase.done.append(Done(op, t_done - t_sched, t_done - t_send, ok, nbytes))

    tasks = []
    start = loop.time() + 0.05
    for i, (offset, op, arg) in enumerate(plan):
        delay = start + offset - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(one(i, start + offset, op, arg)))
        phase.sent += 1
    await asyncio.wait_for(asyncio.gather(*tasks), 120)
    phase.wall_s = loop.time() - start
    phase.stats = await clients[0].stats()
    return phase


def check_compressed(phase: Phase, inputs: Inputs, tally: Tally) -> None:
    """Decode every compress answer and check it against the bound."""
    for payload in phase.compressed:
        try:
            recon = core.decompress(payload)
        except Exception as exc:  # noqa: BLE001 - a failed check is counted
            tally.record(False, f"service compress: {type(exc).__name__}: {exc}")
            continue
        ok = within_bound(inputs.data, recon, inputs.tol)
        tally.record(ok, "service compress: PWE bound")


async def serve_and_load(
    store, root, plan, inputs, tally, trace: bool, server=None, tamper=None
):
    """One server lifetime: start it (unless given), connect, warm the hot
    set, run ``plan``, close the clients, stop the server."""
    server = server or await start_server(store.path, root, trace)
    clients = []
    try:
        for _ in range(CONNECTIONS):
            clients.append(await AsyncServiceClient.connect("127.0.0.1", server.port))
        await clients[0].read_window(None, frame=0)
        phase = await run_load(clients, plan, store, inputs, tally, tamper)
    finally:
        for client in clients:
            await client.close()
        done = await stop_server(server, tally)
    return phase, done


async def timed_setup(path: Path, frames, tol, root: Path, tally: Tally):
    """Build the store and start its server: the set-up of one run."""
    store = window_reads.build_store(path, frames, tol, tally)
    server = await start_server(store.path, root, trace=False)
    try:
        probe = await AsyncServiceClient.connect("127.0.0.1", server.port)
        try:
            await probe.ping()
        finally:
            await probe.close()
    except BaseException:
        server.proc.kill()
        await server.proc.wait()
        raise
    return store, server


async def run_async(seed: int, seconds: float, trace: bool, tally: Tally, tamper=None):
    frames, tol = window_reads.make_frames(seed)
    inputs = make_inputs(seed)
    with workdir("service_mix") as root:
        setup_s = []
        for k in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            store, server = await timed_setup(root / f"store{k}", frames, tol, root, tally)
            setup_s.append(time.perf_counter() - t0)
            if k < SETUP_REPEATS - 1:
                await stop_server(server, tally)
        if not trace:
            plan = schedule(seed, seconds, len(frames))
            phase, done = await serve_and_load(
                store, root, plan, inputs, tally, False, server, tamper
            )
            check_compressed(phase, inputs, tally)
            if not valid(phase, tally):
                return {}
            metrics = end_to_end(phase, store)
            return finish_end_to_end(metrics, setup_s, tally, done["peak_rss_mib"])
        plan = schedule(seed, seconds / 2, len(frames))
        base, _ = await serve_and_load(store, root, plan, inputs, tally, False, server)
        traced, done = await serve_and_load(store, root, plan, inputs, tally, True)
        check_compressed(base, inputs, tally)
        check_compressed(traced, inputs, tally)
        if not (valid(base, tally) and valid(traced, tally)):
            return {}
    return per_layer(done["trace"], layer_extras(base, traced, done["cpu_frac"]))


def run(seed: int, seconds: float, trace: bool, tally: Tally, tamper=None):
    return asyncio.run(run_async(seed, seconds, trace, tally, tamper))


def valid(phase: Phase, tally: Tally) -> bool:
    """False (and a note) when the generator fell behind its schedule."""
    lag_ms = 1e3 * pct(phase.lag_s, 99)
    if lag_ms <= 1e3 * MAX_LAG_FRAC * LIMIT_S:
        return True
    tally.notes.append(
        f"invalid run: generator lag p99 {lag_ms:.1f} ms exceeds "
        f"{MAX_LAG_FRAC:.0%} of the {1e3 * LIMIT_S:.0f} ms limit"
    )
    tally.failed += 1
    return False


def end_to_end(phase: Phase, store) -> dict[str, tuple[float, str]]:
    """User-visible metrics.  ``ratio`` and ``psnr_db`` describe the store
    the service serves, as in ``window_reads``: a single small compress
    array per run would make them depend on its content more than on the
    codec.  Empty when some operation never succeeded."""
    if not all(phase.latencies(op) for op in ("read", "compress", "decompress")):
        return {}
    reads = phase.latencies("read")
    reads_sent = phase.latencies("read", scheduled=False)
    good = sum(1 for d in phase.done if d.ok and d.scheduled_s <= LIMIT_S)
    return {
        "compress_MBps": (phase.mb_per_s("compress"), "MB/s"),
        "decompress_MBps": (phase.mb_per_s("decompress"), "MB/s"),
        "ratio": (sum(f.nbytes for f in store.frames) / store.nbytes, "x"),
        "psnr_db": (
            float(np.mean([psnr_db(f, r) for f, r in zip(store.frames, store.refs)])), "dB"
        ),
        "read_p50_ms": (pct(reads_sent, 50), "ms"),
        "read_p95_ms": (pct(reads_sent, 95), "ms"),
        "reads_per_s": (len(reads) / phase.wall_s, "1/s"),
        "svc_read_p50_ms": (pct(reads, 50), "ms"),
        "svc_read_p95_ms": (pct(reads, 95), "ms"),
        "svc_compress_p50_ms": (pct(phase.latencies("compress"), 50), "ms"),
        "svc_goodput_rps": (good / phase.wall_s, "1/s"),
    }


def layer_extras(base: Phase, traced: Phase, cpu_frac: float) -> dict[str, float]:
    """Service, store and generator figures of the traced server run, read
    from the server's public ``stats`` endpoint and the generator."""
    counters = traced.stats["counters"]
    latency = traced.stats["latency"]
    cache = traced.stats["cache"]
    decodes = counters.get("chunk_decodes", 0)
    coalesced = counters.get("coalesced_chunk_hits", 0)
    lookups = cache["hits"] + cache["misses"]
    server_read_p50 = latency["read_window"]["p50_ms"]

    def mean_sent(phase: Phase) -> float:
        return float(np.mean([d.sent_s for d in phase.done]))

    return {
        "service.read.p50_ms": server_read_p50,
        "service.read.p99_ms": latency["read_window"]["p99_ms"],
        "service.compress.p50_ms": latency.get("compress", {}).get("p50_ms", 0.0),
        "service.coalesced_frac": coalesced / (coalesced + decodes) if decodes else 0.0,
        "service.batches": counters.get("batches", 0),
        "service.cpu_frac": cpu_frac,
        "service.rejects": counters.get("backpressure_rejects", 0),
        "service.client_minus_server_ms": (
            pct(traced.latencies("read", scheduled=False), 50) - server_read_p50
        ),
        "store.chunk_decodes": decodes,
        "store.decodes_per_read": decodes / max(1, counters.get("requests.read_window", 0)),
        "store.cache.hits": cache["hits"],
        "store.cache.misses": cache["misses"],
        "store.cache.evictions": cache["evictions"],
        "store.cache.hit_rate": cache["hits"] / lookups if lookups else 0.0,
        "loadgen.sent": traced.sent,
        "loadgen.completed": sum(d.ok for d in traced.done),
        "loadgen.failed": sum(not d.ok for d in traced.done),
        "loadgen.lag_p99_ms": 1e3 * pct(traced.lag_s, 99),
        "trace.overhead_frac": mean_sent(traced) / mean_sent(base) - 1.0,
    }
