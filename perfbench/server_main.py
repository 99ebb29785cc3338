"""Service process of the ``service_mix`` workload.

Serves a store with :class:`repro.service.CompressionService`, prints
``{"port": N, "cpu_s": ...}`` once it listens, and shuts down when its
standard input closes.  It then prints ``{"peak_rss_mib": ..., "cpu_s": ...,
"trace": {...}}``, where the trace is the :class:`perfbench.tracer.Tracer`
summary when ``--trace 1``.  ``cpu_s`` is the process's CPU time so far.
"""

import argparse
import asyncio
import contextlib
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


async def serve(args) -> None:
    from repro.service import CompressionService, ServiceConfig

    config = ServiceConfig(
        cache_bytes=args.cache_bytes,
        max_inflight_per_tenant=args.max_inflight,
        max_pending=args.max_inflight,
    )
    service = CompressionService(args.store, config=config)
    _host, port = await service.start()
    print(json.dumps({"port": port, "cpu_s": time.process_time()}), flush=True)
    try:
        await asyncio.get_running_loop().run_in_executor(None, sys.stdin.read)
    finally:
        await service.stop()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--store", required=True)
    parser.add_argument("--cache-bytes", type=int, required=True)
    parser.add_argument("--max-inflight", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    from perfbench.common import peak_rss_mib
    from perfbench.tracer import Tracer

    tracer = Tracer()
    with tracer.installed() if args.trace else contextlib.nullcontext():
        asyncio.run(serve(args))
    summary = tracer.summary() if args.trace else {}
    print(
        json.dumps(
            {"peak_rss_mib": peak_rss_mib(), "cpu_s": time.process_time(), "trace": summary}
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
