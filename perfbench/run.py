"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload archive --seed 1 --seconds 20 --trace 0

Run from a repository checkout: the benchmark imports ``repro`` from the
checkout's ``src/`` and exits with status 2 when it is missing.  With
``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("archive", "fast_ingest", "window_reads", "service_mix")
#: The seed used unless one is given.  Seed 7919 is held out of tuning: a
#: claimed gain must also hold with ``--seed 7919``.
DEFAULT_SEED = 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import codec_loop, service_mix, window_reads
    from perfbench.common import Tally, result_line

    runners = {
        "archive": lambda *a: codec_loop.run("quality", *a),
        "fast_ingest": lambda *a: codec_loop.run("adaptive", *a),
        "window_reads": window_reads.run,
        "service_mix": service_mix.run,
    }
    tally = Tally()
    metrics = runners[args.workload](args.seed, args.seconds, bool(args.trace), tally)
    for note in tally.notes:
        print(f"perfbench: failed: {note}", file=sys.stderr)
    print(result_line(tally, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
