"""Cold-start probe: a fresh interpreter imports ``repro`` and compresses and
decompresses one 64^3 field, exiting 1 if the PWE bound does not hold.

Run by the ``archive`` and ``fast_ingest`` set-up; the caller times it.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--codec", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    import repro.core as core
    from perfbench.common import CHUNK, make_field, tolerance, within_bound

    data = make_field("miranda_density", (64, 64, 64), args.seed)
    tol = tolerance(data)
    res = core.compress(data, core.PweMode(tol), chunk_shape=CHUNK, codec=args.codec)
    return 0 if within_bound(data, core.decompress(res.payload), tol) else 1


if __name__ == "__main__":
    sys.exit(main())
