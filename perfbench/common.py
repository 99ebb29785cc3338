"""Shared pieces of the benchmark: paths, seeded inputs, statistics and the
correctness tally that feeds ``ok_frac``."""

from __future__ import annotations

import contextlib
import json
import math
import resource
import shutil
import statistics
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Every file a run writes lives here, inside the checkout, and is removed.
WORK_ROOT = ROOT / ".perfbench_tmp"

#: The fixed point-wise error bound of every workload, relative to range.
PWE_REL = 1e-3
#: Chunk edge of every compress call: 128^3 fields split into 64 chunks.
CHUNK = 32


def make_field(name: str, shape: tuple[int, int, int], seed: int) -> np.ndarray:
    """A ``repro.datasets.fields`` volume of exactly ``shape``."""
    from repro.datasets.fields import FIELDS

    if name == "qmcpack_orbitals":
        # The generator stacks four orbital volumes along the last axis.
        return FIELDS[name](shape=(*shape[:-1], shape[-1] // 4), seed=seed)
    return FIELDS[name](shape=shape, seed=seed)


def tolerance(data: np.ndarray) -> float:
    """Absolute PWE bound: ``PWE_REL`` times the data range."""
    return PWE_REL * float(data.max() - data.min())


def within_bound(orig: np.ndarray, recon, tol: float) -> bool:
    """True when ``recon`` has ``orig``'s shape and every error is <= tol."""
    recon = np.asarray(recon)
    if recon.shape != orig.shape:
        return False
    return bool(np.max(np.abs(orig - recon)) <= tol)


def psnr_db(orig: np.ndarray, recon: np.ndarray) -> float:
    """Peak signal-to-noise ratio over the data range, in dB."""
    rng = float(orig.max() - orig.min())
    mse = float(np.mean((orig - recon) ** 2))
    return 20.0 * math.log10(rng) - 10.0 * math.log10(mse)


def pct(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation) of ``values``."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mib() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Tally:
    """Attempted and failed operations; an operation fails when it raises
    or when its output does not pass the workload's correctness check."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)
        return ok

    @property
    def ok_frac(self) -> float:
        return 1.0 - self.failed / max(1, self.attempted)


@contextlib.contextmanager
def workdir(tag: str):
    """A fresh directory under :data:`WORK_ROOT`, removed on exit."""
    WORK_ROOT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=WORK_ROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()


def result_line(tally: Tally, metrics: dict[str, tuple[float, str]]) -> str:
    """The JSON object a run prints as its last line."""
    return json.dumps(
        {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {
                name: {"value": float(value), "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )


#: Every end-to-end metric of an untraced run, with its unit.
END_TO_END_UNITS = {
    "setup_s": "s",
    "compress_MBps": "MB/s",
    "decompress_MBps": "MB/s",
    "ratio": "x",
    "psnr_db": "dB",
    "read_p50_ms": "ms",
    "read_p95_ms": "ms",
    "reads_per_s": "1/s",
    "svc_read_p50_ms": "ms",
    "svc_read_p95_ms": "ms",
    "svc_compress_p50_ms": "ms",
    "svc_goodput_rps": "1/s",
    "ok_frac": "frac",
    "peak_rss_mib": "MiB",
}
#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 5


def finish_end_to_end(
    metrics: dict[str, tuple[float, str]],
    setup_s: list[float],
    tally: Tally,
    rss_mib: float,
) -> dict[str, tuple[float, str]]:
    """Add the metrics every workload reports the same way; no metrics at
    all when the workload had none (no operation succeeded)."""
    if not metrics:
        return {}
    out = dict(metrics)
    out["setup_s"] = (statistics.median(setup_s), "s")
    out["ok_frac"] = (tally.ok_frac, "frac")
    out["peak_rss_mib"] = (rss_mib, "MiB")
    if {k: u for k, (_, u) in out.items()} != END_TO_END_UNITS:
        raise RuntimeError(f"metric set mismatch: {sorted(out)}")
    return out
