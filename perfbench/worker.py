"""One benchmark session in a fresh process: stage inputs, run the timed stages.

Started by ``run.py``; not meant to be run by hand.  Every stage is a call of
``salientpref.cli.main(argv)`` in this process.  ``setup_s`` runs from the
parent's clock reading just before this process was spawned until the inputs
are staged, so it covers interpreter start, ``import salientpref`` and any
untimed stage.  With ``--trace 1`` the layer functions are wrapped (see
``tracing.py``) after staging, so spans cover the timed stages only.

Writes one JSON file (``--result``) and nothing on standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import salientpref  # noqa: E402
from salientpref import cli  # noqa: E402

import workloads  # noqa: E402


def environment() -> dict:
    """What the timings depend on besides the code: versions, BLAS, CPUs."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    kernels = sys.modules.get("salientpref._kernels")
    numba_enabled = bool(getattr(kernels, "NUMBA_ENABLED", False))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "salientpref": getattr(salientpref, "__version__", "unknown"),
        "salientpref_path": os.path.dirname(salientpref.__file__),
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "numba_imported": "numba" in sys.modules,
        "kernel_path": "numba" if numba_enabled else "numpy",
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process's own address space, in MB.

    ``ru_maxrss`` from ``getrusage`` is only the fallback: on Linux it keeps
    the spawning process's peak across exec, so a parent larger than the
    workload would hide the workload's own peak.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_stage(stage, tracer) -> dict:
    t0 = time.perf_counter()
    rc, error = None, None
    try:
        if tracer is None:
            rc = cli.main(list(stage.argv))
        else:
            rc = tracer.call(f"cli.{stage.name}", cli.main, None, (list(stage.argv),), {})
    except SystemExit as exc:  # argparse rejects its arguments this way
        rc = exc.code
    except Exception:  # a stage that raises is a failed operation, not a crash
        error = traceback.format_exc()
    return {"name": stage.name, "timed": stage.timed, "rc": rc, "error": error,
            "wall_s": time.perf_counter() - t0}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.PLANS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--t0", type=float, required=True, help="parent's time.monotonic() at spawn")
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--run-id", required=True)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args()

    args.out.mkdir(parents=True, exist_ok=True)
    plan = workloads.plan(args.workload, args.out, args.seed)
    for name, text in plan.files.items():
        (args.out / name).write_text(text, encoding="utf-8")
    stages = [run_stage(s, None) for s in plan.stages if not s.timed]
    setup_s = time.monotonic() - args.t0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(args.run_id)
        tracer.install()
    t_start = time.perf_counter()
    stages += [run_stage(s, tracer) for s in plan.stages if s.timed]
    pipeline_s = time.perf_counter() - t_start

    result = {
        "run_id": args.run_id,
        "traced": bool(args.trace),
        "setup_s": setup_s,
        "pipeline_s": pipeline_s,
        "peak_rss_mb": peak_rss_mb(),
        "stages": stages,
        "env": environment(),
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["spans"] = tracer.spans
        result["absent"] = tracer.absent
        result["bookkeeping_s"] = tracer.bookkeeping
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
