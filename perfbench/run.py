"""End-to-end and per-layer benchmark of the salientpref CLI.

Usage, from the root of a source checkout (nothing needs installing; the
package is imported from ``src/``):

    python3 perfbench/run.py --workload pipeline --seed 7 --seconds 55 --trace 0

Each session is one fresh worker process (``worker.py``) that stages the
workload's inputs and runs its CLI stages through ``salientpref.cli.main``.
Sessions repeat while another one is expected to end within ``--seconds``
(at least one runs), and every figure is the median over sessions.  After each session this process
checks the outputs against independent oracles (``checks.py``) outside the
timed region; an operation is one stage invocation, and it fails on a
non-zero exit, an exception or a failed check.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced sessions and reports the per-layer metrics, the stage
wall times and ``trace.overhead_s`` (traced minus untraced ``pipeline_s``).

BLAS threads are pinned to ``BLAS_THREADS`` for every session.  Results,
the environment and, when traced, every span go under ``.perfbench/`` in the
checkout.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "salientpref"
WORK = ROOT / ".perfbench"

# One BLAS thread: at or below nproc on any machine, and the steadiest timing.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _key in BLAS_ENV:
    os.environ[_key] = str(BLAS_THREADS)

# The whole run, build-free, must end well inside three minutes.
DEADLINE_S = 165.0

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import workloads  # noqa: E402

STAGES = ("simulate", "fit", "rank", "evaluate", "theory", "diagnose", "sweep")


def source_digest() -> str:
    """sha256 over the package sources, naming the code that was measured."""
    h = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        h.update(path.relative_to(PACKAGE).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_session(args, run_id: str, traced: bool, deadline: float) -> dict:
    """One worker process; its result plus the checks of its outputs."""
    out = WORK / "sessions" / run_id
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    result_path = out / "session.json"
    plan = workloads.plan(args.workload, out, args.seed)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", str(out), "--trace", str(int(traced)),
           "--run-id", run_id, "--result", str(result_path)]
    timeout = max(1.0, deadline - time.monotonic())
    with open(out / "worker.log", "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run(cmd + ["--t0", repr(time.monotonic())], cwd=ROOT,
                                  stdout=log, stderr=subprocess.STDOUT, timeout=timeout)
            rc = proc.returncode
        except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
            rc = "timeout"
    if rc != 0 or not result_path.is_file():
        tail = (out / "worker.log").read_text(encoding="utf-8", errors="replace")[-2000:]
        print(f"session {run_id}: worker exit {rc}\n{tail}", file=sys.stderr)
        return {"run_id": run_id, "traced": traced, "worker_rc": rc,
                "failures": {s.name: [f"worker exit {rc}"] for s in plan.stages}}
    session = json.loads(result_path.read_text(encoding="utf-8"))
    t_check = time.monotonic()
    failures = checks.check(plan, out)
    session["check_s"] = time.monotonic() - t_check
    for stage in session["stages"]:
        if stage["rc"] != 0 or stage["error"]:
            failures[stage["name"]].insert(0, f"exit {stage['rc']} {stage['error'] or ''}".strip())
    session["failures"] = failures
    session["output_mb"] = sum(os.path.getsize(p) for s in plan.stages if s.timed
                               for p in s.outputs if os.path.exists(p)) / 1e6
    for stage in session["stages"]:
        if stage["timed"]:
            session[f"{stage['name']}_s"] = stage["wall_s"]
    shutil.rmtree(out, ignore_errors=True)  # diagnose alone writes ~31 MB
    return session


def _summary(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    return f"n={len(values)}, min {min(values):.4g}, max {max(values):.4g}"


def _median(key, runs):
    vals = [r[key] for r in runs if key in r]
    return (statistics.median(vals) if vals else 0.0), vals


def end_to_end_report(spec, plain):
    """The bounded metrics, plus printed wall times of each CLI stage."""
    report, lines = {}, []
    for metric in spec["end_to_end"]:
        value, vals = _median(metric["name"], plain)
        report[metric["name"]] = {"value": value, "unit": metric["unit"]}
        lines.append(f"{metric['name']} = {value:.6g} {metric['unit']} (median, {_summary(vals)})")
    for stage in STAGES:
        value, vals = _median(f"{stage}_s", plain)
        if vals:
            lines.append(f"{stage}_s = {value:.6g} s (median, {_summary(vals)})")
    return report, lines


def layer_report(spec, plain, traced_runs, tag):
    """Per-layer medians over traced sessions; writes every span to a file."""
    layers = {}
    for r in traced_runs:
        for key, value in r["layers"].items():
            layers.setdefault(key, []).append(value)
    median = {k: statistics.median(v) for k, v in layers.items()}
    rows = median.get("model.design_rows", 0)
    median["model.distinct_pairs_per_row"] = median.get("model.distinct_pairs", 0) / rows if rows else 0.0
    for stage in STAGES:
        median[f"{stage}_s"] = _median(f"{stage}_s", plain)[0]
        # the span around each CLI stage is named cli.<stage>; its self time
        # is the stage's time outside every traced layer
        median[f"cli.{stage}_self_s"] = median.get(f"cli.{stage}_s", 0.0)
    median["trace.overhead_s"] = _median("pipeline_s", traced_runs)[0] - _median("pipeline_s", plain)[0]

    report, lines = {}, []
    for metric in spec["per_layer"]:
        value = median.get(metric["name"], 0)
        report[metric["name"]] = {"value": value, "unit": metric["unit"]}
        lines.append(f"{metric['name']} = {value:.6g} {metric['unit']}")
    absent = sorted({a for r in traced_runs for a in r.get("absent", [])})
    lines.append(f"absent trace targets: {', '.join(absent) or 'none'}")
    for stage in STAGES:
        untraced = median[f"{stage}_s"]
        if not untraced or not traced_runs:
            continue
        self_sum = statistics.median(
            [sum(sp["self_s"] for sp in r["spans"] if _under(r["spans"], sp, f"cli.{stage}"))
             for r in traced_runs])
        own = median[f"cli.{stage}_self_s"]
        lines.append(f"accounting {stage}: untraced {untraced:.4f} s, span self times "
                     f"{self_sum:.4f} s ({self_sum / untraced:.1%}), of which cli's own "
                     f"{own:.4f} s ({own / untraced:.1%})")
    WORK.mkdir(exist_ok=True)
    spans_path = WORK / f"{tag}.spans.jsonl"
    with open(spans_path, "w", encoding="utf-8") as fh:
        for r in traced_runs:
            for k, sp in enumerate(r["spans"]):
                fh.write(json.dumps({"id": k, **sp}) + "\n")
    lines.append(f"spans written to {spans_path.relative_to(ROOT)}")
    return report, lines


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.PLANS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED,
                    help=f"workload seed (default {workloads.DEFAULT_SEED})")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="how long to keep running sessions (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    t_begin = time.monotonic()
    deadline = t_begin + DEADLINE_S

    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no package source at {PACKAGE}", file=sys.stderr)
        return 2
    # Compile the package once so no session pays for writing bytecode.
    warm = subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
                           "import salientpref.cli", str(ROOT / "src")], cwd=ROOT)
    if warm.returncode != 0:
        print("error: salientpref does not import", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    sessions: list[dict] = []
    durations: list[float] = []
    t_measure = time.monotonic()
    while True:
        # A session starts only if it should end inside the window, so a run
        # lasts about --seconds; a traced run always finishes its last pair.
        finish_pair = args.trace and len(sessions) % 2 == 1
        expected = statistics.median(durations) if durations else 0.0
        fits = time.monotonic() - t_measure + expected <= args.seconds
        if sessions and not (fits or finish_pair):
            break
        if sessions and time.monotonic() + expected >= deadline:
            break
        t0 = time.monotonic()
        traced = bool(args.trace) and len(sessions) % 2 == 1
        session = run_session(args, f"{tag}-r{len(sessions)}", traced, deadline)
        sessions.append(session)
        durations.append(time.monotonic() - t0)
        if session.get("worker_rc") == "timeout":
            break

    attempted = sum(len(s["failures"]) for s in sessions)
    failed = sum(1 for s in sessions for msgs in s["failures"].values() if msgs)
    plain = [s for s in sessions if not s["traced"] and "worker_rc" not in s]
    traced_runs = [s for s in sessions if s["traced"] and "worker_rc" not in s]

    env = next((s["env"] for s in sessions if "env" in s), {})
    env.update({"seed": args.seed, "workload": args.workload, "seconds": args.seconds,
                "source_sha256": source_digest()})
    if env.get("salientpref_path") and Path(env["salientpref_path"]).resolve() != PACKAGE.resolve():
        print(f"error: measured {env['salientpref_path']}, not {PACKAGE}", file=sys.stderr)
        failed = attempted = max(attempted, 1)

    print(f"# workload {args.workload}: {workloads.WHY[args.workload]}")
    print("# environment " + json.dumps(env, sort_keys=True))
    for s in sessions:
        for stage, msgs in s["failures"].items():
            for msg in msgs:
                print(f"# FAILED {s['run_id']} {stage}: {msg}")

    if args.trace:
        report, lines = layer_report(spec, plain, traced_runs, tag)
    else:
        report, lines = end_to_end_report(spec, plain)
    rate = failed / attempted if attempted else 1.0
    lines.append(f"op_failure_rate = {rate:.6g} ratio ({failed} of {attempted} stage invocations)")
    for line in lines:
        print(line)

    WORK.mkdir(exist_ok=True)
    for s in sessions:
        s.pop("spans", None)
    (WORK / f"{tag}.json").write_text(json.dumps(
        {"env": env, "metrics": report, "attempted": attempted, "failed": failed,
         "sessions": sessions, "wall_s": time.monotonic() - t_begin}, indent=1), encoding="utf-8")
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": report}))
    return 0


def _under(spans, span, root_name) -> bool:
    """True when ``span`` is ``root_name`` or has it as an ancestor."""
    while True:
        if span["name"] == root_name:
            return True
        if span["parent"] is None:
            return False
        span = spans[span["parent"]]


if __name__ == "__main__":
    sys.exit(main())
