"""Every primary output of the benchmark's stage lists, pinned by sha256.

The stages of perfbench's ``pipeline`` and ``certify_wide`` workloads and
``sweep_small``'s ``sweep.csv`` run at seeds 7 and 11 through
``salientpref.cli.main``, in one child process with BLAS pinned to one
thread as the benchmark runs them.  Manifests record timings and paths, so
they are not pinned.

The digests hold for the numpy version and BLAS library recorded beside them
in ``golden/digests.json``.  Under another numpy or BLAS, floats may move at
roundoff (``theory.json`` does when BLAS threads are not pinned), so there
the test fails and names both environments: no digest recorded here vouches
for those outputs.  Re-pin in that environment, or after changing an output
on purpose, with ``PYTHONPATH=src python tests/test_golden.py``, which
prints the name of each digest that differs from the pinned one, and name
each changed file in CHANGES.md.  ``--baseline CHECKOUT`` also runs the
stages on another source checkout (say, the parent commit's) and prints, for
each JSON output whose bytes differ from its output there, the largest
relative change over its numeric leaves.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).resolve().parent / "golden" / "digests.json"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# run by ``python -B``: perfbench/ gets no bytecode cache
CHILD = """
import hashlib, json, sys
from pathlib import Path
import numpy as np
sys.path.insert(0, sys.argv[1])
import workloads
from salientpref.cli import main

out, digests = Path(sys.argv[2]), {}
for workload in ("pipeline", "certify_wide", "sweep_small"):
    for seed in (7, 11):
        where = out / f"{workload}-{seed}"
        where.mkdir(parents=True)
        plan = workloads.plan(workload, where, seed)
        for name, text in plan.files.items():
            (where / name).write_text(text, encoding="utf-8")
        for stage in plan.stages:
            if main(list(stage.argv)) != 0:
                raise SystemExit(f"{workload} seed {seed}: {stage.name} failed")
            for path in map(Path, stage.outputs):
                name = f"{workload}/{seed}/{path.relative_to(where).as_posix()}"
                digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
environment = {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}
(out / "digests.json").write_text(json.dumps({"environment": environment, "sha256": digests}))
"""


def run_stages(out: Path, root: Path = ROOT) -> dict:
    """The environment and the sha256 of every primary output, from a child
    that imports the package from ``root``'s ``src``."""
    env = {**os.environ, **dict.fromkeys(BLAS_ENV, "1")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-B", "-c", CHILD, str(ROOT / "perfbench"), str(out)],
                   env=env, check=True, stdout=subprocess.DEVNULL)
    return json.loads((out / "digests.json").read_text(encoding="utf-8"))


def output_path(out: Path, name: str) -> Path:
    """Where ``run_stages(out)`` wrote the output a digest name refers to."""
    workload, seed, rel = name.split("/", 2)
    return out / f"{workload}-{seed}" / rel


def largest_relative_change(a, b) -> float:
    """max |x - y| / max(|x|, |y|) over the numeric leaves of two JSON values
    (0 where both are equal); inf when their shapes or other leaves differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return float("inf")
        return max((largest_relative_change(a[k], b[k]) for k in a), default=0.0)
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return float("inf")
        return max(map(largest_relative_change, a, b), default=0.0)
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
    if not numbers:
        return 0.0 if type(a) is type(b) and a == b else float("inf")
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return float("inf")
    return abs(a - b) / max(abs(a), abs(b))


def test_primary_outputs_match_their_digests(tmp_path):
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = run_stages(tmp_path)
    assert got["environment"] == pinned["environment"], (
        "digests were pinned under another numpy or BLAS; re-pin them there "
        "(see this module's docstring)"
    )
    assert got["sha256"].keys() == pinned["sha256"].keys()
    moved = sorted(name for name, digest in got["sha256"].items()
                   if digest != pinned["sha256"][name])
    assert not moved, f"primary outputs changed: {moved}"


def test_largest_relative_change_reads_numeric_leaves():
    base = {"a": [1.0, 2, {"b": 4.0}], "c": "x", "d": True, "e": None}
    moved = {"a": [1.0, 2, {"b": 4.0 * (1 + 1e-15)}], "c": "x", "d": True, "e": None}
    assert largest_relative_change(base, base) == 0.0
    assert largest_relative_change(base, moved) == abs(4.0 * (1 + 1e-15) - 4.0) / (4.0 * (1 + 1e-15))
    assert largest_relative_change(base, {**base, "c": "y"}) == float("inf")
    assert largest_relative_change(base, {**base, "d": 1}) == float("inf")
    assert largest_relative_change([1.0], [1.0, 2.0]) == float("inf")
    assert largest_relative_change([math.inf, math.nan], [math.inf, math.nan]) == 0.0
    assert largest_relative_change(math.inf, 1.0) == float("inf")


if __name__ == "__main__":
    import argparse
    import tempfile

    parser = argparse.ArgumentParser(description="re-pin the golden digests")
    parser.add_argument("--baseline", type=Path,
                        help="a source checkout whose outputs the changed JSON outputs are compared to")
    options = parser.parse_args()
    with tempfile.TemporaryDirectory() as scratch:
        record = run_stages(Path(scratch) / "this")
        if options.baseline is not None:
            base = run_stages(Path(scratch) / "base", options.baseline.resolve())
            for name, digest in sorted(record["sha256"].items()):
                if name.endswith(".json") and digest != base["sha256"].get(name):
                    values = [json.loads(output_path(Path(scratch) / side, name).read_text("utf-8"))
                              for side in ("base", "this")]
                    print(f"moved from baseline: {name}: largest relative change "
                          f"{largest_relative_change(*values):.3g}")
    before = json.loads(DIGESTS.read_text(encoding="utf-8"))["sha256"] if DIGESTS.exists() else {}
    for name in sorted(before.keys() | record["sha256"].keys()):
        if before.get(name) != record["sha256"].get(name):
            print(f"changed: {name}")
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(record['sha256'])} digests to {DIGESTS}")
