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
each changed file in CHANGES.md.
"""

import json
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


def run_stages(out: Path) -> dict:
    """The environment and the sha256 of every primary output, from a child."""
    env = {**os.environ, **dict.fromkeys(BLAS_ENV, "1")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-B", "-c", CHILD, str(ROOT / "perfbench"), str(out)],
                   env=env, check=True, stdout=subprocess.DEVNULL)
    return json.loads((out / "digests.json").read_text(encoding="utf-8"))


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


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        record = run_stages(Path(scratch))
    before = json.loads(DIGESTS.read_text(encoding="utf-8"))["sha256"] if DIGESTS.exists() else {}
    for name in sorted(before.keys() | record["sha256"].keys()):
        if before.get(name) != record["sha256"].get(name):
            print(f"changed: {name}")
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(record['sha256'])} digests to {DIGESTS}")
