"""The declared runtime dependencies are exactly the packages the code imports,
the public names the package lists all exist and match a pinned list, no
public function takes both a selection and the features it was realized on,
nor a certificate beside the instance it certifies, and the README example
runs."""

import ast
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import salientpref

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "salientpref"


def imported_third_party():
    """Top-level names of every non-stdlib absolute import in the package."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return {n for n in names if n not in sys.stdlib_module_names and n != "salientpref"}


def declared_dependencies():
    """Names in ``[project].dependencies`` of pyproject.toml (no TOML library:
    ``tomllib`` is stdlib only from Python 3.11)."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]\s*$(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    deps = re.search(r"^dependencies\s*=\s*\[(.*?)\]", project, re.M | re.S).group(1)
    specs = re.findall(r"[\"']([^\"']+)[\"']", deps)
    return {re.match(r"[A-Za-z0-9_.\-]+", s.strip()).group(0).lower() for s in specs}


def test_dependencies_match_imports():
    imported = imported_third_party()
    assert imported, "expected at least numpy"
    assert {n.lower() for n in imported} == declared_dependencies()


def test_all_names_resolve_once():
    missing = [name for name in salientpref.__all__ if not hasattr(salientpref, name)]
    assert missing == []
    assert len(set(salientpref.__all__)) == len(salientpref.__all__)


# the public names; adding or removing one is a visible change to this list
PUBLIC_NAMES = [
    "ComparisonDataset", "DimensionError", "FeatureMatrix", "FitConfig", "FitResult",
    "FullSelectionBounds", "GuaranteeCheck", "InconsistencyReport", "InvalidPairError",
    "NotSingleCoordinateError", "NumericalFailureError", "ParseError", "PreconditionError",
    "Ranking", "RankingRecoveryBounds", "RealizedSelection", "SalientPrefError",
    "SampleComplexityReport", "SelectionSpec", "SingleCoordinateBounds", "TransitivityReport",
    "UndefinedMetricError", "UnknownItemError", "__version__", "all_pair_probabilities",
    "center_columns", "count_transitivity_violations", "empirical_guarantee_check", "fit",
    "full_selection_report", "kendall_correlation", "kendall_distance",
    "model_transitivity_report", "nll", "nll_gradient", "nll_hessian", "pairwise_accuracy",
    "pairwise_inconsistency", "rank_from_weights", "ranking_recovery_report", "realize",
    "sample_comparisons", "sample_complexity_report", "single_coordinate_report",
    "subset_kendall", "utility_gaps",
]


def test_public_names_are_pinned():
    assert sorted(salientpref.__all__) == PUBLIC_NAMES


def public_signatures():
    """Parameter names of each public callable; exception classes have no
    signature to read."""
    out = {
        name: set(inspect.signature(obj).parameters)
        for name in salientpref.__all__
        if callable(obj := getattr(salientpref, name))
        and not (isinstance(obj, type) and issubclass(obj, BaseException))
    }
    assert len(out) > 30
    return out


def test_no_public_callable_takes_features_beside_a_selection():
    # a RealizedSelection carries its features, so a second argument could
    # only disagree with it
    both = [name for name, params in public_signatures().items() if {"features", "sel"} <= params]
    assert both == []


def test_no_public_callable_takes_a_certificate_beside_its_instance():
    # a certificate carries its selection (hence features) and true weights
    both = [
        name
        for name, params in public_signatures().items()
        if "certificate" in params and params & {"features", "sel", "w_star"}
    ]
    assert both == []


def test_readme_quick_start_runs():
    # conftest.py puts the imported package on PYTHONPATH for child processes
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert len(blocks) == 1
    proc = subprocess.run(
        [sys.executable, "-c", blocks[0]], capture_output=True, text=True, env=os.environ
    )
    assert proc.returncode == 0, proc.stderr
