"""The declared runtime dependencies are exactly the packages the code imports,
the public names the package lists all exist and match a pinned list, as do
the parameters of its public callables, no public function takes both a
selection and the features it was realized on, nor a certificate beside the
instance it certifies, every public function has a use in another module or
in the README, only ``features.py`` holds the scalar input rule, only
``selection.py`` lays out pairs and keep masks, importing the package
leaves ``dataio`` unloaded, and the README example runs."""

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
    "ComparisonDataset", "DimensionError", "FeatureMatrix", "FitResult",
    "FullSelectionBounds", "InconsistencyReport", "InvalidPairError",
    "NotSingleCoordinateError", "NumericalFailureError", "ParseError", "PreconditionError",
    "Ranking", "RankingRecoveryBounds", "RealizedSelection", "SalientPrefError",
    "SampleComplexityReport", "SelectionSpec", "SingleCoordinateBounds", "TransitivityReport",
    "UndefinedMetricError", "UnknownItemError", "__version__", "all_pair_probabilities",
    "center_columns", "count_transitivity_violations", "fit",
    "full_selection_report", "kendall_correlation", "kendall_distance",
    "nll", "pairwise_accuracy",
    "pairwise_inconsistency", "rank_from_weights", "ranking_recovery_report", "realize",
    "sample_comparisons", "sample_complexity_report", "single_coordinate_report",
    "subset_kendall",
]


def test_public_names_are_pinned():
    assert sorted(salientpref.__all__) == PUBLIC_NAMES


def public_signatures():
    """Parameter names, in order, of each public callable; exception classes
    have no signature to read."""
    return {
        name: tuple(inspect.signature(obj).parameters)
        for name in salientpref.__all__
        if callable(obj := getattr(salientpref, name))
        and not (isinstance(obj, type) and issubclass(obj, BaseException))
    }


# the parameters of every public callable; adding, removing or renaming an
# option is a visible change to this dict
PUBLIC_SIGNATURES = {
    "ComparisonDataset": ("pair_i", "pair_j", "wins", "total", "n_items"),
    "FeatureMatrix": ("matrix", "item_ids"),
    "FitResult": (
        "w_hat", "final_grad_norm", "final_objective", "iterations", "stop_reason", "data_rank",
        "history",
    ),
    "FullSelectionBounds": (
        "nu", "lambda_closed", "zeta_upper", "eta_upper", "beta", "b_star", "delta", "m1",
        "m_lower", "d", "n", "error_bound_coefficient",
    ),
    "InconsistencyReport": ("pairs_compared", "inconsistent", "disagreeing_pairs"),
    "Ranking": ("positions",),
    "RankingRecoveryBounds": (
        "M", "k", "alpha_k", "m_terms", "m_lower", "delta", "b_star", "lambda_",
    ),
    "RealizedSelection": ("spec", "features"),
    "SampleComplexityReport": (
        "lambda_", "eta", "zeta", "beta", "b_star", "identifiable", "rank", "delta", "m1", "m2",
        "d", "n", "error_bound_coefficient", "sel", "w_star", "bits",
    ),
    "SelectionSpec": ("kind", "t", "k", "p", "seed"),
    "SingleCoordinateBounds": (
        "partition_sizes", "epsilon", "lambda_lower", "zeta_upper", "eta_upper", "beta", "b_star",
        "delta", "m1", "m3", "m_lower", "d", "n", "error_bound_coefficient",
    ),
    "TransitivityReport": (
        "triples_checked", "strong_violations", "moderate_violations", "weak_violations",
        "violations",
    ),
    "all_pair_probabilities": ("sel", "w"),
    "center_columns": ("fm",),
    "count_transitivity_violations": ("pair_i", "pair_j", "prob"),
    "fit": ("sel", "data", "mu", "tol_grad"),
    "full_selection_report": ("features", "w_star", "delta"),
    "kendall_correlation": ("a", "b"),
    "kendall_distance": ("a", "b"),
    "nll": ("sel", "w", "data", "mu"),
    "pairwise_accuracy": ("sel", "w", "data"),
    "pairwise_inconsistency": ("pair_i", "pair_j", "prob", "reference"),
    "rank_from_weights": ("features", "w"),
    "ranking_recovery_report": ("certificate", "k"),
    "realize": ("spec", "features"),
    "sample_comparisons": ("sel", "w_star", "m", "seed"),
    "sample_complexity_report": ("sel", "w_star", "delta"),
    "single_coordinate_report": ("certificate",),
    "subset_kendall": ("full", "items"),
}


def test_public_signatures_are_pinned():
    assert public_signatures() == PUBLIC_SIGNATURES


def test_no_public_callable_takes_features_beside_a_selection():
    # a RealizedSelection carries its features, so a second argument could
    # only disagree with it
    both = [
        name for name, params in public_signatures().items() if {"features", "sel"} <= set(params)
    ]
    assert both == []


def test_no_public_callable_takes_a_certificate_beside_its_instance():
    # a certificate carries its selection (hence features) and true weights
    both = [
        name
        for name, params in public_signatures().items()
        if "certificate" in params and set(params) & {"features", "sel", "w_star"}
    ]
    assert both == []


def readme_python() -> str:
    """The README's one python block."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert len(blocks) == 1
    return blocks[0]


def called_names(source: str) -> set:
    """The names called in ``source``, as ``f(...)`` or ``x.f(...)``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            names.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
    return names


def test_every_public_function_has_a_use():
    # a public function that no other module calls and the README does not
    # show is surface without a caller: use it, document it, or delete it
    readme = called_names(readme_python())
    unused = []
    for name in salientpref.__all__:
        obj = getattr(salientpref, name)
        if not inspect.isfunction(obj) or name in readme:
            continue
        home = obj.__module__.rsplit(".", 1)[-1] + ".py"
        if not any(name in called_names(path.read_text(encoding="utf-8"))
                   for path in PACKAGE.glob("*.py") if path.name != home):
            unused.append(name)
    assert unused == []


def relative_imports(module: str) -> set:
    """The sibling modules ``module`` imports by relative import."""
    siblings = set()
    for node in ast.walk(ast.parse((PACKAGE / module).read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            siblings.update([node.module] if node.module else [a.name for a in node.names])
    return siblings


def test_only_features_imports_numbers():
    # features.check_int and check_real are the one scalar input rule; another
    # module that imports numbers is on its way to a second copy of it
    importers = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            if any(module.split(".")[0] == "numbers" for module in modules):
                importers.add(path.name)
    assert importers == {"features.py"}


def test_only_selection_lays_out_pairs():
    # selection decodes flat pair indices and packed keep masks; a module that
    # calls one of these is on its way to a second copy of that layout
    layout = {"triu", "triu_indices", "packbits", "unpackbits"}
    callers = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "np"
                and node.func.attr in layout
            ):
                callers.add(path.name)
    assert callers == {"selection.py"}


def test_theory_neither_samples_nor_fits():
    # theory computes certificates from the instance alone; sampling data and
    # fitting it against a certificate is the caller's business
    siblings = relative_imports("theory.py")
    assert not siblings & {"estimator", "model"}, sorted(siblings)


def test_diagnostics_reads_probabilities_only():
    # the diagnostics take pairwise probabilities as arrays; computing them
    # from a model or a fit is the caller's business
    siblings = relative_imports("diagnostics.py")
    assert not siblings & {"estimator", "model"}, sorted(siblings)


def test_package_import_leaves_the_file_formats_unloaded():
    # dataio (and csv with it) is the CLI's module: the reports import it
    # inside to_dict, so importing the package must not load it
    code = (
        "import sys, salientpref\n"
        "print(sorted({'salientpref.dataio', 'csv'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=os.environ
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_leaves_the_process_pool_unloaded():
    # only sweep with workers > 1 starts a pool; concurrent.futures also loads
    # logging, which every other command would pay for
    code = (
        "import sys, salientpref.cli\n"
        "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=os.environ
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_readme_quick_start_runs():
    # conftest.py puts the imported package on PYTHONPATH for child processes
    proc = subprocess.run(
        [sys.executable, "-c", readme_python()], capture_output=True, text=True, env=os.environ
    )
    assert proc.returncode == 0, proc.stderr
