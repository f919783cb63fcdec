import csv
import hashlib
import itertools
import json
import math
import os
import platform
import subprocess
import sys
import threading

import numpy as np
import pytest

import oracles
from conftest import piped
from salientpref import (
    FeatureMatrix,
    SelectionSpec,
    all_pair_probabilities,
    cli,
    count_transitivity_violations,
    fit,
    kendall_correlation,
    kendall_distance,
    pairwise_inconsistency,
    rank_from_weights,
    realize,
    sample_comparisons,
)
from salientpref.dataio import load_features, load_weights_json, read_json, save_features

RUN = [sys.executable, "-m", "salientpref.cli"]


def run_cli(*args, check=True):
    proc = subprocess.run(
        RUN + [str(a) for a in args], capture_output=True, text=True
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed ({proc.returncode}): {proc.stderr}")
    return proc


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    run_cli(
        "simulate",
        "--d", 3, "--n", 12, "--m", 3000,
        "--selection", '{"kind":"top_t","t":2}',
        "--seed", 7,
        "--out-dir", out,
    )
    return out


class TestSimulate:
    def test_writes_four_files(self, sim_dir):
        names = sorted(p.name for p in sim_dir.iterdir())
        assert names == [
            "comparisons.csv",
            "features.csv",
            "manifest.json",
            "truth_weights.json",
        ]

    def test_deterministic_outputs(self, sim_dir, tmp_path):
        again = tmp_path / "again"
        run_cli(
            "simulate",
            "--d", 3, "--n", 12, "--m", 3000,
            "--selection", '{"kind":"top_t","t":2}',
            "--seed", 7,
            "--out-dir", again,
        )
        for name in ("features.csv", "comparisons.csv", "truth_weights.json"):
            assert (again / name).read_bytes() == (sim_dir / name).read_bytes()

    def test_manifest_contents(self, sim_dir):
        manifest = read_json(str(sim_dir / "manifest.json"))
        assert manifest["subcommand"] == "simulate"
        assert manifest["seed"] == 7
        assert manifest["flags"]["selection"] == {"kind": "top_t", "t": 2}
        assert "library_version" in manifest
        assert manifest["numpy_version"] == np.__version__
        assert manifest["python_version"] == platform.python_version()

    def test_manifest_records_the_data_shape(self, sim_dir):
        manifest = read_json(str(sim_dir / "manifest.json"))
        rows = (sim_dir / "comparisons.csv").read_text(encoding="utf-8").splitlines()[1:]
        pairs = {frozenset(row.split(",")[:2]) for row in rows}
        assert manifest["data_shape"] == {"n": 12, "d": 3, "m": 3000, "distinct_pairs": len(pairs)}

    def test_zero_dimension_is_usage_error(self, tmp_path):
        proc = run_cli(
            "simulate", "--d", 0, "--n", 5, "--m", 10,
            "--selection", '{"kind":"full"}', "--seed", 1,
            "--out-dir", tmp_path / "x",
            check=False,
        )
        assert proc.returncode == 2

    def test_negative_seed_is_usage_error(self, tmp_path):
        proc = run_cli(
            "simulate", "--d", 2, "--n", 5, "--m", 10,
            "--selection", '{"kind":"full"}', "--seed", -1,
            "--out-dir", tmp_path / "x",
            check=False,
        )
        assert proc.returncode == 2
        assert "--seed" in proc.stderr and "nonnegative" in proc.stderr
        assert not (tmp_path / "x").exists()

    def test_bad_selection_json_is_usage_error(self, tmp_path):
        proc = run_cli(
            "simulate", "--d", 2, "--n", 5, "--m", 10,
            "--selection", '{"kind":"nope"}', "--seed", 1,
            "--out-dir", tmp_path / "x",
            check=False,
        )
        assert proc.returncode == 2

    def test_fractional_selection_parameter_is_usage_error(self, tmp_path):
        proc = run_cli(
            "simulate", "--d", 2, "--n", 5, "--m", 10,
            "--selection", '{"kind":"top_t","t":1.7}', "--seed", 1,
            "--out-dir", tmp_path / "x",
            check=False,
        )
        assert proc.returncode == 2
        assert "t must be an integer" in proc.stderr
        assert not (tmp_path / "x").exists()

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status"), reason="needs /proc/self/status for VmHWM"
    )
    def test_memory_does_not_grow_with_m(self, tmp_path):
        # peak resident memory (VmHWM, kB) after the imports, then after 5M draws
        script = (
            "import sys\n"
            "from salientpref import cli\n"
            "def hwm():\n"
            "    with open('/proc/self/status') as f:\n"
            "        return next(int(l.split()[1]) for l in f if l.startswith('VmHWM:'))\n"
            "before = hwm()\n"
            "code = cli.main(sys.argv[1:])\n"
            "print(before, hwm(), code)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, "simulate", "--d", "10", "--n", "100",
             "--m", "5000000", "--selection", '{"kind":"top_t","t":2}', "--seed", "3",
             "--out-dir", str(tmp_path)],
            capture_output=True, text=True, check=True,
        )
        before, after, code = map(int, proc.stdout.split())
        assert code == 0
        assert after - before <= 20_000


class TestFitRankEvaluate:
    def test_full_chain(self, sim_dir, tmp_path):
        fit_out = tmp_path / "fit.json"
        run_cli(
            "fit",
            "--features", sim_dir / "features.csv",
            "--comparisons", sim_dir / "comparisons.csv",
            "--selection", '{"kind":"top_t","t":2}',
            "--mu", 0.0,
            "--out", fit_out,
        )
        result = read_json(str(fit_out))
        assert result["converged"] is True
        assert result["data_rank"] == len(result["w_hat"])
        truth = read_json(str(sim_dir / "truth_weights.json"))
        err = np.linalg.norm(np.array(result["w_hat"]) - np.array(truth["w"]))
        assert err < 0.5

        rank_out = tmp_path / "ranking.csv"
        run_cli(
            "rank",
            "--features", sim_dir / "features.csv",
            "--weights", fit_out,
            "--out", rank_out,
        )
        lines = rank_out.read_text().strip().splitlines()
        assert lines[0] == "rank,item_id,utility"
        assert len(lines) == 13

        eval_out = tmp_path / "eval.json"
        run_cli(
            "evaluate",
            "--features", sim_dir / "features.csv",
            "--weights", fit_out,
            "--comparisons", sim_dir / "comparisons.csv",
            "--selection", '{"kind":"top_t","t":2}',
            "--out", eval_out,
        )
        evaluation = read_json(str(eval_out))
        assert evaluation["metric"] == "pairwise_accuracy"
        assert 0.5 < evaluation["value"] <= 1.0

    def test_evaluate_against_rankings(self, sim_dir, tmp_path):
        fm_path = sim_dir / "features.csv"
        ids = [line.split(",")[0] for line in fm_path.read_text().splitlines()[1:]]
        rankings = tmp_path / "rankings.csv"
        rankings.write_text(
            "ranker_id,rank,item_id\n"
            + "".join(f"r1,{k+1},{item}\n" for k, item in enumerate(ids[:5]))
            + "".join(f"r2,{k+1},{item}\n" for k, item in enumerate(reversed(ids[:4]))),
            encoding="utf-8",
        )
        out = tmp_path / "eval.json"
        run_cli(
            "evaluate",
            "--features", fm_path,
            "--weights", sim_dir / "truth_weights.json",
            "--rankings", rankings,
            "--out", out,
        )
        payload = read_json(str(out))
        assert payload["metric"] == "kendall_tau"
        assert payload["rankers"] == 2
        assert -1.0 <= payload["mean"] <= 1.0

    def test_missing_file_is_runtime_error(self, tmp_path):
        proc = run_cli(
            "fit",
            "--features", tmp_path / "nope.csv",
            "--comparisons", tmp_path / "nope2.csv",
            "--selection", '{"kind":"full"}',
            "--out", tmp_path / "out.json",
            check=False,
        )
        assert proc.returncode == 1
        assert proc.stderr.strip() != ""

    def test_unknown_item_error_prints_bare(self, tmp_path, capsys):
        (tmp_path / "f.csv").write_text("item_id,f1\na,0.0\nb,1.0\n", encoding="utf-8")
        c = tmp_path / "c.csv"
        c.write_text("winner_id,loser_id,count\na,b,1\na,zz,1\n", encoding="utf-8")
        argv = ["fit", "--features", str(tmp_path / "f.csv"), "--comparisons", str(c),
                "--selection", '{"kind":"full"}', "--out", str(tmp_path / "o.json")]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == f"salientpref fit: {c}:3: unknown item id 'zz'\n"

    @pytest.mark.parametrize("command", ["fit", "evaluate"])
    def test_total_count_overflow_is_runtime_error(self, tmp_path, capsys, command):
        # 1,128 pairs of 48 items at 2**53 each: every pair is in range, the
        # sum is not
        ids = [f"x{k}" for k in range(48)]
        (tmp_path / "f.csv").write_text(
            "item_id,f1\n" + "".join(f"{a},{k}.0\n" for k, a in enumerate(ids)),
            encoding="utf-8",
        )
        (tmp_path / "c.csv").write_text(
            "winner_id,loser_id,count\n"
            + "".join(f"{a},{b},{2**53}\n" for k, a in enumerate(ids) for b in ids[k + 1:]),
            encoding="utf-8",
        )
        (tmp_path / "w.json").write_text('{"w": [1.0]}', encoding="utf-8")
        argv = [command, "--features", str(tmp_path / "f.csv"),
                "--comparisons", str(tmp_path / "c.csv"),
                "--selection", '{"kind":"full"}', "--out", str(tmp_path / "o.json")]
        if command == "evaluate":
            argv += ["--weights", str(tmp_path / "w.json")]
        assert cli.main(argv) == 1
        assert "total comparison count" in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()


class TestOneParserPerProcess:
    def test_two_subcommands_and_version_share_one_parser(self, sim_dir, tmp_path,
                                                          monkeypatch, capsys):
        built = []

        def counting():
            built.append(True)
            return cli.build_parser()

        monkeypatch.setattr(cli, "_parser", cli.functools.cache(counting))
        sel, f = '{"kind":"top_t","t":2}', sim_dir / "features.csv"
        fitted, ranked = tmp_path / "fit.json", tmp_path / "ranking.csv"
        assert cli.main(["fit", "--features", str(f), "--comparisons",
                         str(sim_dir / "comparisons.csv"), "--selection", sel,
                         "--out", str(fitted)]) == 0
        assert cli.main(["rank", "--features", str(f), "--weights", str(fitted),
                         "--out", str(ranked)]) == 0
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"{cli.__version__}\n"
        assert built == [True]
        # the reused parser leaks nothing: a fresh process writes the same ranking
        run_cli("rank", "--features", f, "--weights", fitted, "--out", tmp_path / "fresh.csv")
        assert (tmp_path / "fresh.csv").read_bytes() == ranked.read_bytes()


class TestManifest:
    SEL = '{"kind":"top_t","t":2}'

    def _fit_argv(self, sim_dir, comparisons, out):
        return ["fit", "--features", str(sim_dir / "features.csv"), "--comparisons",
                str(comparisons), "--selection", self.SEL, "--out", str(out)]

    def _fit(self, sim_dir, comparisons, out):
        assert cli.main(self._fit_argv(sim_dir, comparisons, out)) == 0
        return read_json(f"{out}.manifest.json")

    @staticmethod
    def _sha256(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def test_regular_inputs_keep_their_digests(self, sim_dir, tmp_path):
        manifest = self._fit(sim_dir, sim_dir / "comparisons.csv", tmp_path / "fit.json")
        assert manifest["input_digests"] == {
            str(sim_dir / name): self._sha256(sim_dir / name)
            for name in ("features.csv", "comparisons.csv")
        }

    def test_pipe_input_has_null_digest(self, sim_dir, tmp_path):
        self._fit(sim_dir, sim_dir / "comparisons.csv", tmp_path / "regular.json")
        with piped((sim_dir / "comparisons.csv").read_text(encoding="utf-8")) as path:
            manifest = self._fit(sim_dir, path, tmp_path / "piped.json")
        assert (tmp_path / "piped.json").read_bytes() == (tmp_path / "regular.json").read_bytes()
        assert manifest["input_digests"] == {
            str(sim_dir / "features.csv"): self._sha256(sim_dir / "features.csv"),
            path: None,
        }

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_fifo_input_does_not_block(self, sim_dir, tmp_path):
        fifo = tmp_path / "comparisons.fifo"
        os.mkfifo(fifo)
        text = (sim_dir / "comparisons.csv").read_bytes()

        def write():
            with open(fifo, "wb") as fh:
                fh.write(text)

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        try:
            # a second open of the FIFO for its digest would wait for a writer forever
            proc = subprocess.run(RUN + self._fit_argv(sim_dir, fifo, tmp_path / "fifo.json"),
                                  capture_output=True, text=True, timeout=60)
        finally:
            if writer.is_alive():  # the child never opened the FIFO: release the writer
                os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
            writer.join()
        assert proc.returncode == 0, proc.stderr
        self._fit(sim_dir, sim_dir / "comparisons.csv", tmp_path / "regular.json")
        assert (tmp_path / "fifo.json").read_bytes() == (tmp_path / "regular.json").read_bytes()
        assert read_json(str(tmp_path / "fifo.json.manifest.json"))["input_digests"][str(fifo)] is None

    def test_peak_rss_recorded(self, sim_dir, tmp_path):
        manifests = [read_json(str(sim_dir / "manifest.json")),
                     self._fit(sim_dir, sim_dir / "comparisons.csv", tmp_path / "a.json"),
                     self._fit(sim_dir, sim_dir / "comparisons.csv", tmp_path / "b.json")]
        for manifest in manifests:
            assert isinstance(manifest["peak_rss_mb"], float) and manifest["peak_rss_mb"] > 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_peak_rss_falls_back_to_getrusage(self, monkeypatch):
        def no_proc(path, *args, **kwargs):
            raise FileNotFoundError(path)

        monkeypatch.setattr(cli, "open", no_proc, raising=False)
        assert cli._peak_rss_mb() > 0


class TestDiagnose:
    def test_empirical_and_model(self, sim_dir, tmp_path):
        out = tmp_path / "diag.json"
        run_cli(
            "diagnose",
            "--features", sim_dir / "features.csv",
            "--comparisons", sim_dir / "comparisons.csv",
            "--weights", sim_dir / "truth_weights.json",
            "--selection", '{"kind":"top_t","t":2}',
            "--min-count", 1,
            "--out", out,
        )
        payload = read_json(str(out))
        for key in ("empirical", "model", "inconsistency"):
            assert key in payload
        for level in ("strong", "moderate", "weak"):
            assert payload["model"][f"{level}_violations"] >= 0

    def test_needs_some_source(self, sim_dir, tmp_path):
        proc = run_cli(
            "diagnose",
            "--features", sim_dir / "features.csv",
            "--out", tmp_path / "d.json",
            check=False,
        )
        assert proc.returncode == 1

    @staticmethod
    def _diagnose_cycle(tmp_path, min_count):
        (tmp_path / "f.csv").write_text("item_id,f1\na,2.0\nb,0.0\nc,1.0\n", encoding="utf-8")
        # a beats c and c beats b often; b beats a only twice, closing a cycle
        (tmp_path / "c.csv").write_text(
            "winner_id,loser_id,count\nb,a,2\na,c,9\nc,a,1\nc,b,9\nb,c,1\n",
            encoding="utf-8",
        )
        (tmp_path / "w.json").write_text('{"w": [1.0]}', encoding="utf-8")
        out = tmp_path / f"diag{min_count}.json"
        run_cli(
            "diagnose",
            "--features", tmp_path / "f.csv",
            "--comparisons", tmp_path / "c.csv",
            "--weights", tmp_path / "w.json",
            "--selection", '{"kind":"full"}',
            "--min-count", min_count,
            "--out", out,
        )
        return read_json(str(out))

    def test_min_count_drops_sparse_pair(self, tmp_path):
        kept, dropped = (self._diagnose_cycle(tmp_path, k) for k in (0, 5))
        assert kept["empirical"]["triples_checked"] == 1
        assert kept["empirical"]["violating_triples"] == [
            {"triple": [0, 2, 1], "strong": True, "moderate": True, "weak": True}
        ]
        # the model orders a > c > b, which only the sparse pair contradicts
        assert kept["inconsistency"]["pairs_compared"] == 3
        assert kept["inconsistency"]["disagreeing_pairs"] == [[0, 1]]
        assert dropped["empirical"]["triples_checked"] == 0
        assert dropped["empirical"]["violating_triples"] == []
        assert dropped["inconsistency"]["pairs_compared"] == 2
        assert dropped["inconsistency"]["disagreeing_pairs"] == []
        assert dropped["model"] == kept["model"]

    def test_min_count_drops_every_pair(self, tmp_path):
        payload = self._diagnose_cycle(tmp_path, 1000)
        assert payload["empirical"]["triples_checked"] == 0
        assert payload["inconsistency"]["pairs_compared"] == 0
        assert payload["inconsistency"]["inconsistency_rate"] is None
        assert payload["model"]["triples_checked"] == 1

    @staticmethod
    def _oracle_section(probs):
        checked, strong, moderate, weak = oracles.transitivity_counts(probs)
        return {
            "triples_checked": checked,
            "strong_violations": strong,
            "moderate_violations": moderate,
            "weak_violations": weak,
            "strong_rate": strong / checked,
            "moderate_rate": moderate / checked,
            "weak_rate": weak / checked,
            "violating_triples": oracles.Rows(
                {"triple": [x, y, z], "strong": True, "moderate": m, "weak": w}
                for x, y, z, m, w in oracles.transitivity_rows(probs)
            ),
        }

    def test_bytes_match_oracle_payload(self, tmp_path):
        # a seeded top_t(1) instance whose data and fit both violate often
        sel = '{"kind":"top_t","t":1}'
        run_cli("simulate", "--d", 4, "--n", 16, "--m", 30000, "--selection", sel,
                "--seed", 3, "--out-dir", tmp_path)
        f, c, fit_out = tmp_path / "features.csv", tmp_path / "comparisons.csv", tmp_path / "fit.json"
        run_cli("fit", "--features", f, "--comparisons", c, "--selection", sel, "--out", fit_out)
        out = tmp_path / "diagnose.json"
        run_cli("diagnose", "--features", f, "--comparisons", c, "--weights", fit_out,
                "--selection", sel, "--out", out)

        with open(f, newline="", encoding="utf-8") as fh:
            ids = [row[0] for row in list(csv.reader(fh))[1:]]
        index = {item: k for k, item in enumerate(ids)}
        wins, total = {}, {}
        with open(c, newline="", encoding="utf-8") as fh:
            for winner, loser, count in list(csv.reader(fh))[1:]:
                a, b = index[winner], index[loser]
                pair = (min(a, b), max(a, b))
                total[pair] = total.get(pair, 0) + int(count)
                wins[pair] = wins.get(pair, 0) + (int(count) if a < b else 0)
        empirical = {pair: wins[pair] / total[pair] for pair in total}
        fm = load_features(str(f))
        probs = all_pair_probabilities(
            realize(SelectionSpec.from_json(sel), fm), load_weights_json(str(fit_out))
        )
        model = dict(zip(itertools.combinations(range(len(ids)), 2), probs.tolist()))
        compared, inconsistent, rate, pairs = oracles.inconsistent_pairs(empirical, model)
        oracle = {
            "item_ids": ids,
            "empirical": self._oracle_section(empirical),
            "model": self._oracle_section(model),
            "inconsistency": {
                "pairs_compared": compared,
                "inconsistent": inconsistent,
                "inconsistency_rate": rate,
                "disagreeing_pairs": oracles.Rows(list(pair) for pair in pairs),
            },
        }
        assert min(len(oracle[k]["violating_triples"]) for k in ("empirical", "model")) > 300
        assert min(oracle[k]["weak_violations"] for k in ("empirical", "model")) > 10
        assert inconsistent > 10
        assert out.read_bytes() == oracles.json_text(oracle).encode()
        assert json.loads(out.read_text(encoding="utf-8")) == oracle

    def test_negative_min_count_is_usage_error(self, sim_dir, tmp_path):
        proc = run_cli(
            "diagnose",
            "--features", sim_dir / "features.csv",
            "--comparisons", sim_dir / "comparisons.csv",
            "--min-count", -1,
            "--out", tmp_path / "d.json",
            check=False,
        )
        assert proc.returncode == 2
        assert "nonnegative" in proc.stderr


class TestTheoryCommand:
    def test_full_selection_report_included(self, tmp_path):
        sim = tmp_path / "sim"
        run_cli(
            "simulate", "--d", 2, "--n", 8, "--m", 100,
            "--selection", '{"kind":"full"}', "--seed", 3,
            "--out-dir", sim,
        )
        out = tmp_path / "theory.json"
        run_cli(
            "theory",
            "--features", sim / "features.csv",
            "--selection", '{"kind":"full"}',
            "--weights", sim / "truth_weights.json",
            "--delta", 0.1,
            "--out", out,
        )
        payload = read_json(str(out))
        assert payload["certificate"]["identifiable"] is True
        assert payload["certificate"]["lambda"] > 0
        assert "full_selection" in payload
        assert "single_coordinate" not in payload
        assert payload["ranking_recovery"]["k"] == 1
        assert payload["b_star"] == payload["certificate"]["b_star"]

    def test_identifiability_section_schema(self, tmp_path):
        # a starved coordinate: top_t(1) never selects the constant feature
        fm = FeatureMatrix(np.vstack([np.arange(6.0), np.full(6, 2.0)]))
        save_features(str(tmp_path / "features.csv"), fm)
        out = tmp_path / "theory.json"
        run_cli(
            "theory",
            "--features", tmp_path / "features.csv",
            "--selection", '{"kind":"top_t","t":1}',
            "--out", out,
        )
        section = read_json(str(out))["identifiability"]
        assert list(section) == ["d", "identifiable", "rank"]
        assert section == {"d": 2, "identifiable": False, "rank": 1}

    def test_huge_margin_writes_infinity(self, tmp_path):
        # b* in the thousands overflows exp(b*): the bound terms are infinite
        fm = FeatureMatrix(np.random.default_rng(5).normal(size=(3, 8)) * 1000.0)
        save_features(str(tmp_path / "features.csv"), fm)
        (tmp_path / "w.json").write_text('{"w": [1.0, 1.0, 1.0]}', encoding="utf-8")
        out = tmp_path / "theory.json"
        run_cli(
            "theory",
            "--features", tmp_path / "features.csv",
            "--selection", '{"kind":"top_t","t":2}',
            "--weights", tmp_path / "w.json",
            "--out", out,
        )
        payload = read_json(str(out))
        assert payload["b_star"] > 709
        assert math.isinf(payload["certificate"]["error_bound_coefficient"])
        assert math.isinf(payload["ranking_recovery"]["m_lower"])
        assert '"error_bound_coefficient": Infinity' in out.read_text(encoding="utf-8")

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("selection", ['{"kind":"top_t","t":1}', '{"kind":"full"}'])
    def test_overflowing_feature_scale_is_runtime_error(self, tmp_path, capsys, selection):
        fm = FeatureMatrix(np.random.default_rng(4).normal(size=(2, 6)) * 1e160)
        save_features(str(tmp_path / "features.csv"), fm)
        out = tmp_path / "theory.json"
        argv = ["theory", "--features", str(tmp_path / "features.csv"),
                "--selection", selection, "--out", str(out)]
        assert cli.main(argv) == 1
        assert "feature scale overflows float64" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("selection", ['{"kind":"top_t","t":1}', '{"kind":"full"}'])
    def test_underflowing_feature_scale_is_runtime_error(self, tmp_path, capsys, selection):
        fm = FeatureMatrix(np.random.default_rng(4).normal(size=(2, 6)) * 1e-100)
        save_features(str(tmp_path / "features.csv"), fm)
        out = tmp_path / "theory.json"
        argv = ["theory", "--features", str(tmp_path / "features.csv"),
                "--selection", selection, "--out", str(out)]
        assert cli.main(argv) == 1
        assert "feature scale underflows float64" in capsys.readouterr().err
        assert not out.exists()

    def test_single_coordinate_report_included(self, tmp_path):
        sim = tmp_path / "sim"
        run_cli(
            "simulate", "--d", 3, "--n", 8, "--m", 100,
            "--selection", '{"kind":"top_t","t":1}', "--seed", 4,
            "--out-dir", sim,
        )
        out = tmp_path / "theory.json"
        run_cli(
            "theory",
            "--features", sim / "features.csv",
            "--selection", '{"kind":"top_t","t":1}',
            "--delta", 0.1,
            "--out", out,
        )
        payload = read_json(str(out))
        assert "single_coordinate" in payload
        assert "full_selection" not in payload
        assert payload["certificate"]["b_star"] is None


    def test_certificate_computed_once(self, tmp_path, monkeypatch):
        sim = tmp_path / "sim"
        run_cli(
            "simulate", "--d", 3, "--n", 8, "--m", 100,
            "--selection", '{"kind":"top_t","t":2}', "--seed", 5,
            "--out-dir", sim,
        )
        calls = []
        real = cli.theory.sample_complexity_report

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli.theory, "sample_complexity_report", counting)
        argv = [
            "theory",
            "--features", str(sim / "features.csv"),
            "--selection", '{"kind":"top_t","t":2}',
            "--weights", str(sim / "truth_weights.json"),
            "--out", str(tmp_path / "theory.json"),
        ]
        assert cli.main(argv) == 0
        assert len(calls) == 1
        payload = read_json(str(tmp_path / "theory.json"))
        assert payload["ranking_recovery"]["lambda"] == payload["certificate"]["lambda"]

    @pytest.mark.parametrize(
        "selection", ['{"kind":"top_t","t":2}', '{"kind":"full"}', '{"kind":"top_t","t":1}']
    )
    def test_one_eigendecomposition_per_run(self, tmp_path, monkeypatch, selection):
        sim = tmp_path / "sim"
        run_cli(
            "simulate", "--d", 3, "--n", 8, "--m", 100,
            "--selection", selection, "--seed", 5, "--out-dir", sim,
        )
        calls = []
        real = np.linalg.eigh

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        argv = [
            "theory",
            "--features", str(sim / "features.csv"),
            "--selection", selection,
            "--weights", str(sim / "truth_weights.json"),
            "--out", str(tmp_path / "theory.json"),
        ]
        assert cli.main(argv) == 0
        assert len(calls) == 1
        payload = read_json(str(tmp_path / "theory.json"))
        cert = payload["certificate"]
        assert payload["identifiability"] == {
            "identifiable": cert["identifiable"], "rank": cert["rank"], "d": cert["d"]
        }


class TestSweep:
    def test_long_format_csv(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "d": 2,
                    "n": 8,
                    "selections": [{"kind": "full"}, {"kind": "top_t", "t": 1}],
                    "m_grid": [200, 800],
                    "seeds": [0, 1],
                    "mu": 0.0,
                }
            ),
            encoding="utf-8",
        )
        out = tmp_path / "sweep"
        run_cli("sweep", "--spec", spec, "--out-dir", out)
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "selection,m,seed,metric,value"
        # 2 selections x 2 m x 2 seeds x 8 metrics
        assert len(lines) == 1 + 2 * 2 * 2 * 8
        # deterministic: a rerun is byte-identical
        out2 = tmp_path / "sweep2"
        run_cli("sweep", "--spec", spec, "--out-dir", out2)
        assert (out / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()

    def test_worker_pool_same_bytes(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "d": 2,
                    "n": 6,
                    "selections": [{"kind": "full"}],
                    "m_grid": [100],
                    "seeds": [0, 1, 2, 3],
                    "workers": 1,
                }
            ),
            encoding="utf-8",
        )
        serial = tmp_path / "serial"
        run_cli("sweep", "--spec", spec, "--out-dir", serial)
        spec.write_text(
            spec.read_text().replace('"workers": 1', '"workers": 3'), encoding="utf-8"
        )
        parallel = tmp_path / "parallel"
        run_cli("sweep", "--spec", spec, "--out-dir", parallel)
        assert (serial / "sweep.csv").read_bytes() == (parallel / "sweep.csv").read_bytes()

    def test_instance_work_runs_once_per_selection_and_seed(self, tmp_path, monkeypatch):
        # 2 selections x 3 m x 2 seeds: 4 instances, 12 cells
        calls = {"simulate": 0, "probabilities": 0, "transitivity": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "_simulate_instance",
                            counted("simulate", cli._simulate_instance))
        monkeypatch.setattr(cli, "all_pair_probabilities",
                            counted("probabilities", cli.all_pair_probabilities))
        monkeypatch.setattr(cli.diagnostics, "count_transitivity_violations",
                            counted("transitivity",
                                    cli.diagnostics.count_transitivity_violations))
        spec = {"d": 2, "n": 6, "selections": [{"kind": "full"}, {"kind": "top_t", "t": 1}],
                "m_grid": [40, 80, 120], "seeds": [0, 1]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        out = tmp_path / "o"
        assert cli.main(["sweep", "--spec", str(path), "--out-dir", str(out)]) == 0
        assert calls == {"simulate": 4, "probabilities": 4, "transitivity": 4}
        assert len((out / "sweep.csv").read_text().splitlines()) == 1 + 12 * 8

    def test_rows_match_per_cell_recomputation(self, tmp_path):
        # every row equals, bit for bit, the cell recomputed through the public
        # API from the documented seed scheme
        d, n, mu = 3, 9, 0.01
        selections = [{"kind": "full"}, {"kind": "top_t", "t": 1},
                      {"kind": "random_exactly_k", "k": 2, "seed": 4}]
        spec = {"d": d, "n": n, "selections": selections, "m_grid": [30, 300],
                "seeds": [2, 5], "mu": mu}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        out = tmp_path / "o"
        assert cli.main(["sweep", "--spec", str(path), "--out-dir", str(out)]) == 0
        with open(out / "sweep.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == 3 * 2 * 2 * 8
        pair_i, pair_j = np.array(list(itertools.combinations(range(n), 2))).T

        def stream(seed, k):
            return np.random.SeedSequence([seed, k])

        expected = {}
        for sel_dict, m, seed in itertools.product(selections, spec["m_grid"], spec["seeds"]):
            sel_spec = SelectionSpec.from_dict(sel_dict)
            scale = 1.0 / math.sqrt(d)
            fm = FeatureMatrix(np.random.default_rng(stream(seed, 0)).normal(0, scale, (d, n)))
            w_star = np.random.default_rng(stream(seed, 1)).normal(0, scale, d)
            sel = realize(sel_spec, fm)
            data = sample_comparisons(sel, w_star, m, int(stream(seed, 2).generate_state(1)[0]))
            result = fit(sel, data, mu=mu)
            true_rank = rank_from_weights(fm, w_star)
            est_rank = rank_from_weights(fm, result.w_hat)
            probs = all_pair_probabilities(sel, w_star)
            report = count_transitivity_violations(pair_i, pair_j, probs)
            cell = {
                "w_error": float(np.linalg.norm(result.w_hat - w_star)),
                "kendall_tau": kendall_correlation(true_rank, est_rank),
                "kendall_distance": float(kendall_distance(true_rank, est_rank)),
                "strong_rate": report.rate("strong"),
                "moderate_rate": report.rate("moderate"),
                "weak_rate": report.rate("weak"),
                "inconsistency_rate":
                    pairwise_inconsistency(pair_i, pair_j, probs, true_rank).rate,
                "converged": float(result.converged),
            }
            for metric, value in cell.items():
                expected[(sel_spec.to_json(), str(m), str(seed), metric)] = value
        got = {tuple(row[:4]): float(row[4]) for row in rows}
        assert got == expected

    def test_workers_clamped_to_tasks_and_cpus(self, tmp_path, monkeypatch):
        requested = []

        class RecordingPool:
            # runs the instances serially and records the pool size asked for
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        # one task per (selection, seed): the m grid adds no worker
        for m_grid, seeds, want_at_8 in (([50], [0, 1, 2], 3), ([50, 60, 70], [0, 1], 2)):
            spec = {"d": 2, "n": 5, "selections": [{"kind": "full"}], "m_grid": m_grid,
                    "seeds": seeds, "workers": 10**6}
            for cpus, want in ((8, [want_at_8]), (2, [2]), (1, []), (None, [])):
                monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
                requested.clear()
                path = tmp_path / "spec.json"
                path.write_text(json.dumps(spec), encoding="utf-8")
                out = tmp_path / f"out{len(m_grid)}_{cpus}"
                assert cli.main(["sweep", "--spec", str(path), "--out-dir", str(out)]) == 0
                assert requested == want

    def test_workers_below_one_rejected(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"d": 2, "n": 5, "selections": [{"kind": "full"}],
                                    "m_grid": [50], "seeds": [0], "workers": 0}),
                        encoding="utf-8")
        assert cli.main(["sweep", "--spec", str(path), "--out-dir", str(tmp_path / "o")]) == 1
        assert "workers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [("d", 4.9), ("n", "12"), ("m_grid", [500.7]), ("seeds", [True]),
         ("workers", 2.0), ("mu", "0.1"), ("mu", False),
         ("m_grid", 50), ("seeds", 0), ("selections", {"kind": "full"}), (None, 5),
         ("seeds", [-2]), ("d", 0), ("d", -3), ("m_grid", [0]), ("n", 2), ("n", -4),
         ("selections", [{"kind": "full"}, {"kind": "full"}]),
         # equal after SelectionSpec normalisation: key order, p 1 and 1.0
         ("selections", [{"kind": "top_t", "t": 1}, {"t": 1, "kind": "top_t"}]),
         ("selections", [{"kind": "random_bernoulli", "p": 1, "seed": 3},
                         {"kind": "random_bernoulli", "p": 1.0, "seed": 3}]),
         ("m_grid", [50, 60, 50]), ("seeds", [0, 0]),
         ("mu", -0.5), ("mu", float("nan")), ("mu", float("inf")),
         ("selections", []), ("m_grid", []), ("seeds", [])],
    )
    def test_non_integer_spec_values_rejected(self, tmp_path, capsys, key, value):
        # key None replaces the whole spec with value
        spec = {"d": 2, "n": 5, "selections": [{"kind": "full"}], "m_grid": [50], "seeds": [0]}
        if key is None:
            spec = value
        else:
            spec[key] = value
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        out = tmp_path / "o"
        assert cli.main(["sweep", "--spec", str(path), "--out-dir", str(out)]) == 1
        want = "sweep spec must" if key is None else f"sweep spec {key}"
        assert want in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_spec_keys_rejected(self, tmp_path, capsys, monkeypatch):
        # misspelt keys used to be ignored: this ran one worker with mu 0
        def no_instance(task):
            raise AssertionError("an instance ran before the spec was checked")

        monkeypatch.setattr(cli, "_sweep_instance", no_instance)
        spec = {"d": 2, "n": 5, "selections": [{"kind": "full"}], "m_grid": [50], "seeds": [0],
                "worker": 4, "mu ": 0.5}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        out = tmp_path / "o"
        assert cli.main(["sweep", "--spec", str(path), "--out-dir", str(out)]) == 1
        assert "unknown sweep spec keys: ['mu ', 'worker']" in capsys.readouterr().err
        assert not out.exists()
