"""End-to-end command-line flows on a small synthetic corpus."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from pressnet import cli, dataio
from pressnet.checkpoint import load_checkpoint
from pressnet.errors import UsageError

from util import pack_checkpoint, pack_version1_checkpoint


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Synthetic dataset tree plus its preprocessed cache."""
    base = tmp_path_factory.mktemp("corpus")
    root, cache = base / "raw", base / "cache"
    assert cli.main(["synth", "--out", str(root), "--subjects", "2",
                     "--postures", "3", "--frames", "12", "--seed", "1"]) == 0
    assert cli.main(["preprocess", "--data-root", str(root),
                     "--cache-dir", str(cache)]) == 0
    return root, cache


@pytest.fixture(scope="module")
def trained_run(corpus, tmp_path_factory):
    _, cache = corpus
    out = tmp_path_factory.mktemp("runs") / "main"
    rc = cli.main(["train", "--cache-dir", str(cache), "--out-dir", str(out),
                   "--k", "2", "--epochs", "2", "--lr", "1e-3", "--seed", "3",
                   "--baselines", "knn"])
    assert rc == 0
    return out


class TestSynthAndPreprocess:
    def test_tree_layout(self, corpus):
        root, _ = corpus
        files = sorted(p.relative_to(root).as_posix()
                       for p in root.rglob("*.txt"))
        assert files == ["S1/1.txt", "S1/2.txt", "S1/3.txt",
                         "S2/1.txt", "S2/2.txt", "S2/3.txt"]

    def test_cache_contents(self, corpus):
        _, cache = corpus
        assert (cache / "manifest.tsv").exists()
        assert (cache / "fingerprint.txt").exists()
        assert (cache / "removed.txt").exists()
        arrays = list(cache.glob("*.npy"))
        assert len(arrays) == 6
        # 12 raw frames, 3 trimmed from each end
        assert np.load(arrays[0]).shape == (6, 32, 64)

    def test_second_preprocess_hits_cache(self, corpus, capsys):
        root, cache = corpus
        assert cli.main(["preprocess", "--data-root", str(root),
                         "--cache-dir", str(cache)]) == 0
        assert "cache hit" in capsys.readouterr().out

    def test_force_recomputes(self, corpus, capsys):
        root, cache = corpus
        assert cli.main(["preprocess", "--data-root", str(root),
                         "--cache-dir", str(cache), "--force"]) == 0
        assert "cache hit" not in capsys.readouterr().out

    def test_missing_data_root(self, monkeypatch, tmp_path, capsys):
        monkeypatch.delenv(cli.DATA_ROOT_ENV, raising=False)
        rc = cli.main(["preprocess", "--cache-dir", str(tmp_path / "c")])
        assert rc == 2
        assert cli.DATA_ROOT_ENV in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--subjects", "0", "at least 1 subject"),
        ("--frames", "0", "at least 1 subject and 1 frame"),
        ("--postures", "0", "postures must be in [1,17]"),
        ("--postures", "18", "postures must be in [1,17]"),
    ])
    def test_bad_synth_count_writes_nothing(self, tmp_path, capsys, flag,
                                            value, message):
        out = tmp_path / "raw"
        rc = cli.main(["synth", "--out", str(out), flag, value])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--trim", "-1", "trim must be >= 0"),
        ("--empty-threshold", "nan", "threshold must be finite"),
        ("--empty-threshold", "inf", "threshold must be finite"),
        ("--empty-threshold", "-0.5", "threshold must be finite and >= 0"),
    ])
    def test_bad_preprocess_value_creates_no_cache(self, corpus, tmp_path,
                                                   capsys, flag, value,
                                                   message):
        root, _ = corpus
        cache = tmp_path / "cache"
        rc = cli.main(["preprocess", "--data-root", str(root),
                       "--cache-dir", str(cache), flag, value])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1
        assert not cache.exists()

    def test_env_var_supplies_root(self, corpus, monkeypatch, tmp_path):
        root, _ = corpus
        monkeypatch.setenv(cli.DATA_ROOT_ENV, str(root))
        cache = tmp_path / "envcache"
        assert cli.main(["preprocess", "--cache-dir", str(cache)]) == 0
        assert (cache / "manifest.tsv").exists()



class TestTaxonomy:
    @staticmethod
    def swapped(path):
        """A taxonomy file with supine and left swapped: 1-9 are left."""
        tax = dataio.default_taxonomy()
        tax = {pid: {"supine": "left", "left": "supine"}.get(cat, cat)
               for pid, cat in tax.items()}
        dataio.write_taxonomy(path, tax)
        return path

    def test_train_coarse_labels_follow_custom_taxonomy(self, corpus,
                                                        tmp_path, capsys):
        root, _ = corpus
        cache = tmp_path / "cache"
        assert cli.main(["preprocess", "--data-root", str(root),
                         "--cache-dir", str(cache), "--taxonomy",
                         str(self.swapped(tmp_path / "tax.txt"))]) == 0
        manifest = dataio.read_manifest(cache / "manifest.tsv")
        assert manifest.taxonomy[1] == "left"
        # the loader train and evaluate share: postures 1-3 are all left now
        data = cli._load_cache(cache, 1)
        assert set(data.coarse_idx.tolist()) == {
            dataio.CATEGORIES.index("left")}
        # a cache written before caches kept their taxonomy is refused,
        # and train and evaluate exit 2 before anything trains
        (cache / dataio.TAXONOMY_FILE).unlink()
        with pytest.raises(UsageError, match="preprocess"):
            dataio.read_manifest(cache / "manifest.tsv")
        out = tmp_path / "run"
        for argv in (["train", "--cache-dir", str(cache), "--out-dir",
                      str(out), "--k", "2", "--epochs", "1"],
                     ["evaluate", "--cache-dir", str(cache),
                      "--checkpoint", str(tmp_path / "none.ckpt")]):
            capsys.readouterr()
            assert cli.main(argv) == 2
            lines = capsys.readouterr().err.strip().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:")
            assert str(cache) in lines[0] and "preprocess" in lines[0]
        assert not out.exists()

    def test_changed_taxonomy_is_not_a_cache_hit(self, corpus, tmp_path,
                                                 capsys):
        root, _ = corpus
        cache = tmp_path / "cache"
        args = ["preprocess", "--data-root", str(root), "--cache-dir",
                str(cache)]
        assert cli.main(args) == 0
        assert cli.main(args) == 0
        assert "cache hit" in capsys.readouterr().out
        assert cli.main(args + ["--taxonomy",
                                str(self.swapped(tmp_path / "tax.txt"))]) == 0
        assert "cache hit" not in capsys.readouterr().out
        assert dataio.read_manifest(cache / "manifest.tsv").taxonomy[1] == "left"


class TestTrain:
    def test_artifacts_and_baselines(self, trained_run):
        out = trained_run
        assert (out / "config.json").exists()
        assert (out / "aggregate.json").exists()
        assert (out / "DONE").exists()
        assert (out / "fold_00" / "model.ckpt").exists()
        assert (out / "fold_01" / "metrics.json").exists()
        results = json.loads((out / "baselines.json").read_text())
        assert "knn" in results
        assert len(results["knn"]["accuracy_per_fold"]) == 2

    def test_config_file_merge_flags_win(self, corpus, tmp_path):
        _, cache = corpus
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(
            {"epochs": 1, "seed": 3, "base_lr": 1e-3, "k": 2,
             "lr_decay_rate": 0.5}))
        out = tmp_path / "run"
        rc = cli.main(["train", "--cache-dir", str(cache),
                       "--out-dir", str(out), "--config", str(cfg_file),
                       "--seed", "5"])
        assert rc == 0
        stored = json.loads((out / "config.json").read_text())["train"]
        assert stored["seed"] == 5      # flag beats file
        assert stored["epochs"] == 1    # file beats default
        assert stored["k"] == 2
        assert stored["lr_decay_rate"] == 0.5
        assert stored["lam"] == 0.5     # TrainConfig's default

    def test_config_file_unknown_key(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(
            {"epochs": 1, "k": 2, "lr_decay_rate": 0.5, "bogus_key": 1}))
        # the key is refused before the (missing) cache is looked at
        rc = cli.main(["train", "--cache-dir", str(tmp_path / "nope"),
                       "--out-dir", str(tmp_path / "run"),
                       "--config", str(cfg_file)])
        assert rc == 2
        assert "bogus_key" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("content, message", [
        (None, "cannot read config"),
        ('{"epochs": 1,', "cannot read config"),
        ('[1, 2]', "JSON object"),
        ('{"epochs": "1"}', "epochs"),
        ('{"epochs": 1.5}', "epochs"),
        ('{"base_lr": true}', "base_lr"),
        ('{"augment": 1}', "augment"),
        ('{"scheme": null}', "scheme"),
        ('{"base_lr": -1, "epochs": 1, "k": 2}', "base_lr"),
        ('{"lr_decay_every": 0}', "lr_decay_every"),
    ])
    def test_bad_config_file_is_usage_error(self, tmp_path, capsys, content,
                                            message):
        cfg_file = tmp_path / "cfg.json"
        if content is not None:
            cfg_file.write_text(content)
        # refused before the (missing) cache is looked at
        rc = cli.main(["train", "--cache-dir", str(tmp_path / "nope"),
                       "--out-dir", str(tmp_path / "run"),
                       "--config", str(cfg_file)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1
        assert not (tmp_path / "run").exists()

    def test_same_seed_identical_aggregate(self, corpus, tmp_path):
        _, cache = corpus
        args = ["--cache-dir", str(cache), "--k", "2", "--epochs", "1",
                "--lr", "1e-3", "--seed", "7"]
        assert cli.main(["train", *args, "--out-dir",
                         str(tmp_path / "a")]) == 0
        assert cli.main(["train", *args, "--out-dir",
                         str(tmp_path / "b")]) == 0
        assert ((tmp_path / "a" / "aggregate.json").read_bytes()
                == (tmp_path / "b" / "aggregate.json").read_bytes())

    def test_missing_cache(self, tmp_path, capsys):
        rc = cli.main(["train", "--cache-dir", str(tmp_path / "nope"),
                       "--out-dir", str(tmp_path / "run")])
        assert rc == 2
        assert "preprocess" in capsys.readouterr().err

    def test_unknown_baseline(self, corpus, tmp_path, capsys):
        _, cache = corpus
        rc = cli.main(["train", "--cache-dir", str(cache),
                       "--out-dir", str(tmp_path / "run"), "--k", "2",
                       "--epochs", "1", "--baselines", "svm"])
        assert rc == 2
        assert "svm" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_sweep_must_include_zero(self, corpus, tmp_path, capsys):
        _, cache = corpus
        rc = cli.main(["train", "--cache-dir", str(cache),
                       "--out-dir", str(tmp_path / "run"), "--k", "2",
                       "--epochs", "1", "--lambda-sweep", "0.2,0.5"])
        assert rc == 2
        assert "include 0" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_bad_sweep_refused_before_training(self, corpus, tmp_path, capsys):
        _, cache = corpus
        for extra, message in ((["--lambda-sweep", "0,0.5,1.5"], "1.5"),
                               (["--lambda-sweep", "0,x"], "'x'"),
                               (["--lambda-sweep", "0,0.5", "--baselines",
                                 "knn"], "not allowed")):
            rc = cli.main(["train", "--cache-dir", str(cache),
                           "--out-dir", str(tmp_path / "run"), "--k", "2",
                           "--epochs", "1", *extra])
            assert rc == 2
            assert message in capsys.readouterr().err
            assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("k, message", [
        ("1", "k must be >= 2"),
        ("1000", "cannot make 1000 folds"),
    ])
    def test_bad_fold_count_is_usage_error(self, corpus, tmp_path, capsys,
                                           k, message):
        _, cache = corpus
        rc = cli.main(["train", "--cache-dir", str(cache),
                       "--out-dir", str(tmp_path / "run"), "--k", k,
                       "--epochs", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1
        assert not (tmp_path / "run").exists()


class TestSweep:
    def test_sweep_artifacts(self, corpus, tmp_path):
        _, cache = corpus
        out = tmp_path / "sweep"
        rc = cli.main(["train", "--cache-dir", str(cache),
                       "--out-dir", str(out), "--k", "3", "--epochs", "1",
                       "--lr", "5e-4", "--seed", "2",
                       "--lambda-sweep", "0,0.6"])
        assert rc == 0
        assert (out / "lam_0" / "DONE").exists()
        assert (out / "lam_0.6" / "DONE").exists()
        sweep = json.loads((out / "sweep.json").read_text())
        assert set(sweep["accuracy_per_fold"]) == {"0", "0.6"}
        assert len(sweep["accuracy_per_fold"]["0"]) == 3
        assert "0.6" in sweep["welch_vs_zero"]
        entry = sweep["welch_vs_zero"]["0.6"]
        assert 0.0 <= entry["p"] <= 1.0


class TestEvaluate:
    def test_checkpoint_roundtrip(self, corpus, trained_run, capsys):
        _, cache = corpus
        rc = cli.main(["evaluate",
                       "--checkpoint", str(trained_run / "fold_00" / "model.ckpt"),
                       "--cache-dir", str(cache)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "posture_fine: accuracy" in out
        assert "subject: accuracy" in out

    def test_incomplete_checkpoint_is_one_error_line(self, corpus, trained_run,
                                                     tmp_path, capsys):
        _, cache = corpus
        ckpt = load_checkpoint(trained_run / "fold_00" / "model.ckpt")
        header = {"config": ckpt.config.as_dict(), "epoch": ckpt.epoch,
                  "seed": ckpt.seed, "dtype": ckpt.dtype, "adam": None}
        tensors = [(f"param:{k}", v) for k, v in ckpt.params.items()
                   if k != "conv1.w"]
        tensors += [(f"stat:{k}", v) for k, v in ckpt.bn_stats.items()]
        bad = tmp_path / "incomplete.ckpt"
        bad.write_bytes(pack_checkpoint(header, tensors))
        capsys.readouterr()
        rc = cli.main(["evaluate", "--checkpoint", str(bad),
                       "--cache-dir", str(cache)])
        captured = capsys.readouterr()
        assert rc == 1
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "conv1.w" in lines[0]
        assert "accuracy" not in captured.out

    def test_version_1_checkpoint_is_one_error_line(self, corpus, trained_run,
                                                    tmp_path, capsys):
        _, cache = corpus
        old = tmp_path / "v1.ckpt"
        old.write_bytes(pack_version1_checkpoint(
            load_checkpoint(trained_run / "fold_00" / "model.ckpt")))
        capsys.readouterr()
        rc = cli.main(["evaluate", "--checkpoint", str(old),
                       "--cache-dir", str(cache)])
        captured = capsys.readouterr()
        assert rc == 1
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "version 1" in lines[0]
        assert "accuracy" not in captured.out


class TestReport:
    def test_completed_run(self, trained_run, capsys):
        assert cli.main(["report", "--run-dir", str(trained_run)]) == 0
        out = capsys.readouterr().out
        assert "scheme=kfold" in out
        assert re.search(r"fold\s+fine-acc", out)
        assert "   0  " in out and "   1  " in out

    def test_confusion_flag(self, trained_run, capsys):
        assert cli.main(["report", "--run-dir", str(trained_run),
                         "--confusion"]) == 0
        out = capsys.readouterr().out
        assert "pooled coarse confusion" in out
        assert "supine" in out

    def test_curves_flag(self, trained_run, capsys):
        assert cli.main(["report", "--run-dir", str(trained_run),
                         "--curves"]) == 0
        assert "loss_total" in capsys.readouterr().out

    def test_incomplete_run(self, tmp_path, capsys):
        run = tmp_path / "broken"
        run.mkdir()
        (run / "config.json").write_text(json.dumps({"folds": 2}))
        rc = cli.main(["report", "--run-dir", str(run)])
        assert rc == 2
        assert "missing folds" in capsys.readouterr().err

    def test_not_a_run_dir(self, tmp_path, capsys):
        rc = cli.main(["report", "--run-dir", str(tmp_path)])
        assert rc == 2
        assert "config.json" in capsys.readouterr().err


class TestFrameDump:
    def test_renders_two_grids(self, corpus, capsys):
        root, _ = corpus
        rc = cli.main(["frame-dump", "--file", str(root / "S1" / "1.txt"),
                       "--index", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        grids = [ln for ln in out.splitlines()
                 if len(ln) == 64 and set(ln) <= set(cli.ASCII_RAMP)]
        assert len(grids) == 64  # two 32-row frames

    def test_index_out_of_range(self, corpus, capsys):
        root, _ = corpus
        rc = cli.main(["frame-dump", "--file", str(root / "S1" / "1.txt"),
                       "--index", "99"])
        assert rc == 2
        assert "out of range" in capsys.readouterr().err


class TestAugmentStats:
    def test_frequencies_near_configured(self, capsys):
        assert cli.main(["augment-stats", "--draws", "4000",
                         "--seed", "0"]) == 0
        out = capsys.readouterr().out
        freqs = [float(m) for m in re.findall(r"\((0\.\d+); configured", out)]
        assert len(freqs) == 4
        for got, want in zip(freqs, (0.5, 0.2, 0.2, 0.2)):
            assert abs(got - want) < 0.05

    @pytest.mark.parametrize("draws", ["0", "-3"])
    def test_draws_below_one_is_usage_error(self, capsys, draws):
        rc = cli.main(["augment-stats", "--draws", draws])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: draws must be >= 1, got {draws}\n"
        assert captured.out == ""
