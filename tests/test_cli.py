"""End-to-end command-line flows on a small synthetic corpus."""

import json
import os
import re
import shutil
import struct
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from pressnet import cli, dataio, harness, signal
from pressnet.harness import TrainConfig
from pressnet.checkpoint import MAGIC, load_checkpoint
from pressnet.errors import ConfigError, UsageError

from util import float_twin, median_oracle, pack_checkpoint, tensor_table


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
        ("--seed", "-1", "seed must be >= 0"),
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

    @pytest.mark.parametrize("flag, value, code, message", [
        ("--data-root", "nope", 1, "is not a directory"),
        ("--taxonomy", "nope.txt", 2, "cannot read"),
        ("--taxonomy", "bad.txt", 2, "line 1: expected '<id> <category>'"),
        ("--taxonomy", "latin.txt", 2, "latin.txt is not UTF-8 text"),
    ], ids=["missing-root", "unreadable-taxonomy", "malformed-taxonomy",
            "non-utf8-taxonomy"])
    def test_bad_preprocess_value_creates_no_cache(self, corpus, tmp_path,
                                                   capsys, flag, value, code,
                                                   message):
        root, _ = corpus
        cache = tmp_path / "cache"
        (tmp_path / "bad.txt").write_text("1 supine extra\n")
        (tmp_path / "latin.txt").write_bytes(b"1 supine\n2 l\xe9ft\n")
        # the later --data-root wins
        rc = cli.main(["preprocess", "--data-root", str(root),
                       "--cache-dir", str(cache), flag, str(tmp_path / value)])
        assert rc == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1
        assert not cache.exists()

    def test_non_finite_raw_field_fails_at_parse(self, tmp_path, capsys):
        # a NaN used to be cached, spread by the median filter, and only
        # stop train at epoch 0 with a non-finite loss
        root = tmp_path / "raw"
        assert cli.main(["synth", "--out", str(root), "--subjects", "1",
                         "--postures", "2", "--frames", "6"]) == 0
        bad = root / "S1" / "2.txt"
        lines = bad.read_text().splitlines()
        fields = lines[3].split()
        fields[100] = "nan"
        lines[3] = " ".join(fields)
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        rc = cli.main(["preprocess", "--data-root", str(root),
                       "--cache-dir", str(tmp_path / "cache")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "2.txt: record 4 contains a non-finite field" in err

    def test_warning_count_is_missing_combinations(self, tmp_path, capsys):
        root = tmp_path / "raw"
        assert cli.main(["synth", "--out", str(root), "--subjects", "2",
                         "--postures", "2", "--frames", "12"]) == 0
        short = root / "S1" / "2.txt"
        short.write_text("".join(short.read_text().splitlines(True)[:5]))
        capsys.readouterr()
        cache = tmp_path / "cache"
        assert cli.main(["preprocess", "--data-root", str(root),
                         "--cache-dir", str(cache)]) == 0
        out = capsys.readouterr().out
        # 2 subjects x 15 of 17 postures missing; the sequence that is
        # empty after trimming is reported once, as a removal
        assert "warnings: 30 (missing" in out
        assert "removed/short sequences: 1" in out
        assert "short: subject 1 posture 2" in out
        manifest = dataio.read_manifest(cache / "manifest.tsv")
        assert len(manifest.warnings) == 30
        assert all(w.endswith(" missing") for w in manifest.warnings)

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


class TestCacheLayout:
    """A cache stores no paths: it reads the same from any directory or
    after a move, and an older or damaged cache is one error line."""

    @staticmethod
    def preprocess(root, cache):
        return cli.main(["preprocess", "--data-root", str(root),
                         "--cache-dir", str(cache)])

    @staticmethod
    def train(cache, out):
        return cli.main(["train", "--cache-dir", str(cache), "--out-dir",
                         str(out), "--k", "2", "--epochs", "1"])

    def test_relative_cache_trains_from_anywhere_and_after_a_move(
            self, corpus, tmp_path, monkeypatch):
        root, _ = corpus
        monkeypatch.chdir(tmp_path)
        assert self.preprocess(root, "cache") == 0
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path / "elsewhere")
        assert self.train(tmp_path / "cache", tmp_path / "run1") == 0
        shutil.move(tmp_path / "cache", tmp_path / "moved")
        assert self.train(tmp_path / "moved", tmp_path / "run2") == 0
        assert ((tmp_path / "run1" / "aggregate.json").read_bytes()
                == (tmp_path / "run2" / "aggregate.json").read_bytes())

    def test_manifest_bytes_do_not_depend_on_the_cache_dir(self, corpus,
                                                           tmp_path):
        root, _ = corpus
        a, b = tmp_path / "a" / "cache", tmp_path / "b" / "deeper" / "cache"
        assert self.preprocess(root, a) == 0
        assert self.preprocess(root, b) == 0
        text = (a / "manifest.tsv").read_bytes()
        assert text == (b / "manifest.tsv").read_bytes()
        assert b".npy" not in text and str(tmp_path).encode() not in text

    def test_older_format_is_one_line_and_rebuilt(self, corpus, tmp_path,
                                                  monkeypatch, capsys):
        root, _ = corpus
        cache = tmp_path / "cache"
        # a format-1 cache: its fingerprint and a path column in its manifest
        monkeypatch.setattr(dataio, "CACHE_FORMAT", 1)
        assert self.preprocess(root, cache) == 0
        monkeypatch.undo()
        manifest = cache / "manifest.tsv"
        manifest.write_text("".join(
            f"{e.path}\t{e.subject_id}\t{e.posture_id}\t{e.frame_count}\n"
            for e in dataio.read_manifest(manifest).entries))
        out = tmp_path / "run"
        for argv in (["train", "--cache-dir", str(cache), "--out-dir",
                      str(out), "--k", "2", "--epochs", "1"],
                     ["evaluate", "--cache-dir", str(cache),
                      "--checkpoint", str(tmp_path / "none.ckpt")]):
            capsys.readouterr()
            assert cli.main(argv) == 2
            lines = capsys.readouterr().err.strip().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:")
            assert "older format" in lines[0] and "preprocess" in lines[0]
        assert not out.exists()
        assert self.preprocess(root, cache) == 0
        assert "cache hit" not in capsys.readouterr().out
        assert self.train(cache, out) == 0

    def test_non_integer_manifest_field_is_one_line(self, corpus, tmp_path,
                                                    capsys):
        root, _ = corpus
        cache = tmp_path / "cache"
        assert self.preprocess(root, cache) == 0
        manifest = cache / "manifest.tsv"
        manifest.write_text(manifest.read_text() + "1\t2\tx\n")
        capsys.readouterr()
        assert self.train(cache, tmp_path / "run") == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert str(manifest) in lines[0] and "'1\\t2\\tx'" in lines[0]
        assert not (tmp_path / "run").exists()

    def test_missing_array_is_one_line_and_rebuilt(self, corpus, tmp_path,
                                                   capsys):
        root, _ = corpus
        cache = tmp_path / "cache"
        assert self.preprocess(root, cache) == 0
        gone = cache / "S1_1.npy"
        gone.unlink()
        capsys.readouterr()
        assert self.train(cache, tmp_path / "run") == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert str(gone) in lines[0] and "preprocess" in lines[0]
        assert not (tmp_path / "run").exists()
        assert self.preprocess(root, cache) == 0
        assert "cache hit" not in capsys.readouterr().out
        assert gone.exists()

    @pytest.mark.parametrize("damage, message", [
        (lambda f: f.write_bytes(f.read_bytes()[:200]), "cannot be read"),
        (lambda f: np.save(f, np.load(f)[:2]),
         "holds 2 frames, the manifest lists 6"),
    ], ids=["truncated", "frame-count"])
    def test_damaged_array_is_one_line_and_rebuilt(self, corpus, tmp_path,
                                                   capsys, damage, message):
        # the fingerprint hashes the raw files, not the arrays; a hit reads
        # each array's header, so a damaged array is rebuilt without --force
        root, _ = corpus
        cache = tmp_path / "cache"
        assert self.preprocess(root, cache) == 0
        damaged = cache / "S1_1.npy"
        damage(damaged)
        capsys.readouterr()
        assert cli.main(["evaluate", "--cache-dir", str(cache),
                         "--checkpoint", str(tmp_path / "none.ckpt")]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert str(damaged) in lines[0] and message in lines[0]
        assert lines[0].endswith("run 'preprocess' again")
        assert self.preprocess(root, cache) == 0
        assert "cache hit" not in capsys.readouterr().out
        assert np.load(damaged).shape == (6, 32, 64)
        assert self.train(cache, tmp_path / "run") == 0


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
            {"epochs": 1, "seed": 3, "base_lr": 1e-3, "k": 2}))
        out = tmp_path / "run"
        rc = cli.main(["train", "--cache-dir", str(cache),
                       "--out-dir", str(out), "--config", str(cfg_file),
                       "--seed", "5"])
        assert rc == 0
        stored = json.loads((out / "config.json").read_text())["train"]
        assert stored["seed"] == 5      # flag beats file
        assert stored["epochs"] == 1    # file beats default
        assert stored["k"] == 2
        assert stored["lam"] == 0.5     # TrainConfig's default

    @pytest.mark.parametrize("args, lam", [
        (["--scheme", "loso"], 0.2),
        (["--scheme", "loso", "--lambda", "0.5"], 0.5),
        (["--config", "loso.json"], 0.2),
    ])
    def test_loso_lambda_defaults_to_0_2(self, corpus, tmp_path, monkeypatch,
                                         args, lam):
        _, cache = corpus
        monkeypatch.chdir(tmp_path)
        Path("loso.json").write_text('{"scheme": "loso"}')
        rc = cli.main(["train", "--cache-dir", str(cache), "--out-dir", "run",
                       "--epochs", "1", "--lr", "1e-3", "--seed", "3", *args])
        assert rc == 0
        stored = json.loads(Path("run", "config.json").read_text())["train"]
        assert stored["scheme"] == "loso" and stored["lam"] == lam

    def test_train_flags_are_config_fields(self):
        # a flag whose dest is no TrainConfig field would be dropped silently
        # when the flags are laid over the config file
        train = next(a for a in cli.build_parser()._actions
                     if a.dest == "command").choices["train"]
        dests = {a.dest for a in train._actions} - {"help"}
        other = {"cache_dir", "out_dir", "config", "stride", "lambda_sweep",
                 "baselines"}
        assert other <= dests
        assert dests - other <= {f.name for f in fields(TrainConfig)}

    def test_config_file_unknown_key(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(
            {"epochs": 1, "k": 2, "lr_decay_rate": 0.5, "bogus_key": 1}))
        # the key is refused before the (missing) cache is looked at
        rc = cli.main(["train", "--cache-dir", str(tmp_path / "nope"),
                       "--out-dir", str(tmp_path / "run"),
                       "--config", str(cfg_file)])
        assert rc == 2
        # the LR decay is the paper's, fixed: no longer a setting
        assert "bogus_key, lr_decay_rate" in capsys.readouterr().err
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
        ('{"seed": -1}', "seed must be >= 0"),
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
                               (["--lambda-sweep", "0,0.5,0.5"], "0.5 twice"),
                               (["--lambda-sweep", "0,-0"], "0 twice"),
                               (["--lambda-sweep", "0,x"], "'x'"),
                               (["--lambda-sweep", "0,0.5", "--baselines",
                                 "knn"], "not allowed")):
            rc = cli.main(["train", "--cache-dir", str(cache),
                           "--out-dir", str(tmp_path / "run"), "--k", "2",
                           "--epochs", "1", *extra])
            assert rc == 2
            assert message in capsys.readouterr().err
            assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--scheme", "kfolds"), ("--split-level", "frames")])
    def test_bad_split_flag_refused_by_train_config(self, tmp_path, capsys,
                                                    flag, value):
        # argparse used to refuse these from its own copy of the choices,
        # with a usage line; TrainConfig refuses them like any bad setting
        rc = cli.main(["train", "--cache-dir", str(tmp_path / "missing"),
                       "--out-dir", str(tmp_path / "run"), flag, value])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"'{value}'" in err and "preprocess" not in err
        assert not (tmp_path / "run").exists()

    def test_lambda_with_sweep_refused_before_the_cache_loads(self, tmp_path,
                                                              capsys):
        # the sweep used to replace the given lambda without a word
        rc = cli.main(["train", "--cache-dir", str(tmp_path / "missing"),
                       "--out-dir", str(tmp_path / "run"), "--lambda", "0.5",
                       "--lambda-sweep", "0,0.5"])
        assert rc == 2
        assert capsys.readouterr().err == \
            "error: --lambda is not allowed with --lambda-sweep\n"
        assert not (tmp_path / "run").exists()
        args = cli.build_parser().parse_args(
            ["train", "--cache-dir", "c", "--out-dir", "o", "--lambda", "0.5",
             "--baselines", "knn"])
        assert args.lam == 0.5 and args.baselines == ["knn"]

    def test_config_lambda_with_sweep_refused_before_the_cache_loads(
            self, tmp_path, capsys):
        # the sweep used to train its own lambdas and drop the file's
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"lam": 0.3}))
        rc = cli.main(["train", "--cache-dir", str(tmp_path / "missing"),
                       "--out-dir", str(tmp_path / "run"), "--config",
                       str(cfg_file), "--lambda-sweep", "0,0.5"])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: 'lam' in {cfg_file} is not allowed with --lambda-sweep\n")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("flag, text, values", [
        ("--lambda-sweep", "0.2,0.5", [0.2, 0.5]),
        ("--lambda-sweep", "0,0.5,0.5", [0.0, 0.5, 0.5]),
        ("--lambda-sweep", "0,-0", [0.0, -0.0]),
        ("--lambda-sweep", "0,1.5", [0.0, 1.5]),
        ("--baselines", "svm", ["svm"]),
        ("--baselines", "", [""]),
        ("--baselines", "knn,,trees", ["knn", "", "trees"]),
    ])
    def test_list_flag_refused_by_the_library(self, corpus, tmp_path, capsys,
                                              flag, text, values):
        # the CLI used to check these lists itself: 0.2,0.5 was an argparse
        # usage error before the cache loaded, and "" and knn,,trees trained
        # with the empty names dropped
        _, cache = corpus
        manifest = dataio.read_manifest(cache / dataio.MANIFEST_FILE)
        data = harness.flatten_sequences(
            signal.load_clean_sequences(manifest), manifest.taxonomy)
        config, library = TrainConfig(k=2, epochs=1), tmp_path / "library"
        with pytest.raises((UsageError, ConfigError)) as raised:
            if flag == "--lambda-sweep":
                harness.run_sweep(data, config, values, library)
            else:
                harness.run_experiment(data, config, library, baselines=values)
        assert not library.exists()
        capsys.readouterr()
        rc = cli.main(["train", "--cache-dir", str(cache),
                       "--out-dir", str(tmp_path / "run"), "--k", "2",
                       "--epochs", "1", flag, text])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == f"error: {raised.value}\n"
        assert captured.out == ""
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

    def test_negative_seed_is_usage_error(self, corpus, tmp_path, capsys):
        _, cache = corpus
        rc = cli.main(["train", "--cache-dir", str(cache),
                       "--out-dir", str(tmp_path / "run"), "--seed", "-1",
                       "--epochs", "1"])
        assert rc == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not (tmp_path / "run").exists()


    def test_knn_fold_too_small_refused_before_training(self, tmp_path,
                                                        capsys):
        # 2x2x9 raw frames keep 3 per sequence after trimming: 12 frames,
        # so each of 2 folds trains on 6, fewer than kNN's 10 neighbours
        root, cache = tmp_path / "raw", tmp_path / "cache"
        assert cli.main(["synth", "--out", str(root), "--subjects", "2",
                         "--postures", "2", "--frames", "9", "--seed",
                         "1"]) == 0
        assert cli.main(["preprocess", "--data-root", str(root),
                         "--cache-dir", str(cache)]) == 0
        capsys.readouterr()
        rc = cli.main(["train", "--cache-dir", str(cache),
                       "--out-dir", str(tmp_path / "run"), "--k", "2",
                       "--epochs", "1", "--seed", "1", "--baselines", "knn"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: need at least k=10 training points, got 6\n")
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

    def test_zero_variance_sweep_keeps_its_training(self, tmp_path, capsys):
        # on this corpus both lambdas score 0% fine-posture accuracy in both
        # folds, so the Welch t-test is undefined
        raw, cache, out = tmp_path / "raw", tmp_path / "cache", tmp_path / "sw"
        assert cli.main(["synth", "--out", str(raw), "--subjects", "3",
                         "--postures", "4", "--frames", "12",
                         "--seed", "1"]) == 0
        assert cli.main(["preprocess", "--data-root", str(raw),
                         "--cache-dir", str(cache)]) == 0
        capsys.readouterr()
        rc = cli.main(["train", "--cache-dir", str(cache), "--out-dir",
                       str(out), "--k", "2", "--epochs", "1", "--seed", "3",
                       "--lambda-sweep", "0,0.5"])
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        sweep = json.loads((out / harness.SWEEP_FILE).read_text())
        assert sweep["accuracy_per_fold"] == {"0": [0.0, 0.0],
                                              "0.5": [0.0, 0.0]}
        assert sweep["welch_vs_zero"] == {"0.5": {
            "t": None, "p": None, "df": None,
            "mean_lambda": 0.0, "mean_zero": 0.0}}
        assert "lambda=0.5 vs 0: t undefined (mean 0.00% vs 0.00%)" \
            in captured.out


def rewrite_header(src, dst, edit):
    """Copy the checkpoint at src to dst, with edit applied to its parsed
    JSON header."""
    blob = src.read_bytes()
    start = len(MAGIC) + 6
    (hlen,) = struct.unpack_from("<I", blob, start - 4)
    header = json.loads(blob[start:start + hlen])
    edit(header)
    body = json.dumps(header).encode()
    dst.write_bytes(blob[:start - 4] + struct.pack("<I", len(body)) + body
                    + blob[start + hlen:])


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
        header = {"config": asdict(ckpt.config), "epoch": ckpt.epoch,
                  "seed": ckpt.seed, "adam": ckpt.adam.t}
        groups = {"param": ckpt.params, "stat": ckpt.bn_stats,
                  "adam.m": ckpt.adam.m, "adam.v": ckpt.adam.v}
        tensors = [(f"{g}:{k}", v) for g, d in groups.items()
                   for k, v in d.items() if k != "conv1.w"]
        header["tensors"] = tensor_table(tensors)
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

    @pytest.mark.parametrize("field, value", [
        ("input_hw", [32]), ("num_subjects", 2.5),
        ("conv_dropout", ["x", 0, 0, 0])])
    def test_bad_config_in_header_is_one_error_line(
            self, corpus, trained_run, tmp_path, capsys, field, value):
        # these used to print a ValueError traceback, or to load a 2-class
        # subject head and skip the subject task with exit 0; input_hw and
        # conv_dropout, config fields of format 5, are unknown fields now
        _, cache = corpus
        bad = tmp_path / "bad.ckpt"
        rewrite_header(trained_run / "fold_00" / "model.ckpt", bad,
                       lambda h: h["config"].update({field: value}))
        capsys.readouterr()
        rc = cli.main(["evaluate", "--checkpoint", str(bad),
                       "--cache-dir", str(cache)])
        captured = capsys.readouterr()
        assert rc == 1
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert field in lines[0]
        # the field and the rule, not a Python exception's repr
        assert "Error(" not in lines[0]
        assert "accuracy" not in captured.out

    def test_version_5_checkpoint_is_one_error_line(self, corpus, trained_run,
                                                     tmp_path, capsys):
        # a format-5 file is refused by its number, before its header
        _, cache = corpus
        blob = (trained_run / "fold_00" / "model.ckpt").read_bytes()
        old = tmp_path / "v5.ckpt"
        old.write_bytes(MAGIC + struct.pack("<H", 5) + blob[len(MAGIC) + 2:])
        capsys.readouterr()
        rc = cli.main(["evaluate", "--checkpoint", str(old),
                       "--cache-dir", str(cache)])
        captured = capsys.readouterr()
        assert rc == 1
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "version 5 " in lines[0]
        assert "accuracy" not in captured.out

    def test_bad_epoch_and_seed_are_one_error_line(self, corpus, trained_run,
                                                    tmp_path, capsys):
        # such a file used to load, then fail late in a resume or a save
        _, cache = corpus
        bad = tmp_path / "bad.ckpt"
        rewrite_header(trained_run / "fold_00" / "model.ckpt", bad,
                       lambda h: h.update(epoch="two", seed=2.5))
        capsys.readouterr()
        rc = cli.main(["evaluate", "--checkpoint", str(bad),
                       "--cache-dir", str(cache)])
        captured = capsys.readouterr()
        assert rc == 1
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "epoch 'two'" in lines[0]
        assert "accuracy" not in captured.out

    @pytest.mark.parametrize("subjects, postures, err", [
        ("2", "2", "error: checkpoint expects 3 postures, dataset has 2\n"),
        ("2", "4", "error: checkpoint expects 3 postures, dataset has 4\n"),
        ("3", "3", ""),
    ])
    def test_class_count_mismatch(self, trained_run, tmp_path, capsys,
                                  subjects, postures, err):
        # the 2-subject, 3-posture checkpoint against other caches
        root, cache = tmp_path / "raw", tmp_path / "cache"
        assert cli.main(["synth", "--out", str(root), "--subjects", subjects,
                         "--postures", postures, "--frames", "12",
                         "--seed", "1"]) == 0
        assert cli.main(["preprocess", "--data-root", str(root),
                         "--cache-dir", str(cache)]) == 0
        capsys.readouterr()
        rc = cli.main(["evaluate", "--cache-dir", str(cache), "--checkpoint",
                       str(trained_run / "fold_00" / "model.ckpt")])
        captured = capsys.readouterr()
        assert captured.err == err
        if err:
            assert rc == 2 and captured.out == ""
        else:
            assert rc == 0
            assert "posture_fine: accuracy" in captured.out
            assert ("subject: skipped (subject count mismatch)\n"
                    in captured.out)

    @pytest.mark.parametrize("name", ["nope.ckpt", "a_directory"])
    def test_unopenable_checkpoint_is_one_error_line(self, corpus, tmp_path,
                                                     capsys, name):
        _, cache = corpus
        (tmp_path / "a_directory").mkdir()
        path = tmp_path / name
        capsys.readouterr()
        rc = cli.main(["evaluate", "--checkpoint", str(path),
                       "--cache-dir", str(cache)])
        captured = capsys.readouterr()
        assert rc == 2
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert str(path) in lines[0]
        assert "accuracy" not in captured.out

    def test_version_1_checkpoint_is_one_error_line(self, corpus, trained_run,
                                                    tmp_path, capsys):
        _, cache = corpus
        old = tmp_path / "v1.ckpt"
        old.write_bytes(MAGIC + struct.pack("<H", 1))
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
        assert capsys.readouterr().err.startswith(
            "error: incomplete run: missing folds")

    def test_rerun_that_dies_is_not_reported_complete(self, corpus, tmp_path,
                                                      capsys, monkeypatch):
        # the earlier run's DONE, summary and third fold must not make a
        # failed rerun into the same directory look finished
        _, cache = corpus
        run = tmp_path / "run"
        train = ["train", "--cache-dir", str(cache), "--out-dir", str(run),
                 "--epochs", "1", "--seed", "1"]
        assert cli.main(train + ["--k", "3"]) == 0
        real, calls = harness.train_model, []

        def dies_in_fold_1(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("killed")
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "train_model", dies_in_fold_1)
        assert cli.main(train + ["--k", "2"]) == 1
        capsys.readouterr()
        assert cli.main(["report", "--run-dir", str(run)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: incomplete run: no DONE marker\n"
        assert captured.out == ""

    @pytest.mark.parametrize("name, content", [
        ("config.json", '{"folds": 2'),          # truncated
        ("config.json", '{"samples": 12}'),      # no fold count
        # these used to report fold 0 only, or an empty table, with exit 0
        ("config.json", '{"folds": true}'),
        ("config.json", '{"folds": 0}'),
        ("config.json", '{"folds": -1}'),
        ("fold_01/metrics.json", "not json"),
        ("fold_00/metrics.json", '{"posture_coarse": null}'),
        ("fold_01/metrics.json", '{"posture_fine": {"accuracy": 50.0, '
         '"confusion": []}, "posture_coarse": {"accuracy": "high", '
         '"confusion": []}, "subject": null}'),
    ])
    def test_unreadable_run_file_is_one_error_line(self, trained_run, tmp_path,
                                                   capsys, name, content):
        run = tmp_path / "run"
        shutil.copytree(trained_run, run)
        (run / name).write_text(content)
        assert cli.main(["report", "--run-dir", str(run)]) == 2
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert name in lines[0]
        assert captured.out == ""

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
        # the second grid is the preprocessing pipeline's frame, untrimmed
        seq = dataio.parse_frame_file(root / "S1" / "1.txt")
        clean = signal.normalize_frames(median_oracle(seq.frames))
        assert "\n".join(grids[32:]) == cli.render_frame(clean[2])

    def test_count_file_and_float_twin_print_the_same(self, corpus, capsys,
                                                      tmp_path):
        # the count file's frames are uint16 and its twin's float32
        root, _ = corpus
        counts = root / "S2" / "3.txt"
        twin = float_twin(counts, tmp_path / "S2" / "3.txt")
        outs = []
        for f in (counts, twin):
            assert cli.main(["frame-dump", "--file", str(f), "--index",
                             "5"]) == 0
            outs.append(capsys.readouterr().out.replace(str(f), "FILE"))
        assert outs[0] == outs[1]
        assert len(outs[0].splitlines()) > 64

    def test_index_out_of_range(self, corpus, capsys):
        root, _ = corpus
        rc = cli.main(["frame-dump", "--file", str(root / "S1" / "1.txt"),
                       "--index", "99"])
        assert rc == 2
        assert "out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("name, reason", [
        ("missing.txt", "No such file or directory"),
        (".", "Is a directory")])
    def test_unreadable_file_is_one_error_line(self, tmp_path, capsys, name,
                                               reason):
        path = tmp_path / name
        assert cli.main(["frame-dump", "--file", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot read {path}: {reason}\n"


    def test_non_utf8_file_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "S1" / "1.txt"
        path.parent.mkdir()
        path.write_bytes(b"\xff\xfe 1 2\n")
        assert cli.main(["frame-dump", "--file", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {path} is not UTF-8 text "
                                "(invalid start byte)\n")
        # preprocessing refuses the recording the same way
        assert cli.main(["preprocess", "--data-root", str(tmp_path),
                         "--cache-dir", str(tmp_path / "cache")]) == 1
        assert capsys.readouterr().err == captured.err

    def test_bad_utf8_record_is_named_in_an_ascii_locale(self, tmp_path):
        # the file is decoded once, as UTF-8, whatever the locale says
        path = tmp_path / "S1" / "1.txt"
        path.parent.mkdir()
        path.write_text(" ".join(["1"] * 2047 + ["\u00e9"]) + "\n",
                        encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
               "PYTHONUTF8": "0", "LC_ALL": "C"}
        done = subprocess.run(
            [sys.executable, "-c", MAIN, "frame-dump", "--file", str(path)],
            env=env, capture_output=True, text=True, encoding="utf-8")
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == (f"error: {path}: record 1 contains a "
                               "non-numeric field\n")


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

    def test_negative_seed_is_usage_error(self, capsys):
        rc = cli.main(["augment-stats", "--seed", "-1"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be >= 0, got -1\n"
        assert captured.out == ""


def test_import_loads_no_scipy():
    # scipy serves only the lambda sweep's t-test, and dominates import time
    code = ("import sys, pressnet, pressnet.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"



# cli.main(argv[1:]) in a fresh interpreter
MAIN = "import sys; from pressnet import cli; sys.exit(cli.main(sys.argv[1:]))"


# cli.main(argv[2:]) on the first argv[1] of the process's allowed cores
ON_CORES = """
import os, sys
from pressnet import cli
os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:int(sys.argv[1])])
sys.exit(cli.main(sys.argv[2:]))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="needs os.sched_setaffinity")
def test_train_is_the_same_at_any_thread_count(corpus, tmp_path):
    # BLAS is pinned to one thread, so OpenBLAS's thread count no longer
    # changes a checkpoint, and the split kernels' bytes do not depend on
    # the cores the process may use: only timing.txt differs
    _, cache = corpus
    runs = {}
    for blas, cores in (("1", 1), ("2", len(os.sched_getaffinity(0)))):
        out = tmp_path / f"blas{blas}"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
               "OPENBLAS_NUM_THREADS": blas}
        subprocess.run(
            [sys.executable, "-c", ON_CORES, str(cores), "train",
             "--cache-dir", str(cache), "--out-dir", str(out), "--k", "2",
             "--epochs", "2", "--lr", "1e-3", "--seed", "3", "--augment"],
            env=env, check=True, capture_output=True)
        runs[blas] = {p.relative_to(out).as_posix(): p.read_bytes()
                      for p in sorted(out.rglob("*")) if p.is_file()}
        timing = runs[blas].pop("timing.txt").decode()
        assert timing.endswith(f"workers: {cores}\n")
    assert runs["1"].keys() == runs["2"].keys()
    assert [n for n in runs["1"] if runs["1"][n] != runs["2"][n]] == []
    blas = json.loads(runs["1"]["config.json"])["blas"]
    assert set(blas) == {"threads", "core"} and blas["threads"] in (1, None)
