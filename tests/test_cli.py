"""CLI surface: config parsing, IDX files, CSV contract, determinism."""

import csv
import os
import struct
import sys

import numpy as np
import pytest

from hvi.cli import main
from hvi import experiments
from hvi.config import ConfigError, ExperimentConfig, load_config
from hvi.idx import IdxFormatError, load_idx, write_idx_images, write_idx_labels
from hvi.models import load_params, make_mini_vae, save_params
from hvi.rng import RngStream
from hvi.runrecord import HEADER, CsvWriter, RunRecord
from hvi.tape import ParamStore


class TestConfig:
    def test_file_parsing_with_overrides(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# a vae-eval sweep\n\nseed = 7\nk = 3   # comment\n"
                     "k_schedule = 0:0, 10:2\nhidden=32,32\n\nlearning_rate = 5e-4\n"
                     "variants = SIVI_LIKE, DIWHVI_EVAL\n")
        cfg = load_config(str(p), overrides={"experiment": "toy-laplace", "k": "5"})
        assert cfg.seed == 7 and cfg.k == 5
        assert cfg.k_schedule == [(0, 0), (10, 2)]
        assert cfg.hidden == [32, 32]
        assert cfg.learning_rate == 5e-4 and isinstance(cfg.learning_rate, float)
        assert cfg.variants == ["SIVI_LIKE", "DIWHVI_EVAL"]

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("frobnicate = 1\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(str(p), overrides={"experiment": "snr"})

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError):
            load_config(None, overrides={"experiment": "nope"})

    def test_k_schedule_must_increase(self):
        with pytest.raises(ConfigError):
            load_config(None, overrides={"experiment": "vae-train",
                                         "k_schedule": "10:2,5:0"})

    @pytest.mark.parametrize("key, raw", [("eval_every", "0"), ("eval_draws", "0"),
                                          ("final_eval_draws", "0"), ("k_list", "1,-1"),
                                          ("m_list", "4,0"), ("k_schedule", "0:0,5:-2"),
                                          ("eval_images", "0"), ("dim", "0"), ("z_dim", "0"),
                                          ("psi_dim", "0"), ("hidden", "32,0")])
    def test_out_of_range_value_is_config_error(self, key, raw):
        # Each of these used to pass validation and crash mid-run.
        with pytest.raises(ConfigError, match=key):
            load_config(None, overrides={"experiment": "toy-laplace", key: raw})

    def test_k_at_epoch(self):
        cfg = ExperimentConfig(experiment="vae-train", k_schedule=[(0, 0), (10, 2), (25, 5)])
        assert [cfg.k_at_epoch(e) for e in (0, 9, 10, 24, 25, 99)] == [0, 0, 2, 2, 5, 5]

    def test_warmup_weight_exact(self):
        cfg = ExperimentConfig(experiment="vae-train")
        W = 20
        for e in range(0, 30):
            assert cfg.warmup_weight(e, W) == min(1.0, e / W)
        assert cfg.warmup_weight(5, 0) == 1.0

    def test_lr_anneal(self):
        cfg = ExperimentConfig(experiment="vae-train", learning_rate=1e-3,
                               lr_anneal_factor=0.95, lr_anneal_period=100)
        assert cfg.lr_at_epoch(0) == 1e-3
        assert cfg.lr_at_epoch(100) == pytest.approx(0.95e-3)


class TestIdx:
    def test_images_round_trip(self, tmp_path):
        path = str(tmp_path / "imgs")
        imgs = (np.arange(2 * 4 * 3) % 256).reshape(2, 4, 3).astype(np.uint8)
        write_idx_images(path, imgs)
        back = load_idx(path)
        assert back.shape == (2, 4, 3)
        np.testing.assert_allclose(back * 255.0, imgs, atol=1e-9)
        raw = open(path, "rb").read()
        assert raw[:4] == bytes([0, 0, 8, 3])
        assert struct.unpack(">3I", raw[4:16]) == (2, 4, 3)

    def test_labels_round_trip(self, tmp_path):
        path = str(tmp_path / "labs")
        write_idx_labels(path, np.array([3, 1, 4, 1, 5]))
        back = load_idx(path)
        assert back.dtype == np.uint8
        np.testing.assert_array_equal(back, [3, 1, 4, 1, 5])
        assert open(path, "rb").read()[:4] == bytes([0, 0, 8, 1])

    def test_wrong_magic_reports_offset_zero(self, tmp_path):
        path = str(tmp_path / "bad")
        open(path, "wb").write(b"\x00\x00\x07\x03" + b"\x00" * 20)
        with pytest.raises(IdxFormatError) as err:
            load_idx(path)
        assert err.value.offset == 0

    def test_truncated_payload_reports_exact_offset(self, tmp_path):
        path = str(tmp_path / "trunc")
        imgs = np.zeros((2, 3, 3), dtype=np.uint8)
        write_idx_images(path, imgs)
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[:-5])
        with pytest.raises(IdxFormatError) as err:
            load_idx(path)
        assert err.value.offset == len(raw) - 5
        assert "expected 34 bytes" in str(err.value)


class TestRunRecord:
    def test_ci_must_bracket_value(self):
        with pytest.raises(ValueError):
            RunRecord("x", 0, 0, 0, 1, "e", "m", value=2.0, ci_low=0.0, ci_high=1.0)

    def test_csv_loadable_with_header(self, tmp_path):
        w = CsvWriter(str(tmp_path / "o.csv"), "t", 1)
        w.add(step=0, K=2, M=1, estimator="e", metric="m", value=1.5, ci_low=1.0, ci_high=2.0)
        w.add_ci90([3.0, 1.0, 2.0], step=1, K=2, M=1, estimator="e", metric="m_ci90")
        w.write()
        rows = list(csv.DictReader(open(w.path)))
        assert [(r["experiment"], r["seed"], r["metric"]) for r in rows] == [
            ("t", "1", "m"), ("t", "1", "m_ci90")]
        assert float(rows[0]["ci_low"]) <= float(rows[0]["value"]) <= float(rows[0]["ci_high"])
        assert [float(rows[1][k]) for k in ("value", "ci_low", "ci_high")] == [2.0, 1.1, 2.9]
        assert open(w.path).readline().strip() == HEADER


def run_cli(args):
    return main(args)


class TestCliSurface:
    def test_unknown_estimator_flag_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(["snr", "--estimator", "bogus"])

    def test_config_error_exit_code(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("bogus_key = 1\n")
        assert run_cli(["snr", "--config", str(p)]) == 2

    def test_data_error_exit_code(self, tmp_path):
        out = str(tmp_path / "o.csv")
        code = run_cli(["vae-train", "--data-path", str(tmp_path / "missing"),
                        "--out", out, "--epochs", "1"])
        assert code == 3

    def test_make_data_without_sklearn_is_data_error(self, tmp_path, monkeypatch, capsys):
        # None in sys.modules makes the import fail even where sklearn is installed
        monkeypatch.setitem(sys.modules, "sklearn", None)
        monkeypatch.setitem(sys.modules, "sklearn.datasets", None)
        assert run_cli(["make-data", "--out", str(tmp_path / "d")]) == 3
        assert "scikit-learn" in capsys.readouterr().err

    def test_corrupt_idx_exit_code(self, tmp_path):
        bad = tmp_path / "train-images-idx3-ubyte"
        bad.write_bytes(b"\x00\x00\x08\x03\x00\x00")
        code = run_cli(["vae-train", "--data-path", str(tmp_path),
                        "--out", str(tmp_path / "o.csv"), "--epochs", "1"])
        assert code == 3

    @pytest.mark.parametrize("fault, block", [("missing", "enc.w0"), ("unknown", "enc.w_old"),
                                              ("misshaped", "tau.b0")])
    def test_checkpoint_blocks_must_match_arch(self, tmp_path, data_dir, capsys, fault, block):
        vae = make_mini_vae(784, 2, 2, (4,), RngStream(0))
        store = ParamStore()
        store.add("meta.arch", [784, 2, 2, 4])
        for name in vae.store.names():
            if name != block:
                store.add(name, vae.store[name])
        if fault != "missing":
            store.add(block, np.zeros(5))
        ck = str(tmp_path / "m.ckpt")
        save_params(ck, store)
        code = run_cli(["vae-eval", "--data-path", data_dir, "--checkpoint", ck,
                        "--out", str(tmp_path / "e.csv")])
        assert code == 3
        assert repr(block) in capsys.readouterr().err

    @pytest.mark.parametrize("arch", [[784], [784, 0, 2, 4], [784, 2.5, 2, 4]],
                             ids=["short", "zero", "fractional"])
    def test_malformed_arch_is_data_error(self, tmp_path, data_dir, capsys, arch):
        # The blocks are those of the 784-2-2-4 VAE, which a truncated
        # fractional arch would match.
        vae = make_mini_vae(784, 2, 2, (4,), RngStream(0))
        store = ParamStore()
        store.add("meta.arch", arch)
        for name in vae.store.names():
            store.add(name, vae.store[name])
        ck = str(tmp_path / "m.ckpt")
        save_params(ck, store)
        code = run_cli(["vae-eval", "--data-path", data_dir, "--checkpoint", ck,
                        "--out", str(tmp_path / "e.csv")])
        assert code == 3
        assert "meta.arch" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["input_dim", "beta1", "beta2"])
    def test_removed_keys_are_unknown(self, tmp_path, capsys, key):
        p = tmp_path / "c.cfg"
        p.write_text(f"{key} = 1\n")
        assert run_cli(["vae-train", "--config", str(p)]) == 2
        assert f"unknown key {key!r}" in capsys.readouterr().err

    def test_vae_input_width_comes_from_the_images(self, tmp_path, data_dir, capsys):
        small = tmp_path / "small"
        small.mkdir()
        write_idx_images(str(small / "train-images-idx3-ubyte"),
                         np.random.default_rng(0).uniform(size=(48, 20, 20)))
        ck = str(tmp_path / "small.ckpt")
        assert run_cli(["vae-train", "--data-path", str(small), "--checkpoint", ck,
                        "--epochs", "1", "--out", str(tmp_path / "t.csv")]) == 0
        assert load_params(ck)["meta.arch"][0] == 400

        wide = str(tmp_path / "wide.ckpt")
        assert run_cli(["vae-train", "--data-path", data_dir, "--subset-size", "40",
                        "--epochs", "1", "--checkpoint", wide,
                        "--out", str(tmp_path / "w.csv")]) == 0
        capsys.readouterr()
        assert run_cli(["vae-eval", "--data-path", str(small), "--checkpoint", wide,
                        "--out", str(tmp_path / "e.csv")]) == 3
        err = capsys.readouterr().err
        assert "400" in err and "784" in err

    def test_bounds_check_runs_and_validates(self, tmp_path):
        out = str(tmp_path / "bc.csv")
        assert run_cli(["bounds-check", "--out", out, "--seed", "3",
                        "--replicates", "1"]) == 0
        rows = list(csv.DictReader(open(out)))
        holds = [float(r["value"]) for r in rows if r["metric"] == "sandwich_holds"]
        assert holds and all(h == 1.0 for h in holds)

    def test_jackknife_study_runs(self, tmp_path):
        out = str(tmp_path / "jk.csv")
        assert run_cli(["jackknife-study", "--out", out, "--seed", "3"]) == 0
        rows = list(csv.DictReader(open(out)))
        ups = {(r["step"], r["K"]): float(r["value"]) for r in rows if r["metric"] == "upper_bias"}
        jks = {(r["step"], r["K"]): float(r["value"]) for r in rows if r["metric"] == "jackknife_bias"}
        assert ups and all(jks[k] < ups[k] for k in ups)


def strip_wall(path):
    lines = open(path).read().splitlines()
    return ["," .join(l.split(",")[:-1]) for l in lines]


class TestDeterminism:
    def test_toy_laplace_byte_identical(self, tmp_path):
        args = ["toy-laplace", "--steps", "20", "--replicates", "2", "--k", "2", "--seed", "9"]
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert run_cli(args + ["--out", a]) == 0
        assert run_cli(args + ["--out", b]) == 0
        assert strip_wall(a) == strip_wall(b)

    def test_snr_byte_identical(self, tmp_path):
        args = ["snr", "--steps", "10", "--replicates", "4", "--seed", "9"]
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert run_cli(args + ["--out", a]) == 0
        assert run_cli(args + ["--out", b]) == 0
        assert strip_wall(a) == strip_wall(b)

    def test_vae_train_and_eval_byte_identical(self, tmp_path, data_dir):
        ck = str(tmp_path / "m.ckpt")
        args = ["vae-train", "--data-path", data_dir, "--subset-size", "128",
                "--epochs", "2", "--seed", "9", "--checkpoint", ck]
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert run_cli(args + ["--out", a]) == 0
        ck_bytes = open(ck, "rb").read()
        assert run_cli(args + ["--out", b]) == 0
        assert strip_wall(a) == strip_wall(b)
        assert open(ck, "rb").read() == ck_bytes

        cfgf = tmp_path / "e.cfg"
        cfgf.write_text("m_list = 4\nk_list = 0,2\neval_runs = 2\neval_images = 8\n")
        eargs = ["vae-eval", "--config", str(cfgf), "--data-path", data_dir,
                 "--subset-size", "128", "--checkpoint", ck, "--seed", "9"]
        ea, eb = str(tmp_path / "ea.csv"), str(tmp_path / "eb.csv")
        assert run_cli(eargs + ["--out", ea]) == 0
        assert run_cli(eargs + ["--out", eb]) == 0
        assert strip_wall(ea) == strip_wall(eb)

    def test_bounds_check_byte_identical(self, tmp_path):
        args = ["bounds-check", "--seed", "4", "--replicates", "1"]
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert run_cli(args + ["--out", a]) == 0
        assert run_cli(args + ["--out", b]) == 0
        assert strip_wall(a) == strip_wall(b)


class TestVaeSmoke:
    def test_train_eval_pipeline(self, tmp_path, data_dir):
        ck = str(tmp_path / "m.ckpt")
        out = str(tmp_path / "t.csv")
        assert run_cli(["vae-train", "--data-path", data_dir, "--subset-size", "192",
                        "--epochs", "3", "--seed", "1", "--checkpoint", ck,
                        "--out", out]) == 0
        rows = list(csv.DictReader(open(out)))
        metrics = {r["metric"] for r in rows}
        assert {"train_bound", "expected_kl_tau_prior", "val_bound"} <= metrics

        eout = str(tmp_path / "e.csv")
        code = run_cli(["vae-eval", "--data-path", data_dir, "--subset-size", "192",
                        "--checkpoint", ck, "--seed", "1", "--out", eout])
        assert code == 0
        erows = list(csv.DictReader(open(eout)))
        assert any(r["metric"] == "eval_bound_ci90" for r in erows)
        for r in erows:
            if r["ci_low"]:
                assert float(r["ci_low"]) <= float(r["value"]) <= float(r["ci_high"])

    def test_dreg_estimator_trains(self, tmp_path, data_dir):
        out = str(tmp_path / "d.csv")
        assert run_cli(["vae-train", "--data-path", data_dir, "--subset-size", "128",
                        "--epochs", "2", "--seed", "2", "--estimator", "dreg",
                        "--out", out]) == 0

    @pytest.mark.parametrize("key", ["warmup_inner_kl", "warmup_outer_kl"])
    def test_dreg_with_inner_warmup_is_config_error(self, tmp_path, data_dir, key):
        cfgf = tmp_path / "c.cfg"
        cfgf.write_text(f"{key} = 10\n")
        code = run_cli(["vae-train", "--config", str(cfgf), "--data-path", data_dir,
                        "--estimator", "dreg", "--out", str(tmp_path / "x.csv"),
                        "--epochs", "1", "--subset-size", "128"])
        assert code == 2


class TestVaeTrainingPaths:
    def test_refit_steps_only_tau_blocks(self):
        cfg = load_config(None, overrides={"experiment": "vae-eval", "refit_epochs": "1",
                                           "batch_size": "8", "k": "2"})
        vae = make_mini_vae(12, 3, 3, (8,), RngStream(1))
        before = {n: vae.store[n].tobytes() for n in vae.store.names()}
        experiments.refit_tau(cfg, vae, RngStream(2).uniform((24, 12)), RngStream(3))
        moved = {n for n in before if vae.store[n].tobytes() != before[n]}
        assert moved == set(vae.store.names("tau."))

    @pytest.mark.parametrize("binarization", ["fixed", "dynamic"])
    def test_fixed_binarization_binarizes_the_training_set_once(self, tmp_path, data_dir,
                                                                monkeypatch, binarization):
        seen, elbo = [], experiments.diwhvi_elbo

        def recording(gen, q, tau, rho, x, *args, **kwargs):
            seen.append(np.array(x))
            return elbo(gen, q, tau, rho, x, *args, **kwargs)

        monkeypatch.setattr(experiments, "diwhvi_elbo", recording)
        cfg = load_config(None, overrides={
            "experiment": "vae-train", "data_path": data_dir, "subset_size": "72",
            "val_fraction": "0", "batch_size": "8", "epochs": "2", "k_schedule": "0:1",
            "hidden": "4", "z_dim": "2", "psi_dim": "2", "binarization": binarization,
            "out": str(tmp_path / "t.csv")})
        experiments.run_vae(cfg)
        assert len(seen) == 18                    # 9 batches cover the 72 images each epoch
        epochs = [sorted(r.tobytes() for r in np.concatenate(seen[e:e + 9])) for e in (0, 9)]
        assert all(set(np.unique(b)) <= {0.0, 1.0} for b in seen)
        assert (epochs[0] == epochs[1]) == (binarization == "fixed")
