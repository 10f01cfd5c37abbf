"""CLI: dataset generation, training, eval, export, infer, bench."""

import dataclasses
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stormkan.cli import (ABLATE_MATRIX, _apply_variant, main,
                          parse_config_file, resolve_run_config)
from stormkan.errors import ConfigError
from stormkan.model import ModelConfig, build_model
from stormkan.tensor import write_container
from stormkan.training import (CKPT_MAGIC, CKPT_VERSION, TrainConfig,
                               read_checkpoint)

TINY_CFG = """
# desk-scale configuration
image_hw = 40
r_center = 20
ring_count = 9
lr = 0.02
batch = 8
max_epochs = 2
seed = 3
train_frac = 0.6
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli")
    cfg = path / "run.cfg"
    cfg.write_text(TINY_CFG)
    data = str(path / "data")
    assert main(["gen", "--storms", "12", "--steps-per-storm", "3",
                 "--out", data, "--seed", "5", "--image-hw", "40"]) == 0
    return {"root": path, "cfg": str(cfg), "data": data}


class TestConfigFile:
    def test_parse_and_resolve(self, workdir):
        values = parse_config_file(workdir["cfg"])
        assert values["image_hw"] == 40 and values["lr"] == 0.02
        run = resolve_run_config(workdir["cfg"], {"seed": 9})
        assert run.train.seed == 9          # override wins
        assert run.model.image_hw == 40
        assert run.train_frac == 0.6

    def test_unknown_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("not_a_key = 3\n")
        with pytest.raises(ConfigError):
            parse_config_file(str(bad))


CONFIG_KEYS = sorted({f.name for cls in (ModelConfig, TrainConfig)
                     for f in dataclasses.fields(cls)}
                    | {"train_frac", "nope"})
CONFIG_VALUES = st.one_of(
    st.sampled_from(["0", "1", "3", "40", "-1", "0.5", "1e400", "inf",
                     "nan", "true", "False", "abc", "deploy", "", "1e-3"]),
    st.integers(-2**70, 2**70).map(str), st.floats().map(repr), st.text())


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("cfg") / "fuzz.cfg")


class TestConfigErrors:
    @pytest.mark.parametrize("text", [
        "lr = abc\n", "batch = 1e400\n", "lr = inf\n", "lr = nan\n",
        "batch = 2.5\n", "no_seq = 1\n", "image_hw = true\n"],
        ids=["lr_abc", "batch_1e400", "lr_inf", "lr_nan", "batch_2.5",
             "bool_1", "int_true"])
    def test_values_parsed_by_field_type(self, tmp_path, text):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError):
            resolve_run_config(str(path), {})

    def test_int_literal_for_float_field(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text("lr = 1\ntrain_frac = 0\n")
        run = resolve_run_config(str(path), {})
        assert run.train.lr == 1.0 and type(run.train.lr) is float
        assert type(run.train_frac) is float

    def test_non_utf8_byte(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"lr = 0.1\nseed = \xff\n")
        with pytest.raises(ConfigError, match="UTF-8"):
            resolve_run_config(str(path), {})

    def test_non_finite_train_config_rejected(self):
        with pytest.raises(ConfigError, match="finite"):
            TrainConfig(alpha=float("inf"))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(
        st.tuples(st.sampled_from(CONFIG_KEYS), CONFIG_VALUES).map(
            lambda kv: f"{kv[0]} = {kv[1]}".encode("utf-8", "surrogatepass")),
        st.text().map(lambda t: t.encode("utf-8", "surrogatepass")),
        st.binary(max_size=16)), max_size=6))
    def test_random_files_fail_typed(self, config_path, lines):
        with open(config_path, "wb") as fp:
            fp.write(b"\n".join(lines))
        try:
            resolve_run_config(config_path, {})
        except ConfigError:
            pass


class TestGen:
    def test_counts(self, workdir, tmp_path):
        out = str(tmp_path / "plain")
        assert main(["gen", "--storms", "10", "--steps-per-storm", "8",
                     "--out", out, "--seed", "1", "--image-hw", "40"]) == 0
        rows = open(os.path.join(out, "index.csv")).read().strip().splitlines()
        assert len(rows) - 1 == 80

    def test_augment_quadruples(self, tmp_path):
        out = str(tmp_path / "aug")
        main(["gen", "--storms", "2", "--steps-per-storm", "2", "--out", out,
              "--seed", "1", "--image-hw", "40", "--augment"])
        rows = open(os.path.join(out, "index.csv")).read().strip().splitlines()
        assert len(rows) - 1 == 16
        rotations = {r.split(",")[2] for r in rows[1:]}
        assert rotations == {"none", "cw90", "ccw90", "rot180"}

    def test_rerun_identical_index(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out = str(tmp_path / sub)
            main(["gen", "--storms", "3", "--steps-per-storm", "2",
                  "--out", out, "--seed", "7", "--image-hw", "40"])
            outs.append(open(os.path.join(out, "index.csv")).read())
        assert outs[0] == outs[1]


@pytest.fixture(scope="module")
def trained(workdir):
    ckpt = str(workdir["root"] / "model.kfc")
    rc = main(["train", "--data", workdir["data"], "--config", workdir["cfg"],
               "--out", ckpt, "--quiet"])
    assert rc == 0
    return ckpt


@pytest.fixture(scope="module")
def deploy_artifacts(workdir):
    ckpt = str(workdir["root"] / "deploy.kfc")
    graph = str(workdir["root"] / "deploy.kfg")
    assert main(["train", "--data", workdir["data"], "--config",
                 workdir["cfg"], "--variant", "deploy", "--out", ckpt,
                 "--quiet"]) == 0
    assert main(["export", "--ckpt", ckpt, "--out", graph]) == 0
    return {"ckpt": ckpt, "graph": graph}


class TestTrain:
    def test_metrics_log_one_row_per_epoch(self, trained):
        rows = open(trained + ".log.csv").read().strip().splitlines()
        assert len(rows) == 2
        assert all(len(r.split(",")) == 10 for r in rows)

    def test_conflicting_ablation_flags_fail(self, workdir, tmp_path):
        rc = main(["train", "--data", workdir["data"], "--config",
                   workdir["cfg"], "--ablate", "no_seq,no_lstm",
                   "--out", str(tmp_path / "x.kfc"), "--quiet"])
        assert rc != 0

    def test_compressed_variant_smaller(self, workdir, tmp_path):
        ckpt = str(tmp_path / "s.kfc")
        assert main(["train", "--data", workdir["data"], "--config",
                     workdir["cfg"], "--variant", "s", "--max-epochs", "1",
                     "--out", ckpt, "--quiet"]) == 0
        from stormkan.training import model_from_checkpoint
        small, _ = model_from_checkpoint(ckpt)
        assert small.cfg.task_dim == 16

    def test_compressed_variant_widths_at_full_size(self):
        cfg = _apply_variant(ModelConfig(), "s", None)
        assert ((cfg.d_attn, cfg.task_dim, cfg.lstm_hidden,
                 cfg.reduce_channels, cfg.decoder_in, cfg.flatten_width)
                == (16, 16, 32, 32, 64, 128))
        assert build_model(cfg, seed=0).param_count() == 86_288

    def test_no_lstm_ablation_is_the_deploy_variant(self, workdir, tmp_path):
        states = []
        for flags in (["--ablate", "no_lstm"], ["--variant", "deploy"]):
            ckpt = str(tmp_path / f"{flags[1]}.kfc")
            assert main(["train", "--data", workdir["data"], "--config",
                         workdir["cfg"], "--max-epochs", "1", "--out", ckpt,
                         "--quiet", *flags]) == 0
            config, state = read_checkpoint(ckpt)
            states.append((config["model"], state))
        (cfg_a, a), (cfg_b, b) = states
        assert cfg_a == cfg_b and sorted(a) == sorted(b)
        for name in a:
            assert np.array_equal(a[name], b[name]), name


class TestEval:
    def test_metrics_record(self, workdir, trained, tmp_path):
        record = str(tmp_path / "eval.json")
        assert main(["eval", "--ckpt", trained, "--data", workdir["data"],
                     "--split", "test", "--out", record]) == 0
        data = json.load(open(record))
        assert data["rmse_msw_kt"] >= data["mae_msw_kt"]
        assert data["rmse_rmw_nmi"] >= data["mae_rmw_nmi"]
        assert "baseline_mae_msw_kt" in data

    @pytest.mark.parametrize("run", [
        {"train": {"seed": "abc"}}, {"train_frac": "x"}, "notadict",
        {"train": [1]}], ids=["seed", "train_frac", "run", "train"])
    def test_malformed_run_record_fails_typed(self, workdir, trained,
                                              tmp_path, capsys, run):
        config, state = read_checkpoint(trained)
        config["run"] = run
        ckpt = tmp_path / "bad.kfc"
        ckpt.write_bytes(write_container(CKPT_MAGIC, CKPT_VERSION, config,
                                         state))
        assert main(["eval", "--ckpt", str(ckpt), "--data", workdir["data"],
                     "--out", str(tmp_path / "eval.json")]) == 1
        assert "error[CheckpointError]: checkpoint run record" in \
            capsys.readouterr().err

    def test_perfect_prediction_fixture(self):
        from stormkan.training import compute_metrics
        y = np.array([0.2, 0.8, 0.5])
        m = compute_metrics(y, y, y, y)
        assert (m.mae_msw_kt, m.rmse_msw_kt, m.mae_rmw_nmi,
                m.rmse_rmw_nmi) == (0, 0, 0, 0)


class TestExportInferBench:
    def test_export_of_full_checkpoint_fails(self, trained, tmp_path):
        rc = main(["export", "--ckpt", trained,
                   "--out", str(tmp_path / "no.kfg")])
        assert rc != 0

    def test_infer_prints_physical_ranges(self, workdir, deploy_artifacts,
                                          tmp_path, capsys):
        from stormkan.data import generate_sample
        from stormkan.tensor import write_tensor
        sample = generate_sample(900, 0, seed=2, image_hw=40)
        spath = str(tmp_path / "sample.kft")
        with open(spath, "wb") as fp:
            write_tensor(fp, sample.x_seq)
            write_tensor(fp, sample.x_img)
        assert main(["infer", "--graph", deploy_artifacts["graph"],
                     "--input", spath, "--raw"]) == 0
        out = capsys.readouterr().out
        msw = float(out.split("MSW:")[1].split("kt")[0])
        rmw = float(out.split("RMW:")[1].split("nmi")[0])
        assert 19.0 <= msw <= 170.0
        assert 5.0 <= rmw <= 200.0
        assert "raw normalized" in out

    def test_infer_rejects_trailing_bytes(self, deploy_artifacts, tmp_path,
                                          capsys):
        from stormkan.data import generate_sample
        from stormkan.tensor import write_tensor
        sample = generate_sample(900, 0, seed=2, image_hw=40)
        spath = str(tmp_path / "sample.kft")
        with open(spath, "wb") as fp:
            write_tensor(fp, sample.x_seq)
            write_tensor(fp, sample.x_img)
            fp.write(b"\x00" * 22)
        assert main(["infer", "--graph", deploy_artifacts["graph"],
                     "--input", spath]) != 0
        assert "bytes after" in capsys.readouterr().err

    def test_bench_report(self, deploy_artifacts, tmp_path, capsys):
        report = str(tmp_path / "bench.json")
        assert main(["bench", "--graph", deploy_artifacts["graph"],
                     "--runs", "3", "--warmup", "1", "--out", report]) == 0
        data = json.load(open(report))
        assert data["runs"] == 3
        assert data["param_count"] > 0
        assert data["graph_bytes"] > 0
        out = capsys.readouterr().out
        assert "p95" in out

    def test_missing_graph_nonzero_exit(self, tmp_path):
        rc = main(["bench", "--graph", str(tmp_path / "missing.kfg")])
        assert rc != 0


class TestAblateCommand:
    def test_matrix_rows(self, workdir, tmp_path, capsys):
        table = str(tmp_path / "ablate.txt")
        rc = main(["ablate", "--data", workdir["data"], "--config",
                   workdir["cfg"], "--max-epochs", "1", "--out", table])
        assert rc == 0
        lines = [l for l in open(table).read().splitlines() if l.strip()]
        # header + 7 variants + full reference row
        assert len(lines) == 9
        assert [l.split()[0] for l in lines[1:]] == [
            "all_mlp", "mlp_extract", "mlp_attention", "mlp_constraint",
            "mlp_decoder", "no_lstm", "no_seq", "full"]
        assert lines[-1].startswith("full") and "(reference)" in lines[-1]
        assert dict(ABLATE_MATRIX)["all_mlp"] == {
            "mlp_extract": True, "mlp_attention": True,
            "mlp_constraint": True, "mlp_decoder": True}
        out = capsys.readouterr().out
        assert "shared budget" in out
