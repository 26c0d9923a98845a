"""End-to-end CLI behavior: subcommands, exit codes, file outputs."""

import hashlib

import pytest

import fcn_ctr.training as training_mod
from fcn_ctr.checkpoint import load_checkpoint, save_checkpoint
from fcn_ctr.cli import main
from fcn_ctr.features import read_csv
from fcn_ctr.runconfig import RunConfig, parse_run_config, render_run_config


def sha(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small synthetic workload, a config, and a trained checkpoint."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert run("synth", "--out", str(data), "--fields", "3", "--cardinality", "4",
               "--order", "2", "--rows", "600", "--seed", "11") == 0
    config = root / "run.cfg"
    config.write_text(
        "# desk-scale run\n"
        "d = 4\nlcn_depth = 1\necn_depth = 2\nmax_epochs = 3\n"
        "batch_size = 64\nlr = 0.003\nseed = 5\n"
    )
    ckpt = root / "model.ckpt"
    assert run("train", "--config", str(config), "--train", str(data / "train.csv"),
               "--valid", str(data / "valid.csv"), "--out-checkpoint", str(ckpt)) == 0
    return {"root": root, "data": data, "config": config, "ckpt": ckpt}


class TestSynth:
    def test_row_counts_and_sidecar(self, tmp_path):
        out = tmp_path / "synth"
        assert run("synth", "--out", str(out), "--fields", "3", "--cardinality", "4",
                   "--order", "2", "--rows", "200", "--seed", "3") == 0
        counts = []
        for name in ("train.csv", "valid.csv", "test.csv"):
            _, records = read_csv(out / name)
            counts.append(len(records))
        assert sum(counts) == 200
        assert counts == [160, 20, 20]
        assert (out / "latents.txt").exists()

    def test_same_seed_identical_files(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run("synth", "--out", str(out), "--fields", "3", "--cardinality", "4",
                "--order", "2", "--rows", "150", "--seed", "21")
        for name in ("train.csv", "valid.csv", "test.csv", "latents.txt"):
            assert sha(a / name) == sha(b / name)


class TestTrain:
    def test_effective_config_echo_reparses(self, workspace, capsys):
        # defaults fill in and the echo is itself a valid config
        run("train", "--config", str(workspace["config"]),
            "--train", str(workspace["data"] / "train.csv"),
            "--valid", str(workspace["data"] / "valid.csv"),
            "--out-checkpoint", str(workspace["root"] / "again.ckpt"))
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if "=" in l and not l.startswith(("#", "epoch"))]
        echoed = parse_run_config("\n".join(lines))
        assert echoed.lr == 0.003  # from the file
        assert echoed.patience == 2  # documented default filled in
        assert render_run_config(echoed) == "\n".join(lines)

    def test_unknown_config_key_lists_valid_keys(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("learning_rate = 0.1\n")
        code = run("train", "--config", str(bad), "--train", "x", "--valid", "y",
                   "--out-checkpoint", "z")
        assert code == 1
        err = capsys.readouterr().err
        assert "unknown key" in err and "lcn_depth" in err

    def test_retrain_same_seed_bitwise_identical_checkpoint(self, workspace):
        again = workspace["root"] / "retrain.ckpt"
        run("train", "--config", str(workspace["config"]),
            "--train", str(workspace["data"] / "train.csv"),
            "--valid", str(workspace["data"] / "valid.csv"),
            "--out-checkpoint", str(again))
        assert sha(again) == sha(workspace["ckpt"])

    def test_ablation_configs_run(self, workspace, tmp_path):
        for extra in ("loss = plain\n", "mask = no_ln\n"):
            cfg = tmp_path / "ablate.cfg"
            cfg.write_text("d = 4\nmax_epochs = 1\nbatch_size = 128\n" + extra)
            out = tmp_path / "ablate.ckpt"
            assert run("train", "--config", str(cfg),
                       "--train", str(workspace["data"] / "train.csv"),
                       "--valid", str(workspace["data"] / "valid.csv"),
                       "--out-checkpoint", str(out)) == 0


    def test_non_finite_gradient_is_data_error(self, workspace, tmp_path, monkeypatch, capsys):
        def diverged(*args, **kwargs):
            raise FloatingPointError("non-finite gradient for tensor heads.w_deep")

        monkeypatch.setattr(training_mod, "adam_step", diverged)
        out = tmp_path / "diverged.ckpt"
        code = run("train", "--config", str(workspace["config"]),
                   "--train", str(workspace["data"] / "train.csv"),
                   "--valid", str(workspace["data"] / "valid.csv"),
                   "--out-checkpoint", str(out))
        assert code == 2
        assert "non-finite gradient" in capsys.readouterr().err
        assert not out.exists()


class TestEval:
    def test_prints_metrics(self, workspace, capsys):
        assert run("eval", "--checkpoint", str(workspace["ckpt"]),
                   "--data", str(workspace["data"] / "test.csv")) == 0
        out = capsys.readouterr().out
        assert "auc=" in out and "logloss=" in out and "n=60" in out

    def test_corrupted_checkpoint_is_data_error(self, workspace, tmp_path, capsys):
        blob = bytearray((workspace["ckpt"]).read_bytes())
        blob[-30] ^= 0xFF
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(blob))
        code = run("eval", "--checkpoint", str(bad),
                   "--data", str(workspace["data"] / "test.csv"))
        assert code == 2
        assert "checksum" in capsys.readouterr().err.lower()

    def test_single_class_file_is_explicit_error(self, workspace, tmp_path, capsys):
        _, records = read_csv(workspace["data"] / "test.csv")
        for r in records:
            r["label"] = "1"
        from fcn_ctr.features import write_csv
        path = tmp_path / "pos.csv"
        write_csv(path, list(records[0].keys()), records)
        code = run("eval", "--checkpoint", str(workspace["ckpt"]), "--data", str(path))
        captured = capsys.readouterr()
        assert code == 2
        assert "positive" in captured.err
        assert "logloss=" in captured.out  # still reported

    def test_missing_column_names_field(self, workspace, tmp_path, capsys):
        _, records = read_csv(workspace["data"] / "test.csv")
        for r in records:
            r.pop("f1")
        from fcn_ctr.features import write_csv
        path = tmp_path / "short.csv"
        write_csv(path, [k for k in records[0]], records)
        code = run("eval", "--checkpoint", str(workspace["ckpt"]), "--data", str(path))
        assert code == 2
        assert "f1" in capsys.readouterr().err


class TestPredict:
    def test_row_count_and_fusion_identity(self, workspace, tmp_path):
        out = tmp_path / "preds.csv"
        assert run("predict", "--checkpoint", str(workspace["ckpt"]),
                   "--input", str(workspace["data"] / "test.csv"),
                   "--output", str(out)) == 0
        _, rows = read_csv(out)
        _, inputs = read_csv(workspace["data"] / "test.csv")
        assert len(rows) == len(inputs)
        for row in rows:
            fused = float(row["y_hat"])
            mean = 0.5 * (float(row["y_hat_deep"]) + float(row["y_hat_shallow"]))
            assert abs(fused - mean) <= 1e-12

    def test_rerun_bitwise_stable(self, workspace, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            run("predict", "--checkpoint", str(workspace["ckpt"]),
                "--input", str(workspace["data"] / "test.csv"),
                "--output", str(out))
        assert sha(a) == sha(b)

    def test_label_column_optional(self, workspace, tmp_path):
        _, records = read_csv(workspace["data"] / "test.csv")
        for r in records:
            r.pop("label")
        from fcn_ctr.features import write_csv
        unlabeled = tmp_path / "unlabeled.csv"
        write_csv(unlabeled, [k for k in records[0]], records)
        out = tmp_path / "preds.csv"
        assert run("predict", "--checkpoint", str(workspace["ckpt"]),
                   "--input", str(unlabeled), "--output", str(out)) == 0


class TestInspect:
    def test_matrix_shapes(self, workspace, tmp_path):
        out = tmp_path / "views"
        assert run("inspect", "--checkpoint", str(workspace["ckpt"]),
                   "--data", str(workspace["data"] / "valid.csv"),
                   "--layer", "0", "--branch", "ecn", "--out", str(out)) == 0
        _, pair = read_csv(out / "pair_importance.csv")
        assert len(pair) == 3 and len(pair[0]) == 4  # f rows, field + f columns
        _, strength = read_csv(out / "cross_strength.csv")
        assert [r["field"] for r in strength] == ["f0", "f1", "f2"]

    def test_invalid_layer_is_usage_style_error(self, workspace, tmp_path):
        code = run("inspect", "--checkpoint", str(workspace["ckpt"]),
                   "--data", str(workspace["data"] / "valid.csv"),
                   "--layer", "7", "--branch", "lcn", "--out", str(tmp_path / "v"))
        assert code == 2

    def test_zero_block_fixture_zeroes_pair_entry(self, tmp_path):
        # craft a checkpoint whose first ecn layer ignores field 1 when
        # producing field 0 cross rows
        from fcn_ctr.model import ModelConfig, init_model_params
        from fcn_ctr.features import FeatureSchema, FieldSpec, OOV_TOKEN
        from fcn_ctr.numerics import derive_seed
        schema = FeatureSchema(
            [FieldSpec("f0"), FieldSpec("f1")],
            [{OOV_TOKEN: 0, "a": 1}, {OOV_TOKEN: 0, "b": 1}],
            [2, 2], "lnsq")
        config = ModelConfig(d=2, lcn_depth=0, ecn_depth=1, dropout_rate=0.0, seed=1)
        params = init_model_params(config, schema.sizes, derive_seed(1, "init"))
        w = params.ecn_layers[0].w  # (2, 4): field 1 input columns are 1, 3
        w[...] = 1.0
        w[0, 1] = 0.0
        w[0, 3] = 0.0
        ckpt = tmp_path / "fixture.ckpt"
        save_checkpoint(ckpt, params, config, schema)
        data = tmp_path / "rows.csv"
        data.write_text("f0,f1,label\na,b,1\na,b,0\n")
        out = tmp_path / "views"
        assert run("inspect", "--checkpoint", str(ckpt), "--data", str(data),
                   "--layer", "0", "--branch", "ecn", "--out", str(out)) == 0
        _, pair = read_csv(out / "pair_importance.csv")
        assert float(pair[0]["f1"]) == 0.0
        assert float(pair[0]["f0"]) > 0.0


class TestVerifySubcommand:
    def test_mask_suite_exits_zero(self, capsys):
        assert run("verify", "--suite", "mask") == 0
        assert "PASSED" in capsys.readouterr().out

    def test_injected_fault_fails_grad_suite(self, monkeypatch, capsys):
        import fcn_ctr.model as model_mod
        import fcn_ctr.verification as verification_mod
        monkeypatch.setattr(model_mod, "_inject_grad_sign_flip", True)
        # thin the grid so the corrupted audit stays quick
        monkeypatch.setattr(verification_mod, "default_grad_grid",
                            lambda: [(2, 2, 1, 1, "paper")])
        assert run("verify", "--suite", "grad") == 3
        assert "FAILED" in capsys.readouterr().out


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert run("frobnicate") == 1

    def test_missing_required_flag(self):
        assert run("eval", "--checkpoint", "x.ckpt") == 1

    def test_missing_checkpoint_file_is_data_error(self, tmp_path):
        assert run("eval", "--checkpoint", str(tmp_path / "none.ckpt"),
                   "--data", str(tmp_path / "none.csv")) == 2


class TestRunConfig:
    def test_defaults_round_trip(self):
        config = RunConfig()
        assert parse_run_config(render_run_config(config)) == config

    def test_comments_and_blanks(self):
        config = parse_run_config("# hi\n\nd = 8  # inline\n")
        assert config.d == 8

    def test_duplicate_key_rejected(self):
        with pytest.raises(Exception, match="duplicate"):
            parse_run_config("d = 4\nd = 8\n")

    def test_enum_values_checked(self):
        with pytest.raises(Exception, match="mask"):
            parse_run_config("mask = sometimes\n")

    def test_numeric_fields_discretized_in_cli_path(self, tmp_path, capsys):
        # a column of integers is auto-detected as numeric and bucketed
        train = tmp_path / "train.csv"
        body = ["num,cat,label"]
        for i in range(40):
            body.append(f"{100 + i},{'ab'[i % 2]},{i % 2}")
        train.write_text("\n".join(body) + "\n")
        valid = tmp_path / "valid.csv"
        valid.write_text("num,cat,label\n100,a,1\n3,b,0\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text("d = 2\nmax_epochs = 1\nbatch_size = 16\n")
        ckpt = tmp_path / "m.ckpt"
        assert run("train", "--config", str(cfg), "--train", str(train),
                   "--valid", str(valid), "--out-checkpoint", str(ckpt)) == 0
        _, _, schema = load_checkpoint(ckpt)
        kinds = {f.name: f.kind for f in schema.fields}
        assert kinds == {"num": "numeric", "cat": "categorical"}
        # bucket tokens, not raw values, are in the vocabulary
        assert "21" in schema.vocabs[0] or "22" in schema.vocabs[0]
        assert "100" not in schema.vocabs[0]
