"""End-to-end CLI behavior: subcommands, exit codes, file outputs."""

import dataclasses
import gc
import hashlib
import inspect
import os
import re
import typing
import warnings
import weakref
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import fcn_ctr
import fcn_ctr.features as features_mod
import fcn_ctr.training as training_mod
from fcn_ctr.checkpoint import load_checkpoint, save_checkpoint
from fcn_ctr.cli import main
from fcn_ctr.features import FieldSpec, build_schema, read_csv
from fcn_ctr.model import ModelConfig
from fcn_ctr.runconfig import RunConfig, UsageError, parse_run_config, render_run_config
from fcn_ctr.training import TrainConfig

GOLDEN_DIR = Path(__file__).parent / "golden"


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


SYNTH_DIGESTS = {
    "train.csv": "9f78f8b6f81acbe3a86f4bad82b60648afbda97dff3a8e8f3dfb1d4483203859",
    "valid.csv": "02b331fd9c028dce6ff615a82a7621ce1b313b05d35a057eeeb4aa57ac4b1bc5",
    "test.csv": "41be9c0bef44047afd78405e341df10a1d0ffb8a039f2307d6d4e5158565178d",
    "latents.txt": "c87a8e70a60c9b1d242d9a6f8737e68e629d6d4a8e885579b7a6831f28114b9e",
}


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

    def test_output_bytes_pinned(self, tmp_path):
        # the row cut, the CSV writer and the latents writer, as the bytes they wrote
        out = tmp_path / "synth"
        assert run("synth", "--out", str(out), "--fields", "3", "--cardinality", "4",
                   "--order", "2", "--rows", "200", "--seed", "3") == 0
        assert {name: sha(out / name) for name in SYNTH_DIGESTS} == SYNTH_DIGESTS

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

    def test_training_holds_no_raw_record(self, workspace, monkeypatch, tmp_path):
        class Records(list):
            """A list a weakref can follow."""

        refs, read_csv = [], features_mod.read_csv

        def tracked_read_csv(path):
            columns, records = read_csv(path)
            records = Records(records)
            refs.append(weakref.ref(records))
            return columns, records

        alive, train = [], training_mod.train

        def checked_train(*args, **kwargs):
            gc.collect()
            alive.extend(ref() is not None for ref in refs)
            return train(*args, **kwargs)

        monkeypatch.setattr(features_mod, "read_csv", tracked_read_csv)
        monkeypatch.setattr(training_mod, "train", checked_train)
        assert run("train", "--config", str(workspace["config"]),
                   "--train", str(workspace["data"] / "train.csv"),
                   "--valid", str(workspace["data"] / "valid.csv"),
                   "--out-checkpoint", str(tmp_path / "model.ckpt")) == 0
        assert alive == [False, False]  # the train and the valid records

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

    def test_header_only_file_writes_the_header_alone(self, tmp_path, capsys):
        data = tmp_path / "empty.csv"
        data.write_text("f0,f1,f2,label\n")
        out = tmp_path / "preds.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run("predict", "--checkpoint", str(GOLDEN_DIR / "model.ckpt"),
                       "--input", str(data), "--output", str(out)) == 0
        assert out.read_text() == "y_hat,y_hat_deep,y_hat_shallow\n"
        assert capsys.readouterr().out == f"wrote 0 predictions to {out}\n"


class TestNonFiniteParameters:
    def test_float32_overflow_in_training_is_data_error(self, tmp_path, capsys):
        # lr = 1e40 is past float32's range: the run trains in float32, so its first
        # update overflows the weights, and the next step's gradient is not finite
        data = tmp_path / "data"
        assert run("synth", "--out", str(data), "--fields", "3", "--cardinality", "4",
                   "--order", "2", "--rows", "600", "--seed", "3") == 0
        config = tmp_path / "diverge.cfg"
        config.write_text("d = 4\nlcn_depth = 1\necn_depth = 1\nmax_epochs = 2\n"
                          "batch_size = 64\nlr = 1e40\n")
        out = tmp_path / "diverged.ckpt"
        code = run("train", "--config", str(config), "--train", str(data / "train.csv"),
                   "--valid", str(data / "valid.csv"), "--out-checkpoint", str(out))
        assert code == 2
        assert "error: non-finite gradient for tensor" in capsys.readouterr().err
        assert not out.exists()

    @pytest.fixture
    def inf_checkpoint(self, tmp_path):
        # the golden checkpoint with its last payload float, b_shallow, set to
        # inf and the CRC recomputed, so only the value itself is wrong
        data = bytearray((GOLDEN_DIR / "model.ckpt").read_bytes())
        data[-8:-4] = struct.pack("<f", float("inf"))
        data[-4:] = struct.pack("<I", zlib.crc32(bytes(data[:-4])) & 0xFFFFFFFF)
        path = tmp_path / "inf.ckpt"
        path.write_bytes(bytes(data))
        return path

    def test_eval_refuses_non_finite_checkpoint(self, inf_checkpoint, capsys):
        assert run("eval", "--checkpoint", str(inf_checkpoint),
                   "--data", str(GOLDEN_DIR / "inputs.csv")) == 2
        captured = capsys.readouterr()
        assert "heads.b_shallow" in captured.err
        assert "auc=" not in captured.out

    def test_predict_refuses_non_finite_checkpoint(self, inf_checkpoint, tmp_path, capsys):
        out = tmp_path / "preds.csv"
        assert run("predict", "--checkpoint", str(inf_checkpoint),
                   "--input", str(GOLDEN_DIR / "inputs.csv"), "--output", str(out)) == 2
        assert "heads.b_shallow" in capsys.readouterr().err
        assert not out.exists()


def test_failed_predict_write_keeps_the_old_file(tmp_path, failing_writes, capsys):
    out = tmp_path / "preds.csv"
    out.write_text("the predictions from before\n")
    assert run("predict", "--checkpoint", str(GOLDEN_DIR / "model.ckpt"),
               "--input", str(GOLDEN_DIR / "inputs.csv"), "--output", str(out)) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert out.read_text() == "the predictions from before\n"
    assert os.listdir(tmp_path) == ["preds.csv"]


def test_failed_synth_write_keeps_the_old_file(tmp_path, failing_writes, capsys):
    out = tmp_path / "synth"
    out.mkdir()
    (out / "train.csv").write_text("the rows from before\n")
    assert run("synth", "--out", str(out), "--fields", "3", "--cardinality", "4",
               "--order", "2", "--rows", "200", "--seed", "3") == 2
    assert "No space left on device" in capsys.readouterr().err
    assert (out / "train.csv").read_text() == "the rows from before\n"
    assert os.listdir(out) == ["train.csv"]


def test_failed_inspect_write_keeps_the_old_files(tmp_path, failing_writes, capsys):
    out = tmp_path / "views"
    out.mkdir()
    names = ["cross_strength.csv", "mask_sparsity.csv", "pair_importance.csv"]
    for name in names:
        (out / name).write_text(f"the {name} from before\n")
    assert run("inspect", "--checkpoint", str(GOLDEN_DIR / "model.ckpt"),
               "--data", str(GOLDEN_DIR / "inputs.csv"), "--out", str(out)) == 2
    assert "No space left on device" in capsys.readouterr().err
    for name in names:
        assert (out / name).read_text() == f"the {name} from before\n"
    assert sorted(os.listdir(out)) == names


def test_inspect_replaces_no_file_when_the_second_write_fails(tmp_path, failing_second_write,
                                                              capsys):
    # cross_strength.csv is written whole before mask_sparsity.csv fails: it
    # must not replace its old copy, or the set would mix two runs
    out = tmp_path / "views"
    out.mkdir()
    names = ["cross_strength.csv", "mask_sparsity.csv", "pair_importance.csv"]
    for name in names:
        (out / name).write_text(f"the {name} from before\n")
    assert run("inspect", "--checkpoint", str(GOLDEN_DIR / "model.ckpt"),
               "--data", str(GOLDEN_DIR / "inputs.csv"), "--out", str(out)) == 2
    assert "No space left on device" in capsys.readouterr().err
    for name in names:
        assert (out / name).read_text() == f"the {name} from before\n"
    assert sorted(os.listdir(out)) == names


class TestNonFiniteScores:
    @pytest.fixture
    def overflow_checkpoint(self, tmp_path):
        # every value stays finite in float32, but the ecn branch overflows
        # float64 on the golden inputs, so its scores are nan
        params, config, schema = load_checkpoint(GOLDEN_DIR / "model.ckpt")
        for layer in params.ecn_layers:
            layer.w *= 1e37
            layer.gain *= 1e37
        for table in params.embeddings:
            table *= 1e37
        path = tmp_path / "overflow.ckpt"
        save_checkpoint(path, params, config, schema)
        return path

    def test_eval_refuses_non_finite_scores(self, overflow_checkpoint, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run("eval", "--checkpoint", str(overflow_checkpoint),
                       "--data", str(GOLDEN_DIR / "inputs.csv")) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: non-finite score for row 5\n"
        assert "auc=" not in captured.out

    def test_predict_refuses_non_finite_scores(self, overflow_checkpoint, tmp_path, capsys):
        out = tmp_path / "preds.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run("predict", "--checkpoint", str(overflow_checkpoint),
                       "--input", str(GOLDEN_DIR / "inputs.csv"), "--output", str(out)) == 2
        assert capsys.readouterr().err == "error: non-finite score for row 5\n"
        assert not out.exists()


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

    def test_header_only_file_is_data_error(self, tmp_path, capsys):
        # no row gives no mean: exit 2, no file, no nan and no numpy warning
        data = tmp_path / "empty.csv"
        data.write_text("f0,f1,f2,label\n")
        out = tmp_path / "views"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run("inspect", "--checkpoint", str(GOLDEN_DIR / "model.ckpt"),
                       "--data", str(data), "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: {data}: no data rows; "
                                "field importance needs at least one\n")
        assert captured.out == ""
        assert not out.exists()

    def test_zero_block_fixture_zeroes_pair_entry(self, tmp_path):
        # craft a checkpoint whose first ecn layer ignores field 1 when
        # producing field 0 cross rows
        from fcn_ctr.model import ModelConfig, init_model_params
        from fcn_ctr.features import FeatureSchema, FieldSpec, OOV_TOKEN
        from fcn_ctr.numerics import derive_seed
        schema = FeatureSchema(
            [FieldSpec("f0"), FieldSpec("f1")],
            [{OOV_TOKEN: 0, "a": 1}, {OOV_TOKEN: 0, "b": 1}], "lnsq")
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

    def test_auc_suite_exits_zero(self, capsys):
        assert run("verify", "--suite", "auc") == 0
        out = capsys.readouterr().out
        assert "== suite auc: PASS" in out and "PASSED" in out

    def test_injected_fault_fails_grad_suite(self, monkeypatch, capsys, flip_bias_gradient):
        import fcn_ctr.verification as verification_mod
        flip_bias_gradient()
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


# (file contents by flag, exit code, the one stderr line); {train}, {valid} and
# {config} in the line stand for the files' paths
TYPED_EXITS = {
    "label_only": ({"train": b"label\n1\n0\n"}, 2,
                   "error: no feature columns found (only the label column present)"),
    "no_label": ({"train": b"a,b\nx,y\n"}, 2, "error: {train}: no label column"),
    "header_only": ({"train": b"a,label\n"}, 2, "error: build_schema: no records"),
    "valid_without_label": ({"valid": b"a\nx\n"}, 2,
                            "error: row 2: missing label column 'label'"),
    "missing_config": ({"config": None}, 1,
                       "usage error: cannot read config file: [Errno 2] "
                       "No such file or directory: '{config}'"),
    "config_not_utf8": ({"config": b"d = 4\nlr = 0.0\xff1\n"}, 1,
                        "usage error: {config}:2: not UTF-8 text (invalid start byte)"),
    "csv_not_utf8": ({"train": b"a,label\nx\xff,1\ny,0\n"}, 2,
                     "error: {train}: not UTF-8 text (invalid start byte)"),
}


@pytest.mark.parametrize("case", TYPED_EXITS)
def test_train_input_fault_is_one_typed_line(case, tmp_path, capsys):
    # each fault of train's inputs ends in its exit code and one line naming it
    files, code, line = TYPED_EXITS[case]
    paths = {name: tmp_path / f"{name}.{'cfg' if name == 'config' else 'csv'}"
             for name in ("train", "valid", "config")}
    contents = {"train": b"a,label\nx,1\ny,0\n", "valid": b"a,label\nx,1\n",
                "config": b"d = 2\nmax_epochs = 1\n", **files}
    for name, blob in contents.items():
        if blob is not None:
            paths[name].write_bytes(blob)
    out = tmp_path / "m.ckpt"
    assert run("train", "--config", str(paths["config"]), "--train", str(paths["train"]),
               "--valid", str(paths["valid"]), "--out-checkpoint", str(out)) == code
    assert capsys.readouterr().err == line.format(**paths) + "\n"
    assert not out.exists()


@pytest.mark.skipif(sys.platform == "win32", reason="needs the resource module")
@pytest.mark.parametrize("key, value", [("d", 200000), ("lcn_depth", 2000000000)])
def test_model_too_large_for_memory_is_data_error(workspace, tmp_path, key, value):
    # train runs in a child process that limits its own address space to 3 GiB
    # first, so a model made piece by piece until memory runs out cannot
    # exhaust the machine
    config = tmp_path / "big.cfg"
    config.write_text(f"{key} = {value}\nmax_epochs = 1\n")
    child = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30)); "
             "from fcn_ctr.cli import main; sys.exit(main(sys.argv[1:]))")
    src = str(Path(fcn_ctr.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", child, "train", "--config", str(config),
         "--train", str(workspace["data"] / "train.csv"),
         "--valid", str(workspace["data"] / "valid.csv"),
         "--out-checkpoint", str(tmp_path / "big.ckpt")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


def test_mutated_inputs_end_in_a_typed_exit(tmp_path, capsys):
    # a fixed-seed mutation pass over eval's and predict's CSVs and train's run
    # configs: byte flips, cuts, and inserted quotes, NUL, \xff, nan and 1e400.
    # Every case ends in exit 0, 1 or 2 and raises nothing, and no exit 0 prints
    # a NaN, to the terminal or into predict's output
    rows = ["num,cat,label"] + [f"{100 + 7 * i},{'abc'[i % 3]},{i % 2}" for i in range(40)]
    clean_csv = ("\n".join(rows) + "\n").encode()
    clean_config = b"d = 2\nlcn_depth = 1\necn_depth = 1\nmax_epochs = 1\nbatch_size = 16\n"
    train, config, data = tmp_path / "train.csv", tmp_path / "run.cfg", tmp_path / "data.csv"
    ckpt, out = tmp_path / "m.ckpt", tmp_path / "pred.csv"
    train.write_bytes(clean_csv)
    config.write_bytes(clean_config)
    fit = ["train", "--config", str(config), "--train", str(train), "--valid", str(train),
           "--out-checkpoint"]
    assert run(*fit, str(ckpt)) == 0
    argv = {"eval": ["eval", "--checkpoint", str(ckpt), "--data", str(data)],
            "predict": ["predict", "--checkpoint", str(ckpt), "--input", str(data),
                        "--output", str(out)],
            "train": fit + [str(tmp_path / "mutant.ckpt")]}
    inserts = (b'"', b"\x00", b"\xff", b"nan", b"1e400")
    rng = np.random.default_rng(19)
    codes = []
    for command in ["eval", "predict"] * 150 + ["train"] * 50:
        path, blob = (config, bytearray(clean_config)) if command == "train" else (
            data, bytearray(clean_csv))
        at, kind = int(rng.integers(len(blob))), int(rng.integers(3))
        if kind == 0:
            blob[at] ^= 1 << int(rng.integers(8))
        elif kind == 1:
            del blob[at:]
        else:
            blob[at:at] = inserts[int(rng.integers(len(inserts)))]
        path.write_bytes(blob)
        out.unlink(missing_ok=True)
        code = main(argv[command])
        printed = capsys.readouterr().out + (out.read_text() if out.exists() else "")
        assert code in (0, 1, 2), (command, bytes(blob))
        assert code or not re.search(r"\bnan\b", printed, re.I), (command, bytes(blob), printed)
        codes.append(code)
    assert set(codes) == {0, 1, 2}, codes


class TestRunConfig:
    def test_defaults_round_trip(self):
        config = RunConfig()
        assert parse_run_config(render_run_config(config)) == config

    def test_defaults_and_types_are_their_owners(self):
        # each key is a field of ModelConfig, TrainConfig or FieldSpec, or
        # build_schema's discretize; three are shorter names of their field
        renamed = {"mask": "mask_mode", "dropout": "dropout_rate", "lr": "learning_rate"}
        owned = {}
        for owner in (ModelConfig, TrainConfig, FieldSpec):
            hints = typing.get_type_hints(owner)
            owned.update({f.name: (hints[f.name], f.default) for f in dataclasses.fields(owner)})
        owned["discretize"] = (str, inspect.signature(build_schema).parameters["discretize"].default)
        hints = typing.get_type_hints(RunConfig)
        for f in dataclasses.fields(RunConfig):
            assert (hints[f.name], f.default) == owned[renamed.get(f.name, f.name)], f.name
        assert RunConfig().model_config() == ModelConfig()
        assert RunConfig().train_config() == TrainConfig()
        # and the converse: no ModelConfig or TrainConfig field is out of a key's reach
        keyed = {renamed.get(f.name, f.name) for f in dataclasses.fields(RunConfig)}
        for owner in (ModelConfig, TrainConfig):
            for f in dataclasses.fields(owner):
                assert f.name in keyed, f"{owner.__name__}.{f.name}"

    @pytest.mark.parametrize("key, field", [("lr", "learning_rate"), ("ln_epsilon", "ln_epsilon")])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_values_rejected(self, key, field, value):
        with pytest.raises(UsageError, match=rf"{field} must be finite and > 0, got {value}"):
            parse_run_config(f"{key} = {value}\n")

    @pytest.mark.parametrize("key, value, why", [
        ("lr", "nan", "learning_rate must be finite and > 0, got nan"),
        ("dropout", "2", r"dropout_rate must be in \[0, 1\), got 2.0"),
        ("d", "3", "embedding dim must be even and >= 2, got 3"),
        ("patience", "0", "patience must be >= 1, got 0"),
        ("min_count", "0", "min_count must be >= 1, got 0"),
    ])
    def test_bad_value_names_key_and_line(self, key, value, why):
        with pytest.raises(UsageError, match=rf"^run.cfg:3: bad value for {key}: {why}$"):
            parse_run_config(f"# defaults\nseed = 4\n{key} = {value}\n", source="run.cfg")

    def test_non_finite_lr_is_usage_error(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text("lr = nan\n")
        assert run("train", "--config", str(cfg),
                   "--train", str(workspace["data"] / "train.csv"),
                   "--valid", str(workspace["data"] / "valid.csv"),
                   "--out-checkpoint", str(tmp_path / "never.ckpt")) == 1
        assert "learning_rate must be finite" in capsys.readouterr().err
        assert not (tmp_path / "never.ckpt").exists()

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
