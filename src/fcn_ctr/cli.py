"""Operator surface: synth | train | eval | predict | inspect | verify.

Exit codes: 0 success, 1 usage error, 2 data error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import operator
import os
import sys

from fcn_ctr import checkpoint as ckpt
from fcn_ctr import features, model, training, verification
from fcn_ctr.features import DataError, FieldSpec
from fcn_ctr.numerics import Rng, derive_seed
from fcn_ctr.runconfig import RunConfig, UsageError, load_run_config, render_run_config


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _detect_field_specs(columns, records, min_count):
    """Fields whose every non-blank value is a number (``features.parse_number``)
    are treated as numeric (and discretized); everything else is categorical."""
    specs = []
    for name in columns:
        if name != features.LABEL_COLUMN:
            numeric = all(features.parse_number(v) is not None
                          for v in map(operator.itemgetter(name), records) if v.strip())
            specs.append(FieldSpec(name, features.FIELD_KINDS[numeric], min_count))
    if not specs:
        raise DataError("no feature columns found (only the label column present)")
    return specs


def _load_labeled_csv(path, schema, require_labels=True):
    columns, records = features.read_csv(path)
    for spec in schema.fields:
        if spec.name not in columns:
            raise DataError(f"{path}: missing schema field {spec.name!r}")
    return features.encode(records, schema, require_labels=require_labels)


def cmd_synth(args) -> int:
    rng = Rng(derive_seed(args.seed, "synth"))
    records, truth = features.synth_interaction_data(
        args.fields, args.cardinality, args.order, args.rows, rng)
    columns = [f"f{j}" for j in range(args.fields)] + [features.LABEL_COLUMN]

    parts = features.split_indices(len(records), (0.8, 0.1, 0.1),
                                   Rng(derive_seed(args.seed, "split")))
    os.makedirs(args.out, exist_ok=True)
    for name, index in zip(("train.csv", "valid.csv", "test.csv"), parts):
        features.write_csv(os.path.join(args.out, name), columns, [records[i] for i in index])

    with features.atomic_open(os.path.join(args.out, "latents.txt"), "w", encoding="utf-8") as fh:
        fh.write(f"order {truth['order']}\nnoise {truth['noise']}\n")
        for fname, mapping in truth["latents"].items():
            for token, value in mapping.items():
                fh.write(f"{fname} {token} {value:+d}\n")
    print(f"wrote {'/'.join(str(len(index)) for index in parts)} rows to {args.out}")
    return 0


def cmd_train(args) -> int:
    config = load_run_config(args.config) if args.config else RunConfig()
    print("# effective config")
    print(render_run_config(config))

    columns, train_records = features.read_csv(args.train)
    if features.LABEL_COLUMN not in columns:
        raise DataError(f"{args.train}: no label column")
    specs = _detect_field_specs(columns, train_records, config.min_count)
    schema = features.build_schema(train_records, specs, config.discretize)
    train_set = features.encode(train_records, schema)
    del train_records  # training holds no raw record
    valid_set = _load_labeled_csv(args.valid, schema)

    params, _reports = training.train(train_set, valid_set,
                                      config.model_config(), config.train_config())
    ckpt.save_checkpoint(args.out_checkpoint, params, config.model_config(), schema)
    print(f"checkpoint written to {args.out_checkpoint}")
    return 0


def cmd_eval(args) -> int:
    params, config, schema = ckpt.load_checkpoint(args.checkpoint)
    batch = _load_labeled_csv(args.data, schema)
    result = training.evaluate(batch, params, config)
    if result.auc is None:
        print(f"auc=undefined logloss={result.logloss:.6f} n={result.n}")
        klass = "positive" if result.positives == result.n else "negative"
        raise DataError(
            f"AUC undefined: every label in {args.data} is {klass}"
        )
    print(f"auc={result.auc:.6f} logloss={result.logloss:.6f} n={result.n}")
    return 0


def cmd_predict(args) -> int:
    params, config, schema = ckpt.load_checkpoint(args.checkpoint)
    batch = _load_labeled_csv(args.input, schema, require_labels=False)
    y, y_deep, y_shallow = training.predict_scores(batch, params, config)
    with features.atomic_open(args.output, "w", encoding="utf-8", newline="") as fh:
        features.write_float_table(fh, ["y_hat", "y_hat_deep", "y_hat_shallow"],
                                   zip(y, y_deep, y_shallow))
    print(f"wrote {batch.n} predictions to {args.output}")
    return 0


def cmd_inspect(args) -> int:
    params, config, schema = ckpt.load_checkpoint(args.checkpoint)
    batch = _load_labeled_csv(args.data, schema, require_labels=False)
    if batch.n == 0:
        raise DataError(f"{args.data}: no data rows; field importance needs at least one")
    strengths, sparsity, pair = model.field_importance(
        params, config, batch, args.layer, args.branch)
    names = schema.field_names
    os.makedirs(args.out, exist_ok=True)

    # all three are written and flushed before any replaces its file: the
    # set on disk is the old one or the new one, never a mix of the two
    with contextlib.ExitStack() as stack:
        for filename, header, table in (("cross_strength.csv", ["strength"], strengths[:, None]),
                                        ("mask_sparsity.csv", ["sparsity"], sparsity[:, None]),
                                        ("pair_importance.csv", names, pair)):
            fh = stack.enter_context(features.atomic_open(
                os.path.join(args.out, filename), "w", encoding="utf-8", newline=""))
            features.write_float_table(fh, ["field", *header], table, names)
            fh.flush()
    print(f"wrote field importance for {args.branch} layer {args.layer} to {args.out}")
    return 0


def cmd_verify(args) -> int:
    names = list(verification.SUITES) if args.suite == "all" else [args.suite]
    passed, text = verification.run_suites(names)
    print(text)
    print("verification " + ("PASSED" if passed else "FAILED"))
    return 0 if passed else 3


def build_parser() -> _Parser:
    parser = _Parser(prog="fcn-ctr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic interaction workload")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--fields", type=int, default=8)
    p.add_argument("--cardinality", type=int, default=10)
    p.add_argument("--order", type=int, default=4)
    p.add_argument("--rows", type=int, default=50000)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    p.add_argument("--config", help="key = value config file (defaults apply)")
    p.add_argument("--train", required=True, help="training CSV")
    p.add_argument("--valid", required=True, help="validation CSV")
    p.add_argument("--out-checkpoint", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on labeled data")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="write fused and branch predictions")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("inspect", help="export field-wise importance views")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--layer", type=int, default=0)
    p.add_argument("--branch", choices=model.BRANCHES, default="ecn")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("verify", help="run the verification oracles")
    p.add_argument("--suite", choices=sorted(verification.SUITES) + ["all"],
                   default="all")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, ckpt.CheckpointError, ValueError, FloatingPointError,
            OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
