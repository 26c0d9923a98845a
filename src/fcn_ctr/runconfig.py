"""Flat key=value run configuration shared by the CLI subcommands.

Format: UTF-8 lines of ``key = value``, ``#`` starts a comment, blank lines
ignored. Unknown keys are fatal. Every key has a documented default, and the
effective configuration echoes back in the same format so a run can be
reproduced from its own log.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from fcn_ctr.features import DISCRETIZE_MODES, FeatureSchema, FieldSpec
from fcn_ctr.model import MASK_MODES, ModelConfig
from fcn_ctr.training import LOSS_MODES, TrainConfig


class UsageError(Exception):
    """Bad flags or configuration; maps to exit code 1."""


@dataclass
class RunConfig:
    """Every key with its owner's default."""

    d: int = ModelConfig.d
    lcn_depth: int = ModelConfig.lcn_depth
    ecn_depth: int = ModelConfig.ecn_depth
    mask: str = ModelConfig.mask_mode
    dropout: float = ModelConfig.dropout_rate
    ln_epsilon: float = ModelConfig.ln_epsilon
    loss: str = TrainConfig.loss
    lr: float = TrainConfig.learning_rate
    batch_size: int = TrainConfig.batch_size
    max_epochs: int = TrainConfig.max_epochs
    patience: int = TrainConfig.patience
    seed: int = ModelConfig.seed
    discretize: str = FeatureSchema.discretize
    min_count: int = FieldSpec.min_count

    def model_config(self) -> ModelConfig:
        return ModelConfig(d=self.d, lcn_depth=self.lcn_depth,
                           ecn_depth=self.ecn_depth, mask_mode=self.mask,
                           dropout_rate=self.dropout, ln_epsilon=self.ln_epsilon,
                           seed=self.seed)

    def train_config(self) -> TrainConfig:
        return TrainConfig(learning_rate=self.lr, batch_size=self.batch_size,
                           max_epochs=self.max_epochs, patience=self.patience,
                           loss=self.loss)


_KEYS = tuple(f.name for f in fields(RunConfig))
_TYPES = {f.name: f.type for f in fields(RunConfig)}  # "int", "float" or "str"
_ENUM_KEYS = {"mask": MASK_MODES, "loss": LOSS_MODES, "discretize": DISCRETIZE_MODES}


def parse_run_config(text: str, source: str = "<config>") -> RunConfig:
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise UsageError(
                f"{source}:{lineno}: unknown key {key!r}; valid keys: {', '.join(_KEYS)}"
            )
        if key in values:
            raise UsageError(f"{source}:{lineno}: duplicate key {key!r}")
        try:
            if _TYPES[key] == "int":
                values[key] = int(value)
            elif _TYPES[key] == "float":
                values[key] = float(value)
            elif value in _ENUM_KEYS[key]:
                values[key] = value
            else:
                raise ValueError(f"must be one of {'|'.join(_ENUM_KEYS[key])}, got {value!r}")
            # every owner's check reads one key, so the defaults stand in for the rest
            alone = RunConfig(**{key: values[key]})
            alone.model_config()
            alone.train_config()
            if alone.min_count < 1:
                raise ValueError(f"min_count must be >= 1, got {alone.min_count}")
        except ValueError as exc:
            raise UsageError(f"{source}:{lineno}: bad value for {key}: {exc}") from exc
    return RunConfig(**values)


def load_run_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    except UnicodeDecodeError as exc:
        lineno = exc.object.count(b"\n", 0, exc.start) + 1
        raise UsageError(f"{path}:{lineno}: not UTF-8 text ({exc.reason})") from exc
    return parse_run_config(text, source=str(path))


def render_run_config(config: RunConfig) -> str:
    """The effective configuration in the same key = value format."""
    lines = []
    for key in _KEYS:
        value = getattr(config, key)
        if isinstance(value, float):
            value = repr(value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines)
