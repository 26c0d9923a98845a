"""Flat key=value run configuration shared by the CLI subcommands.

Format: UTF-8 lines of ``key = value``, ``#`` starts a comment, blank lines
ignored. Unknown keys are fatal. Every key has a documented default, and the
effective configuration echoes back in the same format so a run can be
reproduced from its own log.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from fcn_ctr.features import DISCRETIZE_MODES
from fcn_ctr.model import MASK_MODES, ModelConfig
from fcn_ctr.training import LOSS_MODES, TrainConfig


class UsageError(Exception):
    """Bad flags or configuration; maps to exit code 1."""


@dataclass
class RunConfig:
    d: int = 16
    lcn_depth: int = 3
    ecn_depth: int = 3
    mask: str = "paper"
    dropout: float = 0.1
    ln_epsilon: float = 1e-5
    loss: str = "tri"
    lr: float = 0.001
    batch_size: int = 4096
    max_epochs: int = 20
    patience: int = 2
    seed: int = 1
    discretize: str = "lnsq"
    min_count: int = 1

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
            return parse_run_config(fh.read(), source=str(path))
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc


def render_run_config(config: RunConfig) -> str:
    """The effective configuration in the same key = value format."""
    lines = []
    for key in _KEYS:
        value = getattr(config, key)
        if isinstance(value, float):
            value = repr(value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines)
