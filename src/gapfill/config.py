"""Run configuration: a flat, sectioned key=value file, validated exhaustively.

Unknown sections or keys are rejected with their full path, as are values
that fail to parse. `default_config_text()` emits the commented defaults.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields

from .data import DEFAULT_MISSING_MARKERS, HEADER_MODES, WindowSpec
from .eval import DEFAULT_VARIANTS, ModelVariant
from .model import SCHEDULE_VARIANTS, NetworkConfig
from .optim import TrainConfig


class ConfigError(ValueError):
    """Invalid configuration file or value."""


def parse_markers(text: str) -> tuple[str, ...]:
    return tuple(m.strip() for m in text.split(","))


def _parse_header(text: str) -> str:
    mode = text.strip()
    if mode not in HEADER_MODES:
        raise ValueError(f"expected one of {'|'.join(HEADER_MODES)}, got {text!r}")
    return mode


def _parse_variants(text: str) -> tuple[str, ...]:
    names = [v.strip() for v in text.split(",") if v.strip()]
    if not names or len(set(names)) != len(names):
        raise ValueError(f"needs one or more variants, each once, got {text!r}")
    for name in names:
        try:
            ModelVariant(name)
        except ValueError:
            raise ValueError(
                f"unknown variant {name!r}; expected one of "
                f"{[v.value for v in ModelVariant]}") from None
    return tuple(names)


def _parse_schedule(text: str) -> str:
    name = text.strip()
    if name not in SCHEDULE_VARIANTS:
        raise ValueError(f"unknown schedule {name!r}; expected one of {SCHEDULE_VARIANTS}")
    return name


# section -> key -> (parser, default, comment)
_SCHEMA = {
    "model": {
        "input_dim": (int, 1, "number of variables fed to the network"),
        "hidden_dim": (int, 64, "LSTM hidden units"),
        "schedule": (_parse_schedule, "linear", "stream weights: linear | endpoint | constant"),
        "merge_hidden": (int, 0, "merge MLP width; 0 keeps the single linear merge layer"),
    },
    "training": {
        "lr": (float, 1e-3, "Adam learning rate"),
        "beta1": (float, 0.9, "Adam first-moment decay"),
        "beta2": (float, 0.999, "Adam second-moment decay"),
        "eps": (float, 1e-8, "Adam denominator stabilizer"),
        "epochs": (int, 100, "maximum epochs"),
        "batch_size": (int, 32, "windows per gradient step"),
        "patience": (int, 10, "epochs without validation improvement before stopping"),
        "min_delta": (float, 0.0, "minimum improvement that resets patience"),
        "seed": (int, 0, "seed for initialization and shuffling"),
        "clip_norm": (float, 0.0, "global gradient-norm clip; 0 disables"),
        "val_fraction": (float, 0.1, "trailing share of training windows held out for validation"),
    },
    "data": {
        "path": (str, "", "CSV file to train on"),
        "columns": (str, "0", "comma-separated column names or indices; "
                              "their count must equal model.input_dim"),
        "missing": (parse_markers, DEFAULT_MISSING_MARKERS, "comma-separated missing markers"),
        "header": (_parse_header, "auto", "first row holds column names: auto | yes | no"),
        "test_fraction": (float, 0.8, "trailing share of rows reserved for testing"),
        "before_len": (int, 10, "observed rows before the gap"),
        "gap_len": (int, 10, "gap rows to impute"),
        "after_len": (int, 10, "observed rows after the gap"),
        "train_stride": (int, 1, "window stride on training rows"),
        "eval_stride": (int, 0, "window stride on test rows; 0 means gap_len"),
    },
    "paths": {
        "checkpoint": (str, "model.ckpt", "trained model output"),
        "train_log": (str, "train_log", "training log prefix (.txt and .csv)"),
        "report": (str, "eval_report", "benchmark report prefix (.txt and .csv)"),
        "borda": (str, "borda", "ranking table prefix (.txt and .csv)"),
    },
    "eval": {
        "variants": (_parse_variants, tuple(v.value for v in DEFAULT_VARIANTS),
                     "benchmark columns, comma-separated"),
    },
}

_DATASET_KEYS = {
    "path": (str, "", "CSV file for this dataset"),
    "columns": (str, "0", "comma-separated column names or indices, one benchmark row each"),
    "missing": (parse_markers, DEFAULT_MISSING_MARKERS, "comma-separated missing markers"),
    "header": (_parse_header, "auto", "first row holds column names: auto | yes | no"),
}


@dataclass
class DatasetSpec:
    name: str
    path: str
    columns: tuple[str, ...]
    missing: tuple[str, ...]
    header: str


@dataclass
class RunConfig:
    model: dict = field(default_factory=dict)
    training: dict = field(default_factory=dict)
    data: dict = field(default_factory=dict)
    paths: dict = field(default_factory=dict)
    eval: dict = field(default_factory=dict)
    datasets: list[DatasetSpec] = field(default_factory=list)

    def network_config(self) -> NetworkConfig:
        return NetworkConfig(
            input_dim=self.model["input_dim"],
            hidden_dim=self.model["hidden_dim"],
            schedule_variant=self.model["schedule"],
            merge_hidden=self.model["merge_hidden"],
        )

    def window_spec(self) -> WindowSpec:
        d = self.data
        return WindowSpec(d["before_len"], d["gap_len"], d["after_len"], d["train_stride"])

    def train_config(self) -> TrainConfig:
        return TrainConfig(**{f.name: self.training[f.name] for f in fields(TrainConfig)})


def default_config() -> RunConfig:
    cfg = RunConfig()
    for section, keys in _SCHEMA.items():
        setattr(cfg, section, {key: default for key, (_, default, _) in keys.items()})
    return cfg


def default_config_text() -> str:
    lines = ["# gapfill run configuration (defaults)"]
    for section, keys in _SCHEMA.items():
        lines.append("")
        lines.append(f"[{section}]")
        for key, (_, default, comment) in keys.items():
            if isinstance(default, tuple):
                default = ",".join(str(d) for d in default)
            lines.append(f"{key} = {default}  # {comment}")
    lines.append("")
    lines.append("# benchmark datasets: one [dataset:NAME] section each, e.g.")
    for key, (_, default, comment) in _DATASET_KEYS.items():
        if isinstance(default, tuple):
            default = ",".join(str(d) for d in default)
        lines.append(f"# {key} = {default}  # {comment}")
    return "\n".join(lines) + "\n"


def _apply_section(target: dict, schema: dict, section: str, items) -> None:
    for key, raw in items:
        if key not in schema:
            raise ConfigError(f"{section}.{key}: unknown key")
        parser = schema[key][0]
        try:
            target[key] = parser(raw)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{section}.{key}: {exc}") from None


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",),
                                       comment_prefixes=("#", ";"), inline_comment_prefixes=("#",))
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigError(f"{source}: {exc}") from None
    cfg = default_config()
    for section in parser.sections():
        if section in _SCHEMA:
            _apply_section(getattr(cfg, section), _SCHEMA[section], section, parser.items(section))
        elif section.startswith("dataset:"):
            name = section.split(":", 1)[1].strip()
            if not name:
                raise ConfigError(f"{section}: dataset sections need a name after the colon")
            values = {key: default for key, (_, default, _) in _DATASET_KEYS.items()}
            _apply_section(values, _DATASET_KEYS, section, parser.items(section))
            if not values["path"]:
                raise ConfigError(f"{section}.path: required")
            # a column selected twice is caught once the file's columns are known
            columns = tuple(c.strip() for c in values["columns"].split(",") if c.strip())
            cfg.datasets.append(DatasetSpec(name, values["path"], columns, values["missing"],
                                            values["header"]))
        else:
            raise ConfigError(f"{section}: unknown section")
    _validate(cfg)
    return cfg


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config_text(text, source=str(path))


def _validate(cfg: RunConfig) -> None:
    if cfg.model["input_dim"] < 1:
        raise ConfigError("model.input_dim: must be >= 1")
    if cfg.model["hidden_dim"] < 1:
        raise ConfigError("model.hidden_dim: must be >= 1")
    if cfg.model["merge_hidden"] < 0:
        raise ConfigError("model.merge_hidden: must be >= 0")
    t = cfg.training
    for key in ("lr", "clip_norm", "min_delta"):
        if not (math.isfinite(t[key]) and t[key] >= 0):
            raise ConfigError(f"training.{key}: must be finite and >= 0")
    if not (math.isfinite(t["eps"]) and t["eps"] > 0):
        raise ConfigError("training.eps: must be finite and > 0")
    if not 0 <= t["beta1"] < 1 or not 0 <= t["beta2"] < 1:
        raise ConfigError("training.beta1/beta2: must be in [0, 1)")
    if t["epochs"] < 1 or t["batch_size"] < 1 or t["patience"] < 1:
        raise ConfigError("training.epochs/batch_size/patience: must be >= 1")
    if not 0 < t["val_fraction"] < 1:
        raise ConfigError("training.val_fraction: must be in (0, 1)")
    d = cfg.data
    if not 0 < d["test_fraction"] < 1:
        raise ConfigError("data.test_fraction: must be in (0, 1)")
    for key in ("before_len", "gap_len", "after_len", "train_stride"):
        if d[key] < 1:
            raise ConfigError(f"data.{key}: must be >= 1")
    if d["eval_stride"] < 0:
        raise ConfigError("data.eval_stride: must be >= 0")
