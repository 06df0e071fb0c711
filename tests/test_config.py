import argparse

import pytest

from gapfill.cli import _build_parser
from gapfill.config import (
    ConfigError,
    default_config,
    default_config_text,
    load_config,
    parse_config_text,
)
from gapfill.data import SYNTH_KINDS
from gapfill.eval import BenchmarkConfig
from gapfill.model import NetworkConfig
from gapfill.optim import TrainConfig


def test_empty_text_yields_defaults():
    cfg = parse_config_text("")
    base = default_config()
    assert cfg.model == base.model
    assert cfg.training == base.training
    assert cfg.data == base.data
    assert cfg.model["hidden_dim"] == 64
    assert cfg.data["test_fraction"] == 0.8
    assert cfg.training["lr"] == 1e-3


def test_defaults_text_round_trips():
    cfg = parse_config_text(default_config_text())
    base = default_config()
    assert cfg.model == base.model
    assert cfg.training == base.training
    assert cfg.data == base.data
    assert cfg.paths == base.paths
    assert cfg.eval == base.eval


def test_overrides_applied():
    cfg = parse_config_text("""
[model]
hidden_dim = 16
schedule = endpoint
[training]
lr = 0.01
seed = 9
[data]
path = x.csv
gap_len = 5
""")
    assert cfg.model["hidden_dim"] == 16
    assert cfg.model["schedule"] == "endpoint"
    assert cfg.training["lr"] == 0.01
    assert cfg.network_config().hidden_dim == 16
    assert cfg.train_config().seed == 9
    assert cfg.data["gap_len"] == 5


def test_unknown_key_named_in_error():
    with pytest.raises(ConfigError, match=r"model\.hidden_units"):
        parse_config_text("[model]\nhidden_units = 64\n")


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="optimizer"):
        parse_config_text("[optimizer]\nlr = 1\n")


def test_bad_value_named_in_error():
    with pytest.raises(ConfigError, match=r"training\.epochs"):
        parse_config_text("[training]\nepochs = many\n")


def test_bad_schedule_rejected():
    with pytest.raises(ConfigError, match=r"model\.schedule"):
        parse_config_text("[model]\nschedule = quadratic\n")


def test_bad_variant_list_rejected():
    with pytest.raises(ConfigError, match=r"eval\.variants"):
        parse_config_text("[eval]\nvariants = seq2seqImp,bogus\n")


@pytest.mark.parametrize("variants", ["seq2seq,seq2seq,RNN_FW", "", " , "])
def test_repeated_or_empty_variant_list_rejected(variants):
    with pytest.raises(ConfigError, match=r"eval\.variants"):
        parse_config_text(f"[eval]\nvariants = {variants}\n")


def test_defaults_agree_with_the_library():
    cfg = default_config()
    assert cfg.train_config() == TrainConfig()
    assert cfg.network_config() == NetworkConfig()
    bench = BenchmarkConfig(cfg.window_spec(), cfg.train_config(), cfg.network_config())
    assert bench.test_fraction == cfg.data["test_fraction"]
    assert bench.val_fraction == cfg.training["val_fraction"]
    assert bench.eval_stride == cfg.data["eval_stride"]


def test_synth_kinds_are_the_generators():
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    kind = next(a for a in sub.choices["synth"]._actions if a.dest == "kind")
    assert tuple(kind.choices) == SYNTH_KINDS


def test_range_validation():
    with pytest.raises(ConfigError, match=r"data\.test_fraction"):
        parse_config_text("[data]\ntest_fraction = 1.5\n")
    with pytest.raises(ConfigError, match=r"training\.val_fraction"):
        parse_config_text("[training]\nval_fraction = 0\n")
    with pytest.raises(ConfigError, match=r"model\.hidden_dim"):
        parse_config_text("[model]\nhidden_dim = 0\n")


@pytest.mark.parametrize("key, bad", [
    ("lr", ["nan", "inf", "-1e-3"]),
    ("eps", ["-1e-3", "0", "nan", "inf"]),
    ("clip_norm", ["-1", "nan", "inf"]),
    ("min_delta", ["-5", "nan", "inf"]),
])
def test_training_hyperparameter_ranges(key, bad):
    for text in bad:
        with pytest.raises(ConfigError, match=rf"training\.{key}"):
            parse_config_text(f"[training]\n{key} = {text}\n")


def test_dataset_sections_collected():
    cfg = parse_config_text("""
[dataset:river]
path = river.csv
columns = 0,2

[dataset:parking]
path = parking.csv
missing = NA,-1
""")
    assert [d.name for d in cfg.datasets] == ["river", "parking"]
    assert cfg.datasets[0].columns == ("0", "2")
    assert cfg.datasets[1].missing == ("NA", "-1")


def test_header_modes_parse():
    cfg = parse_config_text("[data]\nheader = no\n[dataset:a]\npath = a.csv\nheader = yes\n"
                            "[dataset:b]\npath = b.csv\n")
    assert cfg.data["header"] == "no"
    assert [d.header for d in cfg.datasets] == ["yes", "auto"]
    assert default_config().data["header"] == "auto"
    for section in ("[data]", "[dataset:a]\npath = a.csv"):
        with pytest.raises(ConfigError, match=r"header: expected one of auto\|yes\|no"):
            parse_config_text(f"{section}\nheader = true\n")


def test_dataset_column_named_twice_rejected():
    with pytest.raises(ConfigError, match=r"dataset:a\.columns: each column may be named once"):
        parse_config_text("[dataset:a]\npath = a.csv\ncolumns = 0,0\n")


def test_dataset_needs_path():
    with pytest.raises(ConfigError, match=r"dataset:x\.path"):
        parse_config_text("[dataset:x]\ncolumns = 0\n")


def test_missing_markers_parse_trailing_empty():
    cfg = parse_config_text("[data]\nmissing = NA,\n")
    assert cfg.data["missing"] == ("NA", "")


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/nonexistent/path.cfg")


def test_inline_comments_stripped():
    cfg = parse_config_text("[training]\nepochs = 7  # short run\n")
    assert cfg.training["epochs"] == 7
