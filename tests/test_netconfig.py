"""Config document parsing, defaults, validation, round-trips."""

import pytest

from dicekit.netconfig import (
    ConfigError,
    NetConfig,
    default_pool_width,
    default_stage_channels,
    parse_config,
    parse_document,
    serialize_config,
)


def test_minimal_document_gets_defaults():
    cfg = parse_config("name: tiny\nwidth_scale: 1.0\n")
    assert cfg.stage_repeats == (3, 7, 3)
    assert cfg.stage_channels == (116, 232, 464)
    assert cfg.pool_width == 1024
    assert cfg.input_size == 224 and cfg.classes == 1000
    assert cfg.fc_groups == 4


def test_width_scale_zero_rejected():
    with pytest.raises(ConfigError):
        parse_config("name: x\nwidth_scale: 0\n")


def test_width_scale_non_finite_rejected():
    # an infinite scale used to reach int(round(inf)) in the channel defaults
    for value in ("inf", "-inf", "nan"):
        with pytest.raises(ConfigError, match="width_scale"):
            parse_config(f"name: x\nwidth_scale: {value}\n")


def test_round_trip():
    cfg = parse_config("""
name: demo
width_scale: 0.5
input_size: 192
classes: 100
stages {
  repeats: [2, 4, 2]
  channels: [58, 116, 232]
}
""")
    assert parse_config(serialize_config(cfg)) == cfg


def test_comments_and_order_insensitivity():
    a = parse_config("width_scale: 1.0   # trailing comment\nname: z\n")
    b = parse_config("name: z\nwidth_scale: 1.0\n")
    assert a == b


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("name: x\nwidth_scale: 1.0\nmomentum: 0.9\n")
    with pytest.raises(ConfigError, match="stages.depth"):
        parse_config("name: x\nwidth_scale: 1.0\nstages {\n depth: 3\n}\n")


def test_syntax_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match="line 3"):
        parse_document("name: x\nwidth_scale: 1.0\nbroken line\n")
    with pytest.raises(ConfigError, match="line 2"):
        parse_document("a: 1\n}\n")
    with pytest.raises(ConfigError, match="unclosed"):
        parse_document("s {\n a: 1\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_document("a: 1\na: 2\n")


def test_value_types():
    doc = parse_document('i: 3\nf: 2.5\nb: true\ns: plain\nq: "quoted x"\n'
                         'arr: [1, 2, 3]\n')
    assert doc == {"i": 3, "f": 2.5, "b": True, "s": "plain", "q": "quoted x",
                   "arr": [1, 2, 3]}


def test_special_channel_columns():
    assert default_stage_channels(0.1) == (16, 32, 64)
    assert default_stage_channels(0.2) == (32, 64, 128)
    assert default_stage_channels(2.4) == (278, 556, 1112)
    assert default_stage_channels(1.0) == (116, 232, 464)
    # generic scaling rounds to even
    assert all(c % 2 == 0 for c in default_stage_channels(0.75))


def test_pool_width_defaults():
    assert default_pool_width(0.1) == 512
    assert default_pool_width(1.0) == 1024
    assert default_pool_width(2.4) == 1280


def test_odd_channels_rejected_for_split_style():
    with pytest.raises(ConfigError, match="even"):
        parse_config("name: x\nwidth_scale: 1.0\nstages {\n"
                     " repeats: [1]\n channels: [15]\n}\n")


def test_fc_groups_must_divide_pool_width():
    with pytest.raises(ConfigError, match="fc_groups"):
        parse_config("name: x\nwidth_scale: 1.0\npool_width: 100\nfc_groups: 3\n")


def test_bad_kernel_size():
    with pytest.raises(ConfigError, match="kernel_size"):
        NetConfig(name="x", width_scale=1.0, kernel_size=4)


def test_width_scale_overflowing_a_stage_width_rejected():
    # 464 * 1e306 overflows to inf in the channel defaults
    with pytest.raises(ConfigError, match="width_scale"):
        parse_config("name: x\nwidth_scale: 1e306\n")
