"""Architecture configuration documents.

A small brace-delimited key/value format, chosen for hand-editability:

    # width multiplier sweep point
    name: dicenet-s1.0
    width_scale: 1.0
    input_size: 224
    stages {
      repeats: [3, 7, 3]
      channels: [116, 232, 464]
    }

Keys are order-insensitive, '#' starts a comment, arrays are bracketed,
nesting uses `key { ... }`. Unknown keys are rejected; omitted keys take
defaults derived from the width scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

__all__ = [
    "ConfigError", "NetConfig", "parse_config", "serialize_config",
    "default_stage_channels", "default_pool_width", "default_stem_channels",
]


class ConfigError(ValueError):
    """Malformed or out-of-range configuration document."""


# ------------------------------------------------------------------ defaults

_SPECIAL_CHANNELS = {
    0.1: (16, 32, 64),
    0.2: (32, 64, 128),
    2.4: (278, 556, 1112),
}
_BASE_CHANNELS = (116, 232, 464)


def _round_even(v: float) -> int:
    if not math.isfinite(v):
        raise ConfigError(f"field 'width_scale': a scaled stage width, {v}, is not finite")
    return max(2, 2 * int(round(v / 2.0)))


def default_stage_channels(width_scale: float) -> tuple[int, int, int]:
    """Per-stage output widths for a given scale; a few sweep points use
    hand-picked widths rather than the linear rule."""
    for s, chans in _SPECIAL_CHANNELS.items():
        if abs(width_scale - s) < 1e-9:
            return chans
    return tuple(_round_even(c * width_scale) for c in _BASE_CHANNELS)


def default_pool_width(width_scale: float) -> int:
    if width_scale <= 0.1 + 1e-9:
        return 512
    if width_scale >= 2.4 - 1e-9:
        return 1280
    return 1024


def default_stem_channels(width_scale: float) -> int:
    if width_scale <= 0.1 + 1e-9:
        return 8
    if width_scale <= 0.2 + 1e-9:
        return 16
    return 24


# ------------------------------------------------------------------- schema

_BLOCK_STYLES = ("shufflenetv2", "mobilenet", "resnet")
_CONV_KINDS = ("dimconv", "depthwise")
_FUSION_KINDS = ("dimfuse", "pointwise")


@dataclass(frozen=True)
class NetConfig:
    name: str
    width_scale: float
    input_size: int = 224
    classes: int = 1000
    block_style: str = "shufflenetv2"
    conv: str = "dimconv"
    fusion: str = "dimfuse"
    kernel_size: int = 3
    stage_repeats: tuple[int, ...] = (3, 7, 3)
    stage_channels: tuple[int, ...] | None = None
    pool_width: int | None = None
    fc_groups: int = 4

    def __post_init__(self):
        if not self.name:
            raise ConfigError("field 'name': must be a non-empty string")
        if not 0 < self.width_scale < math.inf:
            raise ConfigError(f"field 'width_scale': must be finite and > 0, got {self.width_scale}")
        if self.input_size < 32:
            raise ConfigError(f"field 'input_size': must be >= 32, got {self.input_size}")
        if self.classes < 2:
            raise ConfigError(f"field 'classes': must be >= 2, got {self.classes}")
        if self.block_style not in _BLOCK_STYLES:
            raise ConfigError(f"field 'block_style': expected one of {_BLOCK_STYLES}, "
                              f"got {self.block_style!r}")
        if self.conv not in _CONV_KINDS:
            raise ConfigError(f"field 'conv': expected one of {_CONV_KINDS}, got {self.conv!r}")
        if self.fusion not in _FUSION_KINDS:
            raise ConfigError(f"field 'fusion': expected one of {_FUSION_KINDS}, "
                              f"got {self.fusion!r}")
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise ConfigError(f"field 'kernel_size': must be odd, got {self.kernel_size}")
        if not self.stage_repeats or any(r < 1 for r in self.stage_repeats):
            raise ConfigError("field 'stages.repeats': every repeat must be >= 1")
        chans = self.resolved_channels()
        if len(chans) != len(self.stage_repeats):
            raise ConfigError(
                f"field 'stages.channels': {len(chans)} entries for "
                f"{len(self.stage_repeats)} stages")
        if any(c < 1 for c in chans):
            raise ConfigError("field 'stages.channels': channel counts must be >= 1")
        if self.block_style == "shufflenetv2" and any(c % 2 for c in chans):
            raise ConfigError(
                f"field 'stages.channels': channel split needs even widths, got {chans}")
        if self.resolved_pool_width() < 1:
            raise ConfigError("field 'pool_width': must be >= 1")
        if self.fc_groups < 1 or self.resolved_pool_width() % self.fc_groups:
            raise ConfigError(
                f"field 'fc_groups': {self.fc_groups} does not divide pool width "
                f"{self.resolved_pool_width()}")

    def resolved_channels(self) -> tuple[int, ...]:
        if self.stage_channels is not None:
            return self.stage_channels
        return default_stage_channels(self.width_scale)[:len(self.stage_repeats)]

    def resolved_pool_width(self) -> int:
        return self.pool_width if self.pool_width is not None \
            else default_pool_width(self.width_scale)

    def resolved(self) -> "NetConfig":
        """Copy with every defaulted field made explicit."""
        return replace(self, stage_channels=self.resolved_channels(),
                       pool_width=self.resolved_pool_width())


# ------------------------------------------------------------------- parser

def _parse_scalar(tok: str, lineno: int):
    tok = tok.strip()
    if not tok:
        raise ConfigError(f"line {lineno}: empty value")
    if tok.startswith('"') and tok.endswith('"') and len(tok) >= 2:
        return tok[1:-1]
    if tok in ("true", "false"):
        return tok == "true"
    try:
        return int(tok)
    except ValueError:
        pass
    try:
        return float(tok)
    except ValueError:
        pass
    return tok


def _parse_value(tok: str, lineno: int):
    tok = tok.strip()
    if tok.startswith("["):
        if not tok.endswith("]"):
            raise ConfigError(f"line {lineno}: unterminated array")
        inner = tok[1:-1].strip()
        if not inner:
            return []
        return [_parse_scalar(part, lineno) for part in inner.split(",")]
    return _parse_scalar(tok, lineno)


def _strip_comment(line: str) -> str:
    out, quoted = [], False
    for ch in line:
        if ch == '"':
            quoted = not quoted
        if ch == "#" and not quoted:
            break
        out.append(ch)
    return "".join(out)


def parse_document(text: str) -> dict:
    """Parse the generic document syntax into nested dicts."""
    root: dict = {}
    stack = [(root, None)]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line == "}":
            if len(stack) == 1:
                raise ConfigError(f"line {lineno}: unmatched closing brace")
            stack.pop()
            continue
        if line.endswith("{"):
            key = line[:-1].strip().rstrip(":").strip()
            if not key:
                raise ConfigError(f"line {lineno}: section needs a name before '{{'")
            cur = stack[-1][0]
            if key in cur:
                raise ConfigError(f"line {lineno}: duplicate key {key!r}")
            child: dict = {}
            cur[key] = child
            stack.append((child, key))
            continue
        if ":" not in line:
            raise ConfigError(f"line {lineno}: expected 'key: value', got {line!r}")
        key, _, val = line.partition(":")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: missing key before ':'")
        cur = stack[-1][0]
        if key in cur:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        cur[key] = _parse_value(val, lineno)
    if len(stack) != 1:
        raise ConfigError(f"unclosed section {stack[-1][1]!r} at end of document")
    return root


def _expect(value, types, field):
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f"field {field!r}: unexpected value {value!r}")
    return value


def _int_list(value, field):
    if not isinstance(value, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in value):
        raise ConfigError(f"field {field!r}: expected an array of integers, got {value!r}")
    return tuple(value)


_TOP_KEYS = {"name", "width_scale", "input_size", "classes", "block_style",
             "conv", "fusion", "kernel_size", "stages", "pool_width", "fc_groups"}
_STAGE_KEYS = {"repeats", "channels"}


def parse_config(text: str) -> NetConfig:
    """Parse and validate a document into a fully-resolved NetConfig."""
    doc = parse_document(text)
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown key {sorted(unknown)[0]!r}")
    if "name" not in doc:
        raise ConfigError("field 'name': required")
    if "width_scale" not in doc:
        raise ConfigError("field 'width_scale': required")
    kwargs = {
        "name": str(_expect(doc["name"], (str,), "name")),
        "width_scale": float(_expect(doc["width_scale"], (int, float), "width_scale")),
    }
    for field, types in (("input_size", int), ("classes", int), ("block_style", str),
                         ("conv", str), ("fusion", str), ("kernel_size", int),
                         ("pool_width", int), ("fc_groups", int)):
        if field in doc:
            kwargs[field] = _expect(doc[field], (types,), field)
    if "stages" in doc:
        stages = doc["stages"]
        if not isinstance(stages, dict):
            raise ConfigError("field 'stages': expected a braced section")
        unknown = set(stages) - _STAGE_KEYS
        if unknown:
            raise ConfigError(f"unknown key 'stages.{sorted(unknown)[0]}'")
        if "repeats" in stages:
            kwargs["stage_repeats"] = _int_list(stages["repeats"], "stages.repeats")
        if "channels" in stages:
            kwargs["stage_channels"] = _int_list(stages["channels"], "stages.channels")
    return NetConfig(**kwargs).resolved()


def serialize_config(cfg: NetConfig) -> str:
    """Emit a document that parses back to an equal (resolved) config."""
    cfg = cfg.resolved()
    lines = [
        f"name: {cfg.name}",
        f"width_scale: {cfg.width_scale}",
        f"input_size: {cfg.input_size}",
        f"classes: {cfg.classes}",
        f"block_style: {cfg.block_style}",
        f"conv: {cfg.conv}",
        f"fusion: {cfg.fusion}",
        f"kernel_size: {cfg.kernel_size}",
        "stages {",
        f"  repeats: [{', '.join(str(r) for r in cfg.stage_repeats)}]",
        f"  channels: [{', '.join(str(c) for c in cfg.stage_channels)}]",
        "}",
        f"pool_width: {cfg.pool_width}",
        f"fc_groups: {cfg.fc_groups}",
    ]
    return "\n".join(lines) + "\n"
