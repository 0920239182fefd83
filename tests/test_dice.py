"""The builder's DiCE unit and blocks: shapes, dynamic rescaling
instrumentation, split/shuffle and block validation."""

import sys
import threading

import numpy as np
import pytest

from dicekit import dice
from dicekit.dice import channel_shuffle
from dicekit.netbuilder import ArrayOps, DiceUnit, MobileBlock, ResBlock, ShuffleBlock
from dicekit.netconfig import ConfigError
from dicekit.tensorops import KernelError


def _layer(cls, *args, strided=False, seed=0):
    return cls(*args, 3, "dimconv", "dimfuse", strided,
               np.random.default_rng(seed), np.float64)


def _unit(c=4, h=6, w=6, **kw):
    return _layer(DiceUnit, c, h, w, **kw)


def _run(layer, x):
    return layer.forward(x, ArrayOps())


def test_unit_forward_shape(rng):
    assert _run(_unit(), rng.standard_normal((2, 4, 6, 6))).shape == (2, 4, 6, 6)


def test_unit_strided_halves_spatial(rng):
    unit = _unit(strided=True)
    assert _run(unit, rng.standard_normal((1, 4, 6, 6))).shape == (1, 4, 3, 3)


def test_unit_channel_mismatch(rng):
    with pytest.raises(KernelError):
        _run(_unit(), rng.standard_normal((1, 5, 6, 6)))


def test_no_resize_at_nominal(rng):
    unit = _unit()
    dice.reset_resize_count()
    _run(unit, rng.standard_normal((1, 4, 6, 6)))
    assert dice.resize_count() == 0


def test_off_nominal_resizes_and_keeps_size(rng):
    unit = _unit()
    dice.reset_resize_count()
    y = _run(unit, rng.standard_normal((1, 4, 9, 8)))
    assert y.shape == (1, 4, 9, 8)
    assert dice.resize_count() == 2          # in and out


def test_unit_deterministic(rng):
    unit = _unit()
    x = rng.standard_normal((1, 4, 6, 6))
    np.testing.assert_array_equal(_run(unit, x), _run(unit, x))


def test_channel_shuffle_permutation():
    x = np.arange(8, dtype=np.float64).reshape(1, 8, 1, 1)
    y = channel_shuffle(x, 2)
    # (group g, index i) -> position i*groups + g
    np.testing.assert_array_equal(y[0, :, 0, 0], [0, 4, 1, 5, 2, 6, 3, 7])
    # shuffling twice with complementary groups restores the order
    np.testing.assert_array_equal(channel_shuffle(y, 4), x)


def test_shuffle_block_preserves_channels(rng):
    block = _layer(ShuffleBlock, 8, 8, 6, 6)
    assert _run(block, rng.standard_normal((1, 8, 6, 6))).shape == (1, 8, 6, 6)


def test_shuffle_block_left_half_passthrough(rng):
    # the left half of the split flows through untouched (before shuffle)
    block = _layer(ShuffleBlock, 8, 8, 6, 6)
    x = rng.standard_normal((1, 8, 6, 6))
    unshuffled = channel_shuffle(_run(block, x), 4)   # inverse of 2 groups
    np.testing.assert_array_equal(unshuffled[:, :4], x[:, :4])


def test_strided_shuffle_block_downsamples_and_widens(rng):
    block = _layer(ShuffleBlock, 8, 20, 6, 6, strided=True)
    assert _run(block, rng.standard_normal((1, 8, 6, 6))).shape == (1, 20, 3, 3)


def test_mobilenet_and_resnet_styles(rng):
    x = rng.standard_normal((1, 8, 6, 6))
    assert _run(_layer(MobileBlock, 8, 8, 6, 6), x).shape == (1, 8, 6, 6)
    assert _run(_layer(ResBlock, 8, 12, 6, 6), x).shape == (1, 12, 6, 6)


def test_block_config_validation():
    with pytest.raises(ConfigError):
        _layer(ShuffleBlock, 8, 8, 6, 6, strided=True)     # cout <= cin
    with pytest.raises(ConfigError):
        _layer(ShuffleBlock, 7, 7, 6, 6)                   # odd split


def test_resize_count_is_per_thread():
    # more threads than cores, switching often: each sees only its own count
    counts, n_threads, per_thread = {}, 4, 500
    dice.reset_resize_count()
    dice.note_resize()

    def work(k):
        dice.reset_resize_count()
        for _ in range(per_thread):
            dice.note_resize()
        counts[k] = dice.resize_count()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert counts == {k: per_thread for k in range(n_threads)}
    assert dice.resize_count() == 1
