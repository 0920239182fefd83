import numpy as np
import pytest

MICRO_CFG = """
name: dicenet-micro
width_scale: 0.1
input_size: 32
classes: 10
stages {
  repeats: [1, 1]
  channels: [16, 32]
}
pool_width: 64
"""

SEPARABLE_MICRO_CFG = """
name: separable-micro
width_scale: 0.1
input_size: 32
classes: 10
conv: depthwise
fusion: pointwise
stages {
  repeats: [1, 1]
  channels: [16, 32]
}
pool_width: 64
"""


@pytest.fixture(autouse=True)
def ufunc_buffer_restored():
    # a kernel that changes numpy's ufunc buffer size must restore it
    before = np.getbufsize()
    yield
    after = np.getbufsize()
    if after != before:
        pytest.fail(f"numpy's ufunc buffer size left at {after}, was {before}")


@pytest.fixture
def rng():
    return np.random.default_rng(0)
