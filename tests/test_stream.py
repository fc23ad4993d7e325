import numpy as np
import pytest

from fracflow.stream import Stream

SEEDS = (0, 1, 1234, 2**32 + 5, 2**70)


@pytest.mark.parametrize("seed", SEEDS)
def test_uniform_arrays_equal_numpy_default_rng(seed):
    # one stream drawn in calls of growing size, so every doubling length
    # (1 to 2^12) and both a full and a partial last round are exercised;
    # draws longer than the 4096 kept jump columns run in chunks, whole and
    # partial, the short draw after each starts where it ended, and the
    # table grows no further
    oracle, stream = np.random.default_rng(seed), Stream(seed)
    for size in (1, 2, 3, 257, 1024, 4097, 3, 100000, 3, 250001, 3):
        want = oracle.uniform(-1.0, 1.0, size=size)
        got = stream.uniform(-1.0, 1.0, size=size)
        assert got.dtype == np.float64 and got.shape == (size,)
        assert got.tobytes() == want.tobytes(), size
    assert stream._jump.shape[1] == 4096


@pytest.mark.parametrize("seed", SEEDS)
def test_scalar_and_array_bounds_equal_numpy_default_rng(seed):
    # scalar bounds give a float, array bounds one draw per element, as
    # LEVELSET's bump centers and widths draw them
    oracle, stream = np.random.default_rng(seed), Stream(seed)
    lo, hi = np.array([0.2, -1.0]), np.array([0.8, 3.0])
    for _ in range(5):
        got, want = stream.uniform(0.15, 0.45), oracle.uniform(0.15, 0.45)
        assert isinstance(got, float) and got == want
        got, want = stream.uniform(lo, hi), oracle.uniform(lo, hi)
        assert got.shape == (2,) and got.tobytes() == want.tobytes()
        got = stream.uniform(-3.0, 5.0, size=7)
        assert got.tobytes() == oracle.uniform(-3.0, 5.0, size=7).tobytes()
    # the Sobolev probes: a bump's array-bound center and scalar width,
    # then 1024 values of noise, alternating 32 times
    for _ in range(32):
        got, want = stream.uniform(lo, hi), oracle.uniform(lo, hi)
        assert got.tobytes() == want.tobytes()
        assert stream.uniform(0.15, 0.45) == oracle.uniform(0.15, 0.45)
        got = stream.uniform(-1.0, 1.0, size=1024)
        assert got.tobytes() == oracle.uniform(-1.0, 1.0, size=1024).tobytes()


@pytest.mark.parametrize("seed", SEEDS)
def test_ineq_draw_pattern_equals_numpy_default_rng(seed):
    # ineq's synthetic space-time trials: two uniforms, integers(1, 4) and
    # a uniform, repeated; integers keeps the unused half of a 64-bit draw
    # for the next one, across the uniform draws between them
    oracle, stream = np.random.default_rng(seed), Stream(seed)
    for _ in range(40):
        for low, high in ((0.2, 1.0), (-1.0, 1.0)):
            assert stream.uniform(low, high) == oracle.uniform(low, high)
        k = stream.integers(1, 4)
        assert isinstance(k, int) and k == oracle.integers(1, 4)
        assert stream.uniform(0.0, 6.5) == oracle.uniform(0.0, 6.5)
    # ranges that reject often, and the one-value range that draws nothing
    for low, high in ((0, 3 * 2**30 + 1), (-5, 2**31 + 7), (7, 8), (0, 6)):
        assert stream.integers(low, high) == oracle.integers(low, high)
    assert stream.uniform(-1.0, 1.0) == oracle.uniform(-1.0, 1.0)


def test_refusals():
    with pytest.raises(ValueError, match="seed must be non-negative"):
        Stream(-1)
    stream = Stream(0)
    with pytest.raises(ValueError, match="not finite"):
        stream.uniform(-1e308, 1e308)
    with pytest.raises(ValueError, match="not finite"):
        stream.uniform(0.0, [1.0, np.inf])
    with pytest.raises(ValueError, match="high - low"):
        stream.integers(3, 3)
    with pytest.raises(ValueError, match="high - low"):
        stream.integers(0, 2**32)
