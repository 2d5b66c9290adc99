import numpy as np
import pytest

from qbound import philox
from qbound.philox import _philox_words, _strips, keyed_normals

SEEDS = [0, 7, 2 ** 62 + 17, 2 ** 63 + 5, 2 ** 64 - 1]


def numpy_draws(seed, trials, count):
    """Each trial's draws from its own numpy Generator, built from the key."""
    return np.array([np.random.Generator(np.random.Philox(
        key=np.array([seed % 2 ** 64, t], dtype=np.uint64))).standard_normal(count)
        for t in trials]).reshape(len(trials), count)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("blocks", [1, 2, 3])
def test_philox_words_are_numpys_raw_stream(seed, blocks):
    trials = np.array([0, 1, 2, 4095, 4096, 2 ** 40 + 3, 2 ** 64 - 1], dtype=np.uint64)
    ref = np.array([np.random.Philox(key=np.array([seed, t], dtype=np.uint64))
                    .random_raw(4 * blocks) for t in trials])
    assert np.array_equal(_philox_words(seed, trials, blocks), ref)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("count", [1, 2, 5, 6, 8, 16])
def test_keyed_normals_are_numpys_draws_bit_for_bit(seed, count):
    lo, hi = 4090, 4490
    got = keyed_normals(seed, lo, hi, count)
    assert np.array_equal(got.view(np.uint64),
                          numpy_draws(seed, range(lo, hi), count).view(np.uint64))


def test_rows_off_the_first_step_are_drawn_by_numpy():
    """Rows with a word numpy rejects at the ziggurat's first step (strip 1
    always is) take further words; they still match numpy."""
    wi, ki = _strips()
    seed, count = 2 ** 63 + 5, 8
    trials = np.arange(3000, dtype=np.uint64)
    words = _philox_words(seed, trials, 2)
    slow = ~(((words >> np.uint64(9)) & np.uint64(2 ** 52 - 1))
             < ki[(words & np.uint64(0x1FF)).view(np.int64)]).all(axis=1)
    assert 100 < slow.sum() < 1000
    assert ((words[slow] & np.uint64(0xFF)) == 1).any()
    rows = np.flatnonzero(slow)[:60]
    got = keyed_normals(seed, 0, 3000, count)[rows]
    assert np.array_equal(got.view(np.uint64), numpy_draws(seed, rows, count).view(np.uint64))


def test_strip_bounds_are_below_numpys_rejections():
    wi, ki = _strips()
    assert np.array_equal(wi[256:], -wi[:256]) and np.array_equal(ki[256:], ki[:256])
    assert ki[1] == 0 and (ki[2:256] > 2 ** 51).all()
    for s in (0, 2, 100, 255):  # magnitude ki[s] - 1 stops at the first step
        word = np.array([(int(ki[s]) - 1) << 9 | s], dtype=np.uint64)
        bitgen = np.random.SFC64()
        bitgen.state = {"bit_generator": "SFC64", "has_uint32": 0, "uinteger": 0,
                        "state": {"state": np.array([word[0], 0, 0, 0], np.uint64)}}
        x = np.random.Generator(bitgen).standard_normal()
        assert x == (int(ki[s]) - 1) * wi[s]
        assert int(bitgen.state["state"]["state"][3]) == 1


def test_without_tables_every_row_is_drawn_by_numpy(monkeypatch):
    monkeypatch.setattr(philox, "_strips", lambda: None)
    got = keyed_normals(11, 0, 50, 6)
    assert np.array_equal(got.view(np.uint64), numpy_draws(11, range(50), 6).view(np.uint64))
