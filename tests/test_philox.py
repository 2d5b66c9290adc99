"""The Monte Carlo streams are numpy's own Philox streams: chunk c of seed s
is ``Generator(Philox(key=(s mod 2**64, c)))``, and its rows are that
generator's ``standard_normal((m, 2 * dim))`` draws, real parts first."""

import numpy as np
import pytest

from qbound.haarmc import _CHUNK, _chunk_rows, _norms, trial_rng

SEEDS = [0, 7, 2 ** 62 + 17, 2 ** 63 + 5, 2 ** 64 - 1]


def numpy_rows(seed, trials, dim):
    """A run's Haar rows built chunk by chunk from numpy Generators made from the key."""
    rows = []
    for c, lo in enumerate(range(0, trials, _CHUNK)):
        gen = np.random.Generator(np.random.Philox(
            key=np.array([seed % 2 ** 64, c], dtype=np.uint64)))
        draws = gen.standard_normal((min(_CHUNK, trials - lo), 2 * dim))
        z = draws[:, :dim] + 1j * draws[:, dim:]
        rows.append(z / _norms(z)[:, None])
    return np.concatenate(rows)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("blocks", [1, 2, 3])
def test_philox_words_are_numpys_raw_stream(seed, blocks):
    chunks = [0, 1, 2, 4095, 4096, 2 ** 40 + 3, 2 ** 64 - 1]
    for c in chunks:
        ref = np.random.Philox(key=np.array([seed, c], dtype=np.uint64)).random_raw(4 * blocks)
        assert np.array_equal(trial_rng(seed, c).bit_generator.random_raw(4 * blocks), ref)
        # The key is the exact pair mod 2**64: no hashing of either word.
        assert np.array_equal(
            trial_rng(seed + 2 ** 64, c + 2 ** 64).bit_generator.random_raw(4 * blocks), ref)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("count", [1, 2, 5, 6, 8, 16])
def test_keyed_normals_are_numpys_draws_bit_for_bit(seed, count):
    lo, hi = 4090, 4490  # across the first chunk boundary, into a partial chunk
    got = np.concatenate(list(_chunk_rows(count, seed, hi)))[lo:]
    assert got.shape == (hi - lo, count)
    assert np.array_equal(got.view(np.uint64), numpy_rows(seed, hi, count)[lo:].view(np.uint64))
