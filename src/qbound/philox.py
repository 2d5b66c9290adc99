"""Standard normals of per-trial keyed Philox streams, a block of trials at once.

Row ``i`` of ``keyed_normals(seed, lo, hi, count)`` is the first ``count``
draws of ``Generator(Philox(key=(seed, lo + i))).standard_normal``, bit for
bit. numpy draws such a row one trial at a time, at about 1.5 us of Python a
trial; here the whole block is array arithmetic:

- the Philox4x64-10 blocks (Salmon et al., SC'11) of every trial's key at
  counters 1, 2, ... are formed for all trials together in uint64 words;
- each word takes the first step of numpy's 256-strip normal ziggurat:
  strip ``w & 0xff``, sign bit 8, 52-bit magnitude ``m = w >> 9``, value
  ``m * wi[strip]``, accepted when ``m < ki[strip]`` (98.5% of words);
- a trial with a word that numpy does not accept at that step (it then
  draws further words) is drawn by numpy itself.

The strip tables are read off numpy's own generator on first use, by
feeding it chosen words through an SFC64 whose state makes it emit them,
and then checked on whole trials against numpy; if that check fails, every
trial is drawn by numpy.
"""

from __future__ import annotations

import functools

import numpy as np

_MASK64 = (1 << 64) - 1
_LO32 = np.uint64(0xFFFFFFFF)
_MAG_BITS = 52
_MULTIPLIERS = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_ROUNDS = 10
_CHECK_SEED = 0x5DEECE66D
_CHECK_TRIALS = 512


def _mulhilo(x: np.ndarray, m: np.uint64) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products ``m * x``."""
    m_lo, m_hi = m & _LO32, m >> np.uint64(32)
    x_lo, x_hi = x & _LO32, x >> np.uint64(32)
    t = x_hi * m_lo + ((x_lo * m_lo) >> np.uint64(32))
    u = (t & _LO32) + x_lo * m_hi
    return x_hi * m_hi + (t >> np.uint64(32)) + (u >> np.uint64(32)), x * m


def _philox_words(seed: int, trials: np.ndarray, blocks: int) -> np.ndarray:
    """(n, 4 * blocks) uint64: the words numpy's Philox keyed (seed, t) emits
    first, for each trial t, from counter 0 with an empty buffer. Counter
    block c = 1, 2, ... of every trial is one lane; round 0 multiplies only
    c, and round 1 multiplies the seed's word once for all lanes."""
    n = trials.shape[0]
    k1 = np.tile(trials, blocks)
    hi, lo = _mulhilo(np.arange(1, blocks + 1, dtype=np.uint64), _MULTIPLIERS[0])
    x0, x1, x2, x3 = np.uint64(seed), np.uint64(0), np.repeat(hi, n) ^ k1, np.repeat(lo, n)
    with np.errstate(over="ignore"):  # x0 is a numpy scalar in round 1, and it wraps
        for r in range(1, _ROUNDS):
            k0 = np.uint64((seed + r * _WEYL[0]) & _MASK64)
            k1 += np.uint64(_WEYL[1])
            hi0, lo0 = _mulhilo(x0, _MULTIPLIERS[0])
            hi1, lo1 = _mulhilo(x2, _MULTIPLIERS[1])
            x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
    words = np.stack([x0, x1, x2, x3], axis=-1).reshape(blocks, n, 4)
    return words.transpose(1, 0, 2).reshape(n, 4 * blocks)


def _ziggurat_step(words: np.ndarray, wi: np.ndarray, ki: np.ndarray):
    """Values of the words at the ziggurat's first step, and whether numpy
    stops there. The tables run over the strip and the sign bit together:
    ``wi[256 + s]`` is ``-wi[s]``, and m * -w is -(m * w) bit for bit."""
    strip = (words & np.uint64(0x1FF)).view(np.int64)
    mag = (words >> np.uint64(9)) & np.uint64((1 << _MAG_BITS) - 1)
    return mag.astype(np.float64) * wi.take(strip), mag < ki.take(strip)


def _numpy_rows(seed: int, trials: list[int], count: int) -> np.ndarray:
    """The rows drawn by numpy: one Philox, re-keyed for each trial through
    its state setter (counter 0, empty buffer)."""
    bitgen = np.random.Philox()
    standard_normal = np.random.Generator(bitgen).standard_normal
    key = [seed & _MASK64, 0]
    state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    rows = np.empty((len(trials), count))
    for i, t in enumerate(trials):
        key[1] = t
        bitgen.state = state
        standard_normal(out=rows[i])
    return rows


@functools.cache
def _strips():
    """(wi, ki) of numpy's normal ziggurat over strip and sign, or None if
    the first step with them does not reproduce numpy's draws. ``wi[s]`` is
    the value of magnitude 1 in strip s. Below ``ki[s]`` numpy stops at the
    first step; ``ki[s]`` is the strip ratio 2**52 wi[s-1]/wi[s] less 2,
    checked with one probe, or found by bisection where that probe fails
    (strips 0 and 1)."""
    bitgen = np.random.SFC64()
    normal = np.random.Generator(bitgen).standard_normal

    def first_step(strip: int, mag: int) -> tuple[float, bool]:
        # SFC64 emits s0 + s1 + s3 first, so state (w, 0, 0, 0) emits w.
        bitgen.state = {"bit_generator": "SFC64", "has_uint32": 0, "uinteger": 0,
                        "state": {"state": np.array([mag << 9 | strip, 0, 0, 0], np.uint64)}}
        x = normal()
        return x, int(bitgen.state["state"]["state"][3]) == 1

    top = 1 << _MAG_BITS
    wi = np.array([first_step(s, 1)[0] for s in range(256)])
    ki = np.zeros(256, dtype=np.uint64)
    for s in range(256):
        bound = int(top * wi[s - 1] / wi[s]) - 2 if s >= 1 else 0
        if not (1 <= bound < top and first_step(s, bound - 1)[1]):
            lo, hi = 0, top  # numpy stops below lo and not at hi
            while lo < hi:
                mid = (lo + hi) // 2
                lo, hi = (mid + 1, hi) if first_step(s, mid)[1] else (lo, mid)
            bound = lo
        ki[s] = bound
    wi, ki = np.concatenate([wi, -wi]), np.concatenate([ki, ki])
    trials = np.arange(_CHECK_TRIALS, dtype=np.uint64)
    x, fast = _ziggurat_step(_philox_words(_CHECK_SEED, trials, 2), wi, ki)
    ref = _numpy_rows(_CHECK_SEED, trials.tolist(), 8)
    ok = fast.all(axis=1)
    if not (ok.mean() > 0.5 and np.array_equal(x[ok].view(np.uint64), ref[ok].view(np.uint64))):
        return None
    return wi, ki


def keyed_normals(seed: int, lo: int, hi: int, count: int) -> np.ndarray:
    """(hi - lo, count) draws: row i is the first ``count`` standard normals
    of the Philox keyed by the uint64 pair (seed mod 2**64, lo + i)."""
    seed &= _MASK64
    tables = _strips()
    if tables is None:
        return _numpy_rows(seed, list(range(lo, hi)), count)
    trials = np.arange(lo, hi, dtype=np.uint64)
    words = _philox_words(seed, trials, -(-count // 4))[:, :count]
    x, fast = _ziggurat_step(words, *tables)
    slow = np.flatnonzero(~fast.all(axis=1))
    if slow.size:
        x[slow] = _numpy_rows(seed, trials[slow].tolist(), count)
    return x
