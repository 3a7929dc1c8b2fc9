"""numpy's seeding and draws, computed on whole numpy arrays, bit for bit.

`seed_sequence_words` hashes rows of uint32 entropy into the uint64 words
`SeedSequence(row).generate_state(4, np.uint64)` gives; `normal_rows`
draws from each row of words what `Generator(PCG64(...)).normal(size=k)`
draws; `RawWords` decodes one generator's next 64-bit words in blocks.

PCG64 (O'Neill 2014) is a 128-bit LCG, state <- state * M + inc, whose
64-bit output is the XSL-RR of the new state; here the state is two
uint64 limbs per row.  numpy's `normal` is the Marsaglia-Tsang ziggurat,
which returns on its first 64-bit word about 99.3% of the time; a row
with a draw that does not is redrawn by numpy's own generator, since a
rejected draw takes more words and shifts every later draw of the row.
The ziggurat's tables are read off the installed numpy once per process.

Imported on a separable instance's generation or a noisy predictor's
first draw, so that `import cocomem` does not compile it.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# ---------------------------------------------------------------------------
# SeedSequence's hash

# SeedSequence's pool hash (numpy.random.bit_generator): a pool of four
# uint32 words, hashed and mixed with these multipliers and a 16-bit shift
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_POOL_SIZE = 4


def _hash_steps(init: int, mult: int):
    """The (xor, multiplier) uint32 scalars of successive hash steps: the
    hash constant before and after each multiply, which do not depend on
    the data."""
    const = init
    while True:
        nxt = const * mult & 0xFFFFFFFF
        yield np.uint32(const), np.uint32(nxt)
        const = nxt


def seed_sequence_words(entropy: np.ndarray) -> np.ndarray:
    """The (N, 4) uint64 words `SeedSequence(row).generate_state(4,
    np.uint64)` gives for each row of an (N, L) uint32 entropy array,
    L >= 5, hashed for all rows at once.  Every operand is a uint32 array
    or an `np.uint32` scalar, so each product wraps modulo 2^32 under any
    numpy promotion rule."""
    if entropy.dtype != np.uint32 or entropy.ndim != 2 or entropy.shape[1] <= _POOL_SIZE:
        raise ValueError(f"need an (N, L >= 5) uint32 entropy array, got {entropy.dtype} {entropy.shape}")

    def hashmix(value, steps):
        xor, mult = next(steps)
        value = (value ^ xor) * mult
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        out = _MIX_MULT_L * x - _MIX_MULT_R * y
        return out ^ (out >> _XSHIFT)

    # the pool: the first four words hashed, mixed into each other, then
    # every later word mixed into each pool word
    steps = _hash_steps(_HASH_INIT_A, _HASH_MULT_A)
    pool = [hashmix(entropy[:, k], steps) for k in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src], steps))
    for src in range(_POOL_SIZE, entropy.shape[1]):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src], steps))
    # eight output words cycling over the pool, paired low word first
    steps = _hash_steps(_HASH_INIT_B, _HASH_MULT_B)
    words = np.empty((len(entropy), 4), dtype=np.uint64)
    for k in range(4):
        low = hashmix(pool[2 * k % _POOL_SIZE], steps)
        high = hashmix(pool[(2 * k + 1) % _POOL_SIZE], steps)
        words[:, k] = high.astype(np.uint64) << np.uint64(32) | low
    return words


class Words(ISeedSequence):
    """A seed sequence with precomputed state: PCG64 seeds itself from
    `generate_state(4, np.uint64)`, which returns the stored row."""

    def __init__(self, row: np.ndarray):
        self._row = row

    def generate_state(self, n_words, dtype=np.uint32):
        return self._row


# ---------------------------------------------------------------------------
# PCG64 in uint64 limbs

_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's default 128-bit multiplier
_MOD = 1 << 128
# every constant an np.uint64 scalar, so no operand promotes to float
_M_HI, _M_LO = np.uint64(_MULT >> 64), np.uint64(_MULT & 0xFFFFFFFFFFFFFFFF)
_M_LO_0, _M_LO_1 = np.uint64(_MULT & 0xFFFFFFFF), np.uint64(_MULT >> 32 & 0xFFFFFFFF)
_LOW32 = np.uint64(0xFFFFFFFF)
_ONE, _32, _58, _63, _64 = (np.uint64(v) for v in (1, 32, 58, 63, 64))


def _step(hi, lo, inc_hi, inc_lo, a, b, c) -> None:
    """state <- state * M + inc mod 2^128 in place, over rows of uint64
    limbs (hi, lo); a, b, c are scratch arrays of the same length.  The
    high word of lo * M_lo is summed from 32-bit partial products."""
    np.bitwise_and(lo, _LOW32, out=a)           # lo0
    np.right_shift(lo, _32, out=b)              # lo1
    np.multiply(a, _M_LO_1, out=c)              # lo0 * m1
    np.multiply(a, _M_LO_0, out=a)              # lo0 * m0
    np.right_shift(a, _32, out=a)
    hi *= _M_LO
    hi += c >> _32
    c &= _LOW32
    a += c                                      # carries of the middle column
    np.multiply(b, _M_LO_0, out=c)              # lo1 * m0
    hi += c >> _32
    c &= _LOW32
    a += c
    a >>= _32
    hi += a
    b *= _M_LO_1                                # lo1 * m1
    hi += b
    np.multiply(lo, _M_HI, out=a)
    hi += a
    lo *= _M_LO
    lo += inc_lo
    hi += inc_hi
    hi += lo < inc_lo                           # carry of the low word


def _outputs(words: np.ndarray, k: int) -> np.ndarray:
    """The first k 64-bit outputs of `PCG64(Words(row))` for each row of
    (n, 4) uint64 words, as an (n, k) uint64 array.  Seeding follows
    numpy's `pcg64_set_seed`: s = w0 2^64 + w1, inc = 2 (w2 2^64 + w3) + 1,
    state = s + inc, then one step; each output steps first and returns
    rotr64(hi ^ lo, hi >> 58)."""
    n = len(words)
    w = words.T.copy()  # a copy: hi and lo are updated in place
    inc_hi = (w[2] << _ONE) | (w[3] >> _63)
    inc_lo = (w[3] << _ONE) | _ONE
    hi, lo = w[0], w[1]
    lo += inc_lo
    hi += inc_hi
    hi += lo < inc_lo
    a, b, c = np.empty(n, np.uint64), np.empty(n, np.uint64), np.empty(n, np.uint64)
    _step(hi, lo, inc_hi, inc_lo, a, b, c)
    out = np.empty((k, n), np.uint64)
    for col in range(k):
        _step(hi, lo, inc_hi, inc_lo, a, b, c)
        np.right_shift(hi, _58, out=a)          # rotation
        np.bitwise_xor(hi, lo, out=b)
        np.right_shift(b, a, out=out[col])
        np.subtract(_64, a, out=a)
        b <<= a                                 # numpy shifts all bits out at 64
        out[col] |= b
    return out.T


# ---------------------------------------------------------------------------
# The ziggurat

_MASK52 = np.uint64((1 << 52) - 1)
_8, _9, _BYTE = np.uint64(8), np.uint64(9), np.uint64(0xFF)


def _ziggurat_rows(r: np.ndarray, wi: np.ndarray, ki: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values, accepted) of numpy's `normal()` fast path on 64-bit words r:
    layer idx = r & 0xFF, sign = bit 8, rabs = the next 52 bits, value
    +-rabs wi[idx], returned iff rabs < ki[idx]; `normal` adds loc = 0.0,
    which turns -0.0 into 0.0."""
    idx = (r & _BYTE).astype(np.intp)
    rabs = (r >> _9) & _MASK52
    accepted = rabs < ki[idx]
    x = rabs.astype(float)
    x *= wi[idx]
    np.negative(x, out=x, where=((r >> _8) & _ONE).astype(bool))
    x += 0.0
    return x, accepted


def normal_rows(words: np.ndarray, k: int) -> np.ndarray:
    """The (n, k) float array whose row j is
    `Generator(PCG64(Words(words[j]))).normal(size=k)`, for (n, 4) uint64
    words."""
    return _normal_rows(words, k, *_tables())


def _normal_rows(words, k, wi, ki) -> np.ndarray:
    """`normal_rows` with the tables given."""
    x, accepted = _ziggurat_rows(_outputs(words, k), wi, ki)
    for j in np.flatnonzero(~accepted.all(axis=1)).tolist():
        x[j] = np.random.Generator(np.random.PCG64(Words(words[j]))).normal(size=k)
    return x


def _derive() -> tuple[np.ndarray, np.ndarray]:
    """(wi, ki) read off the installed numpy by probing its generator with
    chosen next outputs u: the probe's state is set one step before the
    state (hi = 0, lo = u), whose output is u.  wi[idx] is the draw of
    rabs = 1 (on layers whose fast path rejects it, the slow path returns
    the same x).  ki[idx] is floor(2^52 wi[idx - 1] / wi[idx] (1 - 2^-30)),
    a little under numpy's threshold, kept if a probe at ki - 1 returns
    after one step, else 0 (numpy's ki[1] is 0).  For the base layer 0,
    wi[-1] / wi[0] is r f(r) / v, the share of its strip that is a
    rectangle."""
    bits = np.random.PCG64(Words(np.zeros(4, np.uint64)))
    gen, back, inc = np.random.Generator(bits), pow(_MULT, -1, _MOD), 1

    def one_step(u: int) -> tuple[float, bool]:
        bits.state = {"bit_generator": "PCG64", "state": {"state": (u - inc) * back % _MOD,
                                                          "inc": inc},
                      "has_uint32": 0, "uinteger": 0}
        x = gen.standard_normal()
        return x, bits.state["state"]["state"] == u

    wi = np.array([one_step(1 << 9 | idx)[0] for idx in range(256)])
    with np.errstate(all="ignore"):  # a numpy laid out otherwise may give any wi
        limit = np.nan_to_num(2.0**52 * np.roll(wi, 1) / wi * (1 - 2.0**-30), posinf=2.0**52)
    ki = np.zeros(256, np.uint64)
    for idx, k in enumerate(np.clip(limit, 0, 2.0**52).astype(np.int64).tolist()):
        if k > 0 and one_step((k - 1) << 9 | idx)[1]:
            ki[idx] = k
    return wi, ki


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray]:
    """The derived (wi, ki), checked against numpy's generator on 128 fixed
    rows of 4 draws; on any difference every threshold is 0, so that every
    row takes numpy's own path."""
    wi, ki = _derive()
    words = np.arange(512, dtype=np.uint64).reshape(128, 4) * _M_HI
    want = _normal_rows(words, 4, wi, np.zeros_like(ki))  # numpy's path for every row
    if _normal_rows(words, 4, wi, ki).tobytes() != want.tobytes():
        ki[:] = 0
    wi.flags.writeable = ki.flags.writeable = False  # shared by every caller
    return wi, ki


# ---------------------------------------------------------------------------
# One generator's words

@functools.cache
def uniform_exact() -> bool:
    """Whether numpy's `uniform(a, b)` is a + (b - a) u, u the word's double,
    each step rounded, on 256 probes: false where numpy's C fuses it."""
    k, gen = np.arange(1.0, 257.0), np.random.default_rng(0)
    low, high, u = 1 / k, 1 / k + 3 / (k + 2), np.random.default_rng(0).random(len(k))
    got = [gen.uniform(a, b) for a, b in zip(low.tolist(), high.tolist())]
    return got == (low + (high - low) * u).tolist()


class RawWords:
    """A generator's next 64-bit words `raw`, drawn with `random_raw` in
    blocks (`extend`) and decoded a block at once: word j's `random()`
    double (w >> 11) 2^-53 `u[j]`, `below[j]` = u[j] < `threshold`, and
    `normal[j]` = its `normal()` if `fast[j]`, which returns on it alone."""

    def __init__(self, gen: np.random.Generator, threshold: float):
        self.gen, self.bits, self.threshold = gen, gen.bit_generator, threshold
        self.start = self.end = self.bits.state
        self.raw, self.u, self.normal = np.empty(0, np.uint64), np.empty(0), np.empty(0)
        self.below = self.fast = b""

    def extend(self, n: int) -> None:
        self.bits.state = self.end
        raw = self.bits.random_raw(n)
        self.end = self.bits.state
        u, (normal, fast) = (raw >> np.uint64(11)) * 2.0**-53, _ziggurat_rows(raw, *_tables())
        self.raw, self.u, self.normal = (np.concatenate(pair) for pair in
                                         ((self.raw, raw), (self.u, u), (self.normal, normal)))
        self.below += (u < self.threshold).tobytes()
        self.fast += fast.tobytes()

    def draw(self, j: int, uint32: tuple[int, int], fn) -> tuple:
        """(fn(gen), k, uint32 after): fn run on numpy's generator from word j
        with PCG64's uint32 buffer (has_uint32, uinteger), k the word after
        its last, counted by stepping the LCG at most 4096 times."""
        self.bits.state = self.start
        state = self.bits.advance(j).state  # advancing clears the buffer
        self.bits.state = dict(state, has_uint32=uint32[0], uinteger=uint32[1])
        value, after = fn(self.gen), self.bits.state
        s, inc = state["state"]["state"], state["state"]["inc"]
        for k in range(j, j + 4096):
            if s == after["state"]["state"]:
                return value, k, (after["has_uint32"], after["uinteger"])
            s = (s * _MULT + inc) % _MOD
        raise RuntimeError(f"numpy's draw from word {j} took more than 4096 words")
