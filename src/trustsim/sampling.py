"""Deterministic random streams and bounded sampling primitives.

All randomness in the package is drawn from stream keys. A stream is
identified by (seed, path); `RandomStream(seed, *path).key` is its 64-bit
key, and child keys are derived by hashing, so adding a draw in one
substream never perturbs the values of another. The same (seed, path)
always replays the same sequence.

Streams are counter-based (Salmon et al., "Parallel Random Numbers: As
Easy as 1, 2, 3", SC 2011): draw k (k >= 1) of the stream with key K is
the SplitMix64 finaliser applied to K + k * golden-ratio constant. A child
key is one more link of a hash chain over the parent key and the label's
bits. Both are pure functions, so they run over numpy uint64 arrays of keys
and draw numbers, many streams at once: `child_keys` for the chain,
`nth_draws`, `first_uniforms`, `integers` and `permutation` for the draws.
A truncated-Gaussian draw reads one `gaussian_truncations` record and nothing
else, and a categorical draw one `cumulative_weights` vector: the draws are
`truncated_gaussians` and `categoricals`, over arrays of records and
uniforms, a draw of one being an array of one.
Every normal quantile is `NormalDist.inv_cdf`'s, bit for bit:
`standard_normals` takes it per element on arrays shorter than `_VECTOR_MIN`
and from the numpy port of the same algorithm, `_normal_quantiles`, on
longer ones.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import operator
from statistics import NormalDist, StatisticsError

import numpy as np

from .errors import InvalidBounds, integer

# Version of the draw sequence; recorded in every CLI manifest. Bump it
# whenever a change makes the same (seed, path) draw different values.
STREAM_FORMAT = 2

_MASK = (1 << 64) - 1
_PHI = 0x9E3779B97F4A7C15  # SplitMix64 increment: 2**64 / golden ratio, odd
_LABEL_MUL = 0xD1B54A32D192ED03  # odd, so distinct int labels get distinct bits
_ROOT_KEY = 0x243F6A8885A308D3  # digits of pi; the parent of every seed
_UNIT = 2.0 ** -52

_STD = NormalDist()
_SQRT2 = math.sqrt(2.0)
# far-tail intervals can collapse to cdf values of exactly 0 or 1
_P_MIN = math.ulp(0.0)
_P_MAX = 1.0 - 2.0 ** -53


_MIX_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_MUL2 = np.uint64(0x94D049BB133111EB)
_PHI_U64 = np.uint64(_PHI)


def _mix64_array(z) -> np.ndarray:
    """The SplitMix64 finaliser, a bijection on 64-bit integers, over a
    uint64 array: numpy array products wrap mod 2**64. numpy scalars warn on
    that wrap, and a 0-d array turns into one, so a scalar input comes back
    as a 1-element array."""
    z = np.array(z, dtype=np.uint64, ndmin=1)
    z = (z ^ (z >> 30)) * _MIX_MUL1
    z = (z ^ (z >> 27)) * _MIX_MUL2
    return z ^ (z >> 31)


def _digest(data: bytes) -> int:
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


def _label_bits(label) -> int:
    """64 bits standing for one path label. Ints and strs take separate
    branches, so the label 7 and the label "7" name different children."""
    if type(label) is str:
        return _digest(b"s" + label.encode("utf-8"))
    n = operator.index(label)
    if 0 <= n <= _MASK:
        return ((n + 1) * _LABEL_MUL) & _MASK
    return _digest(b"i" + str(n).encode("ascii"))


class RandomStream:
    """A node of the key chain: the 64-bit key of the stream at (seed,
    path). A child's key depends on the parent's key and its labels only,
    so child streams are independent and order-insensitive. Labels are
    strs or ints. Draws come from the array primitives over keys:
    `first_uniforms`, `nth_draws`, `integers` and `permutation`. Every seed
    comes through here and is checked by `errors.integer`.
    """

    __slots__ = ("key",)

    def __init__(self, seed: int, *path):
        self.key = _chain(_ROOT_KEY, (integer("seed", seed), *path))

    @classmethod
    def _from_key(cls, key: int) -> "RandomStream":
        stream = object.__new__(cls)
        stream.key = key
        return stream

    def child(self, *labels) -> "RandomStream":
        return RandomStream._from_key(_chain(self.key, labels))

    def __repr__(self):
        return f"RandomStream(key={self.key:#018x})"


def label_bits(labels) -> np.ndarray:
    """The chain bits of each path label, as a uint64 array."""
    labels = list(labels)
    return np.fromiter(map(_label_bits, labels), dtype=np.uint64, count=len(labels))


def _chain(key: int, labels) -> int:
    """The key below `key` at the path `labels`, one `child_keys` link per label."""
    for bits in label_bits(labels):
        key = child_keys(key, bits)[0]
    return int(key)


def child_keys(keys, bits) -> np.ndarray:
    """One link of the key chain over arrays: element i is the key of
    `child(label)` below stream key keys[i], given bits[i] = the label's
    `label_bits`. Either argument may be one value for all elements."""
    return _mix64_array(np.asarray(keys, dtype=np.uint64) ^ bits)


def nth_draws(keys, k) -> np.ndarray:
    """The k-th 64-bit draw (k >= 1) of the stream with each key in a
    uint64 array; k is one draw number or an array of them, broadcast
    against the keys. A scalar key, like in `_mix64_array`, gives a
    1-element array."""
    step = np.array(k, dtype=np.uint64, ndmin=1) * _PHI_U64
    return _mix64_array(np.array(keys, dtype=np.uint64, ndmin=1) + step)


def first_uniforms(keys) -> np.ndarray:
    """The first draw of the stream with each key in a uint64 array, as a
    uniform on the 2**52 odd multiples of 2**-53: strictly inside (0, 1)."""
    return ((nth_draws(keys, 1) >> 12).astype(np.float64) + 0.5) * _UNIT


_LOW32 = np.uint64(0xFFFFFFFF)


def integers(draws, n) -> np.ndarray:
    """A uniform integer in [0, n) from each 64-bit draw x of a uint64 array,
    by multiply-shift: (x * n) >> 64, summed from the products of n with the
    two 32-bit halves of x, which cannot wrap. n is one bound or an array of
    them, broadcast against the draws, each checked to be an integer in
    1 <= n < 2**32."""
    bounds = np.array(n, ndmin=1)
    # numpy reads true and false among ints as ints
    if (bounds.dtype.kind not in "iu" or not ((1 <= bounds) & (bounds < 1 << 32)).all()
            or isinstance(n, (list, tuple)) and any(isinstance(v, (bool, np.bool_)) for v in n)):
        raise InvalidBounds(f"integers needs integer bounds 1 <= n < 2**32, got {n!r}")
    bounds = bounds.astype(np.uint64)
    draws = np.asarray(draws, dtype=np.uint64)
    return ((draws >> 32) * bounds + ((draws & _LOW32) * bounds >> 32)) >> 32


def permutation(key: int, n: int) -> list:
    """Uniform permutation of range(n) by Fisher-Yates on the stream with
    this key: swap i, for i = n - 1 down to 1, takes draw n - i bounded
    by i + 1."""
    items = list(range(n))
    swaps = integers(nth_draws(key, np.arange(1, n)), np.arange(n, 1, -1)).tolist()
    for i, j in zip(range(n - 1, 0, -1), swaps):
        items[i], items[j] = items[j], items[i]
    return items


# Wichura's AS241 (Appl. Stat. 37, 1988) coefficients, highest power
# first, as `NormalDist.inv_cdf` holds them: the numerator and denominator
# of the central branch (|p - 0.5| <= 0.425), of the tail for r <= 5 and
# of the far tail.
_CENTRAL_NUM = (2.50908_09287_30122_6727e+3, 3.34305_75583_58812_8105e+4,
                6.72657_70927_00870_0853e+4, 4.59219_53931_54987_1457e+4,
                1.37316_93765_50946_1125e+4, 1.97159_09503_06551_4427e+3,
                1.33141_66789_17843_7745e+2, 3.38713_28727_96366_6080e+0)
_CENTRAL_DEN = (5.22649_52788_52854_5610e+3, 2.87290_85735_72194_2674e+4,
                3.93078_95800_09271_0610e+4, 2.12137_94301_58659_5867e+4,
                5.39419_60214_24751_1077e+3, 6.87187_00749_20579_0830e+2,
                4.23133_30701_60091_1252e+1, 1.0)
_NEAR_NUM = (7.74545_01427_83414_07640e-4, 2.27238_44989_26918_45833e-2,
             2.41780_72517_74506_11770e-1, 1.27045_82524_52368_38258e+0,
             3.64784_83247_63204_60504e+0, 5.76949_72214_60691_40550e+0,
             4.63033_78461_56545_29590e+0, 1.42343_71107_49683_57734e+0)
_NEAR_DEN = (1.05075_00716_44416_84324e-9, 5.47593_80849_95344_94600e-4,
             1.51986_66563_61645_71966e-2, 1.48103_97642_74800_74590e-1,
             6.89767_33498_51000_04550e-1, 1.67638_48301_83803_84940e+0,
             2.05319_16266_37758_82187e+0, 1.0)
_FAR_NUM = (2.01033_43992_92288_13265e-7, 2.71155_55687_43487_57815e-5,
            1.24266_09473_88078_43860e-3, 2.65321_89526_57612_30930e-2,
            2.96560_57182_85048_91230e-1, 1.78482_65399_17291_33580e+0,
            5.46378_49111_64114_36990e+0, 6.65790_46435_01103_77720e+0)
_FAR_DEN = (2.04426_31033_89939_78564e-15, 1.42151_17583_16445_88870e-7,
            1.84631_83175_10054_68180e-5, 7.86869_13114_56132_59100e-4,
            1.48753_61290_85061_48525e-2, 1.36929_88092_27358_05310e-1,
            5.99832_20655_58879_37690e-1, 1.0)
# Arrays at least this long take `_normal_quantiles`, shorter ones
# `inv_cdf` per element: the two cost the same at about 600-700 elements
# on a two-core x86-64 host (the kernel's fixed cost is some 65 µs, the
# per-element path about 0.14 µs an element), so this cut keeps a margin.
_VECTOR_MIN = 1024


def _horner(coefficients, r: np.ndarray) -> np.ndarray:
    """The polynomial with these coefficients, highest power first, at each
    element of r, as ((c0 * r + c1) * r + c2) ... + c7, in place."""
    acc = coefficients[0] * r
    acc += coefficients[1]
    for c in coefficients[2:]:
        acc *= r
        acc += c
    return acc


def _normal_quantiles(p) -> np.ndarray:
    """`NormalDist().inv_cdf` on each element of a float64 array, bit for bit,
    in numpy: AS241 in `inv_cdf`'s operation order, each branch on the
    elements it takes. numpy's add, multiply, divide and sqrt round
    correctly, as C's do; its log differs from `math.log` in the last bit on
    some inputs, so the tail takes `math.log` per element. Like
    `inv_cdf`, it raises StatisticsError unless 0 < p < 1, and NaN gives
    NaN."""
    p = np.asarray(p, dtype=np.float64)
    if ((p <= 0.0) | (p >= 1.0)).any():
        raise StatisticsError("p must be in the range 0.0 < p < 1.0")
    q = p - 0.5
    x = np.empty_like(q)
    central = np.abs(q) <= 0.425
    qc = q[central]
    r = 0.180625 - qc * qc
    num = _horner(_CENTRAL_NUM, r)
    num *= qc
    num /= _horner(_CENTRAL_DEN, r)
    x[central] = num
    tail = ~central
    qt = q[tail]
    r = np.where(qt <= 0.0, p[tail], 1.0 - p[tail])
    r = np.sqrt(-np.fromiter(map(math.log, r.tolist()), dtype=np.float64, count=len(r)))
    near = r <= 5.0
    for branch, shift, top, bottom in ((near, 1.6, _NEAR_NUM, _NEAR_DEN),
                                       (~near, 5.0, _FAR_NUM, _FAR_DEN)):
        rb = r[branch] - shift
        r[branch] = _horner(top, rb) / _horner(bottom, rb)
    x[tail] = np.where(qt < 0.0, -r, r)
    # inv_cdf returns mu + x * sigma, here 0.0 + x * 1.0
    x *= 1.0
    x += 0.0
    return x


def standard_normals(u) -> np.ndarray:
    """`inv_cdf` of the standard normal on each uniform of an array, bit
    for bit as `statistics.NormalDist` computes it: through the numpy
    kernel `_normal_quantiles` from `_VECTOR_MIN` elements on, element by
    element below, where the kernel's fixed cost outweighs it."""
    u = np.asarray(u, dtype=np.float64)
    if len(u) >= _VECTOR_MIN:
        return _normal_quantiles(u)
    return np.fromiter(map(_STD.inv_cdf, u.tolist()), dtype=np.float64, count=len(u))


def _erfc(x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.erfc, x.tolist()), dtype=np.float64, count=len(x))


def gaussian_truncations(mean, sd, lo, hi) -> np.ndarray:
    """The records that draws from N(mean[i], sd[i]) truncated to [lo, hi]
    read, unchecked: row i of the (n, 6) result is (mean, c_lo, span, scale, lo,
    hi) for mean[i] and sd[i] (finite, >= 0), each bound one value or one
    per element with lo < hi. The draw on a uniform u is
    mean + scale * inv_cdf(c_lo + u * span), clamped to [lo, hi]. sd == 0
    gives scale 0 and p = 0.5, so the draw is the clamped mean. The
    arithmetic is elementwise and `math.erfc` runs per element, so every
    record equals the scalar oracle's in `tests/conftest.py` bit for bit."""
    mean, sd = np.asarray(mean, dtype=np.float64), np.asarray(sd, dtype=np.float64)
    lo, hi = (np.broadcast_to(np.asarray(bound, dtype=np.float64), mean.shape)
              for bound in (lo, hi))
    # sd == 0 divides by zero; those records are replaced below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a, b = (lo - mean) / sd, (hi - mean) / sd
        mirrored = a + b > 0
        a, b = np.where(mirrored, -b, a), np.where(mirrored, -a, b)
        c_lo = 0.5 * _erfc(-a / _SQRT2)
        span = 0.5 * _erfc(-b / _SQRT2) - c_lo
    flat = sd == 0
    return np.column_stack([mean, np.where(flat, 0.5, c_lo), np.where(flat, 0.0, span),
                            np.where(flat, 0.0, np.where(mirrored, -sd, sd)), lo, hi])


def truncated_gaussians(truncations, u) -> np.ndarray:
    """Draws from truncated Gaussians: element i draws on uniform u[i] from
    record i of `truncations`, `gaussian_truncations` records (n x 6), or
    from one record for every element. The draw is
    clamp(mean + scale * inv_cdf(p), lo, hi) with p = c_lo + u * span
    clamped into (0, 1), a single inverse-CDF step on one uniform, so every
    draw costs the same however far into a tail [lo, hi] lies; scale 0 (sd
    0) degenerates to clamp(mean, lo, hi).

    The quantiles are `standard_normals`, `inv_cdf` bit for bit, and the
    arithmetic is elementwise, so the values equal, bit for bit, the scalar
    draw kept as the oracle in `tests/conftest.py`. Overflow to inf and
    inf - inf pass silently, as in Python float arithmetic.
    """
    mean, c_lo, span, scale, lo, hi = np.asarray(
        truncations, dtype=np.float64).reshape(-1, 6).T
    z = standard_normals(np.minimum(np.maximum(c_lo + u * span, _P_MIN), _P_MAX))
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.where(scale == 0, mean, mean + scale * z)
    return np.minimum(np.maximum(x, lo), hi)


def cumulative_weights(probs) -> list:
    """Running sums of a categorical's weight vector, checked to be
    non-empty and non-negative with a positive finite total."""
    if len(probs) == 0:
        raise InvalidBounds("categorical needs a non-empty weight vector")
    if min(probs) < 0:
        raise InvalidBounds("categorical weights must be non-negative")
    cumulative = list(itertools.accumulate(probs))
    total = cumulative[-1]
    if not 0 < total < math.inf:
        raise InvalidBounds(f"categorical weights must have a positive finite sum, "
                            f"got {total}")
    return cumulative


def categoricals(cumulatives, u) -> np.ndarray:
    """The index each row draws: row i of the (n, k) array `cumulatives` is
    a `cumulative_weights` vector and u[i] its uniform. The index is the
    first whose cumulative weight exceeds the target u[i] * total, so it
    never has zero weight; a target that rounds up to the total, which only
    a sum near the subnormal range gives, takes the first index that
    reaches the total. Counting `cum <= target` and `cum < total` over a
    non-decreasing row is bisect_right and bisect_left, as the scalar oracle
    in `tests/conftest.py` computes them."""
    total = cumulatives[:, -1:]
    target = u[:, None] * total
    return np.minimum((cumulatives <= target).sum(axis=1),
                      (cumulatives < total).sum(axis=1))
