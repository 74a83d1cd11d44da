"""Deterministic random streams and bounded sampling primitives.

All randomness in the package flows through RandomStream. A stream is
identified by (seed, path); child streams are derived by hashing, so adding
a draw in one substream never perturbs the values of another. The same
(seed, path) always replays the same sequence.

Streams are counter-based (Salmon et al., "Parallel Random Numbers: As
Easy as 1, 2, 3", SC 2011): a stream is a 64-bit key plus a draw counter,
and draw k is the SplitMix64 finaliser applied to key + k * golden-ratio
constant. A child key is one more link of a hash chain over the parent key
and the label, so a substream costs a few integer operations to create.
Because a draw is a pure function of (key, counter), the chain and the first
draws of many streams can also be computed at once over numpy uint64 arrays
(`child_keys`, `first_uniforms`), with the same bits as one stream at a time.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import math
import operator
from statistics import NormalDist

import numpy as np

from .errors import InvalidBounds

# Version of the draw sequence; recorded in every CLI manifest. Bump it
# whenever a change makes the same (seed, path) draw different values.
STREAM_FORMAT = 2

_MASK = (1 << 64) - 1
_PHI = 0x9E3779B97F4A7C15  # SplitMix64 increment: 2**64 / golden ratio, odd
_LABEL_MUL = 0xD1B54A32D192ED03  # odd, so distinct int labels get distinct bits
_ROOT_KEY = 0x243F6A8885A308D3  # digits of pi; the parent of every seed
_UNIT = 2.0 ** -52

# String labels are few (field names, user ids) and reused on every
# episode and dialog, so their digests are memoised up to this many.
_STR_MEMO_CAP = 1 << 14
_str_bits: dict = {}

_STD = NormalDist()
_SQRT2 = math.sqrt(2.0)
# far-tail intervals can collapse to cdf values of exactly 0 or 1
_P_MIN = math.ulp(0.0)
_P_MAX = 1.0 - 2.0 ** -53


def _mix64(z: int) -> int:
    """SplitMix64 finaliser: a bijection on 64-bit integers."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


_MIX_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_MUL2 = np.uint64(0x94D049BB133111EB)


def _mix64_array(z) -> np.ndarray:
    """`_mix64` over a uint64 array: numpy array products wrap mod 2**64, as
    the `& _MASK` does for ints. numpy scalars warn on that wrap, and a 0-d
    array turns into one, so a scalar input comes back as a 1-element array."""
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
        bits = _str_bits.get(label)
        if bits is None:
            bits = _digest(b"s" + label.encode("utf-8"))
            if len(_str_bits) < _STR_MEMO_CAP:
                _str_bits[label] = bits
        return bits
    n = operator.index(label)
    if 0 <= n <= _MASK:
        return ((n + 1) * _LABEL_MUL) & _MASK
    return _digest(b"i" + str(n).encode("ascii"))


def _chain(key: int, labels) -> int:
    for label in labels:
        key = _mix64(key ^ _label_bits(label))
    return key


class RandomStream:
    """Hierarchical deterministic random stream.

    Repeated draws on one stream advance its counter, while `child`
    streams are statistically independent and order-insensitive: a
    child's key depends on the parent's key and its labels only.
    Labels are strs or ints.
    """

    __slots__ = ("key", "_drawn")

    def __init__(self, seed: int, *path):
        self.key = _chain(_ROOT_KEY, (operator.index(seed), *path))
        self._drawn = 0

    @classmethod
    def _from_key(cls, key: int) -> "RandomStream":
        stream = object.__new__(cls)
        stream.key = key
        stream._drawn = 0
        return stream

    def child(self, *labels) -> "RandomStream":
        return RandomStream._from_key(_chain(self.key, labels))

    def _next64(self) -> int:
        self._drawn = k = self._drawn + 1
        return _mix64((self.key + k * _PHI) & _MASK)

    def random(self) -> float:
        """Uniform on the 2**52 odd multiples of 2**-53: strictly inside (0, 1)."""
        return ((self._next64() >> 12) + 0.5) * _UNIT

    def integers(self, n: int) -> int:
        """Uniform integer in [0, n), by multiply-shift on the 64-bit draw."""
        if n < 1:
            raise InvalidBounds(f"integers needs n >= 1, got {n}")
        return (self._next64() * n) >> 64

    def normal(self, mean: float = 0.0, sd: float = 1.0) -> float:
        """Gaussian draw by the inverse CDF of one uniform."""
        return mean + sd * _STD.inv_cdf(self.random())

    def permutation(self, n: int) -> list:
        """Uniform permutation of range(n) by Fisher-Yates."""
        items = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self.integers(i + 1)
            items[i], items[j] = items[j], items[i]
        return items

    def __repr__(self):
        return f"RandomStream(key={self.key:#018x}, drawn={self._drawn})"


def label_bits(labels) -> np.ndarray:
    """The chain bits of each path label, as a uint64 array."""
    labels = list(labels)
    return np.fromiter(map(_label_bits, labels), dtype=np.uint64, count=len(labels))


def child_keys(keys, bits) -> np.ndarray:
    """One link of the key chain over arrays: element i is the key of
    `child(label)` below stream key keys[i], given bits[i] = the label's
    `label_bits`. Either argument may be one value for all elements."""
    return _mix64_array(np.asarray(keys, dtype=np.uint64) ^ bits)


_PHI_U64 = np.uint64(_PHI)


def first_uniforms(keys) -> np.ndarray:
    """`random()` of a fresh stream with each key in a uint64 array (a
    scalar key, like `_mix64_array`, gives a 1-element array)."""
    draws = _mix64_array(np.array(keys, dtype=np.uint64, ndmin=1) + _PHI_U64)
    return ((draws >> 12).astype(np.float64) + 0.5) * _UNIT


def gaussian_truncation(mean, sd, lo, hi) -> tuple:
    """(c_lo, span, scale) of a Gaussian truncated to [lo, hi]: the draw on
    a uniform u is mean + scale * inv_cdf(c_lo + u * span), clamped to
    [lo, hi]. sd == 0 gives scale 0 and p = 0.5, so the draw is the clamped
    mean."""
    if not lo < hi:
        raise InvalidBounds(f"need lo < hi, got [{lo}, {hi}]")
    if not 0 <= sd < math.inf:
        raise InvalidBounds(f"sd must be finite and >= 0, got {sd}")
    if sd == 0:
        return 0.5, 0.0, 0.0
    a, b = (lo - mean) / sd, (hi - mean) / sd
    # Computed with erfc, the standard normal cdf keeps its relative
    # precision in the lower tail but rounds to 1 in the upper tail, so an
    # interval that sits above the mean is mirrored below it.
    sign = 1.0
    if a + b > 0:
        a, b, sign = -b, -a, -1.0
    c_lo = 0.5 * math.erfc(-a / _SQRT2)
    return c_lo, 0.5 * math.erfc(-b / _SQRT2) - c_lo, sign * sd


def truncated_gaussian(mean, sd, lo, hi, rng: RandomStream) -> float:
    """One draw from a Gaussian truncated to [lo, hi].

    A single inverse-CDF step on one uniform, so every draw costs the same
    however far into a tail [lo, hi] lies. sd == 0 degenerates to
    clamp(mean, lo, hi).
    """
    c_lo, span, scale = gaussian_truncation(mean, sd, lo, hi)
    if scale == 0:
        return float(min(max(mean, lo), hi))
    p = min(max(c_lo + rng.random() * span, _P_MIN), _P_MAX)
    return float(min(max(mean + scale * _STD.inv_cdf(p), lo), hi))


def truncated_gaussians(mean, truncation, lo, hi, u) -> np.ndarray:
    """`truncated_gaussian` over arrays: element i draws on uniform u[i]
    with mean[i] and truncation[i], its `gaussian_truncation` (n x 3).

    Only the arithmetic is vectorized; `inv_cdf` runs per element, so the
    values equal the scalar draws bit for bit. Overflow to inf and inf - inf
    pass silently, as in Python float arithmetic.
    """
    c_lo, span, scale = np.asarray(truncation, dtype=np.float64).reshape(-1, 3).T
    p = np.minimum(np.maximum(c_lo + u * span, _P_MIN), _P_MAX)
    z = np.fromiter(map(_STD.inv_cdf, p.tolist()), dtype=np.float64, count=len(p))
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


def categorical(probs, rng: RandomStream) -> int:
    """Index sampled from an unnormalized non-negative weight vector.

    The index is the first whose cumulative weight exceeds the target, so
    it never has zero weight. The second bisection catches a target that
    rounds up to the total, which only a sum near the subnormal range does.
    """
    cumulative = cumulative_weights(probs)
    total = cumulative[-1]
    target = rng.random() * total
    return min(bisect.bisect_right(cumulative, target),
               bisect.bisect_left(cumulative, total))


def categoricals(cumulatives, u) -> np.ndarray:
    """`categorical` over rows: row i of the (n, k) array `cumulatives` is
    a `cumulative_weights` vector and u[i] its uniform. Counting
    `cum <= target` and `cum < total` over a non-decreasing row is
    bisect_right and bisect_left."""
    total = cumulatives[:, -1:]
    target = u[:, None] * total
    return np.minimum((cumulatives <= target).sum(axis=1),
                      (cumulatives < total).sum(axis=1))
