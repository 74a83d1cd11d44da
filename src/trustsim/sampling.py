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
else: `truncated_gaussian_from` for one draw, `truncated_gaussians` for many.
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


class RandomStream:
    """A node of the key chain: the 64-bit key of the stream at (seed,
    path). A child's key depends on the parent's key and its labels only,
    so child streams are independent and order-insensitive. Labels are
    strs or ints. Draws come from the array primitives over keys:
    `first_uniforms`, `nth_draws`, `integers` and `permutation`.
    """

    __slots__ = ("key",)

    def __init__(self, seed: int, *path):
        self.key = _chain(_ROOT_KEY, (operator.index(seed), *path))

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


def standard_normals(u) -> np.ndarray:
    """`inv_cdf` of the standard normal on each uniform of an array,
    element by element, as `statistics.NormalDist` computes it."""
    u = np.asarray(u, dtype=np.float64)
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


def truncated_gaussian_from(truncation, u: float) -> float:
    """One draw on a uniform u from a truncated Gaussian, given its
    `gaussian_truncations` record.

    A single inverse-CDF step on one uniform, so every draw costs the same
    however far into a tail [lo, hi] lies. sd == 0 degenerates to
    clamp(mean, lo, hi).
    """
    mean, c_lo, span, scale, lo, hi = truncation
    if scale == 0:
        return float(min(max(mean, lo), hi))
    p = min(max(c_lo + u * span, _P_MIN), _P_MAX)
    return float(min(max(mean + scale * _STD.inv_cdf(p), lo), hi))


def truncated_gaussians(truncations, u) -> np.ndarray:
    """`truncated_gaussian_from` over arrays: element i draws on uniform u[i]
    from record i of `truncations`, `gaussian_truncations` records (n x 6),
    or from one record for every element.

    Only the arithmetic is vectorized; `inv_cdf` runs per element, so the
    values equal the scalar draws bit for bit. Overflow to inf and inf - inf
    pass silently, as in Python float arithmetic.
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


def categorical_from(cumulative, u: float) -> int:
    """Index sampled from a `cumulative_weights` vector on the uniform u.

    The index is the first whose cumulative weight exceeds the target, so
    it never has zero weight. The second bisection catches a target that
    rounds up to the total, which only a sum near the subnormal range does.
    """
    total = cumulative[-1]
    target = u * total
    return min(bisect.bisect_right(cumulative, target),
               bisect.bisect_left(cumulative, total))


def categoricals(cumulatives, u) -> np.ndarray:
    """`categorical_from` over rows: row i of the (n, k) array `cumulatives` is
    a `cumulative_weights` vector and u[i] its uniform. Counting
    `cum <= target` and `cum < total` over a non-decreasing row is
    bisect_right and bisect_left."""
    total = cumulatives[:, -1:]
    target = u[:, None] * total
    return np.minimum((cumulatives <= target).sum(axis=1),
                      (cumulatives < total).sum(axis=1))
