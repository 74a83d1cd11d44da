"""Exception types raised across the package, the two rules of a scalar
config value, and the JSON file reader and writers.

Everything derives from TrustSimError so callers can catch input/validation
problems in one place (the CLI maps them to exit code 2).

Every scalar config or context value is checked by one of two rules here,
`integer` and `finite_number`, and every array of a JSON artifact by
`json_numbers`, each raising the caller's error type.
"""

import itertools
import json
import numbers
import operator
import sys
from pathlib import Path

import numpy as np


class TrustSimError(Exception):
    """Base class for all errors raised by this package."""


# --- corpus ---------------------------------------------------------------

class MissingColumn(TrustSimError):
    """A required column is absent from a corpus file."""


class ValueOutOfRange(TrustSimError):
    """A field value violates its documented range or type."""

    def __init__(self, field, value, row=None, detail=""):
        self.field = field
        self.value = value
        self.row = row
        where = f" (row {row})" if row is not None else ""
        extra = f": {detail}" if detail else ""
        super().__init__(f"{field}={value!r} out of range{where}{extra}")


class IncompleteDialog(TrustSimError):
    """A dialog does not consist of exactly steps 1..12 in order."""

    def __init__(self, user_id, detail=""):
        self.user_id = user_id
        extra = f": {detail}" if detail else ""
        super().__init__(f"incomplete dialog for user {user_id!r}{extra}")


class StepOutOfRange(TrustSimError):
    """Task step outside 1..12."""


class InvalidConfig(TrustSimError):
    """A configuration object fails validation."""


class EmptyCorpus(TrustSimError):
    """An operation requires a non-empty corpus."""


# --- user model -----------------------------------------------------------

class InsufficientUsers(TrustSimError):
    """Trait fitting needs at least two users."""


class InvalidBounds(TrustSimError):
    """Truncation bounds are not an interval, or sd is negative."""


# --- behavior tables ------------------------------------------------------

class NoDataForCondition(TrustSimError):
    """A condition (complexity or step) was never observed in the corpus."""


# --- trust model ----------------------------------------------------------

class SchemaMismatch(TrustSimError):
    """Feature vector does not match the model's feature schema."""


class InsufficientData(TrustSimError):
    """Too few exchanges to train on."""


class DegenerateLabels(TrustSimError):
    """All training labels belong to a single class."""


class EmptyTestSet(TrustSimError):
    """Classifier evaluation needs a non-empty labeled corpus."""


# --- RL environment -------------------------------------------------------

class EpisodeFinished(TrustSimError):
    """step() called after the 12th task step."""


class InvalidHyperparams(TrustSimError):
    """Learner hyperparameters outside their valid ranges."""


# --- evaluation -----------------------------------------------------------

class LengthMismatch(TrustSimError):
    """Paired sequences or distributions differ in length."""


class NegativeEntry(TrustSimError):
    """Probability vectors must be non-negative."""


class EmptySequence(TrustSimError):
    """A sample sequence or distribution carries no mass."""


# --- scalar config values -------------------------------------------------

def integer(name: str, value, lo=None, hi=None, error=InvalidConfig) -> int:
    """value as a Python int, or `error`: an integer, numpy ones included,
    never a bool (True would run as 1), within lo..hi where they are given."""
    try:
        n = operator.index(value)
    except TypeError:
        n = None
    if (n is None or isinstance(value, (bool, np.bool_))
            or lo is not None and n < lo or hi is not None and n > hi):
        bounds = "" if lo is None else f" >= {lo}" if hi is None else f" in {lo}..{hi}"
        raise error(f"{name} must be an integer{bounds}, got {value!r}")
    return n


def finite_number(name: str, value, error=InvalidConfig) -> None:
    """Raise `error` unless value is a real number, not a bool, within the
    float range."""
    # a bound check, not math.isfinite, which raises on a huge int; a numpy
    # scalar is compared as a Python number, as a float32 cannot hold the bound
    number = value.item() if isinstance(value, np.generic) else value
    if (isinstance(number, bool) or not isinstance(number, numbers.Real)
            or not -sys.float_info.max <= number <= sys.float_info.max):
        raise error(f"{name} must be a finite number, got {value!r}")


# --- JSON artifact files --------------------------------------------------

def json_numbers(name: str, value, ndim: int, integers: bool = False,
                 error=InvalidConfig) -> np.ndarray:
    """Nested JSON lists `ndim` deep as a float64 array, or with `integers`
    an int64 one, or `error`: every leaf must be an int or, for floats, a
    float, never a bool (true would load as 1) nor a numeric string."""
    allowed = {int} if integers else {int, float}
    try:
        leaves = value
        for _ in range(ndim - 1):
            leaves = itertools.chain.from_iterable(leaves)
        types = set(map(type, leaves))
        if types <= allowed:
            return np.array(value, dtype=np.int64 if integers else np.float64)
    # TypeError: a row that is no list; ValueError: rows of unequal length;
    # OverflowError: an int beyond int64 or the float range
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"malformed {name}: {exc}") from exc
    raise error(f"{name} must hold only {'ints' if integers else 'numbers'}, got "
                f"{sorted(t.__name__ for t in types - allowed)}")


def read_json(path, what: str):
    """Parsed JSON of a file; InvalidConfig names a file not UTF-8 or not JSON."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8 or not JSON
        raise InvalidConfig(f"{what} file {path} is not JSON: {exc}") from exc


def object_entry(value, keys: frozenset, name: str) -> dict:
    """A JSON object with exactly the given keys: a typo is an error, not a
    silently ignored entry."""
    if not isinstance(value, dict):
        raise InvalidConfig(f"{name} must be an object, got {type(value).__name__}")
    if value.keys() != keys:
        raise InvalidConfig(f"{name} must have exactly the keys {sorted(keys)}; "
                            f"unknown {sorted(value.keys() - keys)}, "
                            f"missing {sorted(keys - value.keys())}")
    return value


def write_json(path, payload) -> None:
    """Write a JSON artifact: two-space indent, sorted keys, a final newline."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def write_compact_json(path, payload: dict) -> None:
    """Write a JSON object artifact with sorted keys, one line per top-level
    key and no spaces, and a final newline: for values that hold thousands
    of numbers, which two-space indents would put one per line."""
    lines = (f"{json.dumps(key)}:{json.dumps(payload[key], separators=(',', ':'))}"
             for key in sorted(payload))
    Path(path).write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
