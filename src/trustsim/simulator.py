"""Turn-level user simulation driven by conditional behavior tables.

One turn: take the trait code of the profile, any Corpus-shaped user, find
the key code of its context key, sample the request combination from the
key's request cumulatives (the fallback rung the table chose), then sample
difficulty, duration, and game score conditional on that combination, the
last two from the truncated-Gaussian records of its row, which hold their
bounds, so no drawn turn is checked again. Each field reads a named
substream.

`draw_turns` is the one turn draw. It draws many turns at once from
their key codes and their turn streams' `turn_uniforms`, the first
uniforms of each stream's TURN_FIELDS children, the one place those are
derived: the rows as gathers from the table's rows (one float64 array, a
row per distinct rung statistic) through its row index by key code and
combination, the categoricals as counts, and the normal quantiles from
`standard_normals`: `inv_cdf` bit for bit, per element below
`_VECTOR_MIN` draws and in numpy from there on. `replay_conditions`
calls it for every corpus exchange, the RL environment for every (step,
act) of a block of episodes, and `simulate_turn` for one turn, a row of
one; each derives its uniforms with `turn_uniforms`. A replay's
`SimulatedLog`, the corpus and the drawn columns, equals, bit for bit,
what `simulate_turn` gives."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .behavior_tables import (
    REQUEST_COMBOS,
    ROW_DIFFICULTY,
    ROW_DURATION,
    ROW_SCORE,
    BehaviorTable,
    TableMode,
    key_code,
    lookup,
)
from .corpus import (
    Corpus,
    LIKERT_MIN,
    ProactiveAct,
    STEPS_PER_DIALOG,
    cast_column,
    complexity_of_step,
    corpus_cells,
    format_cells,
    infer_format,
    write_csv_rows,
    write_jsonl_rows,
)
from .errors import LengthMismatch
from .sampling import (
    RandomStream,
    categoricals,
    child_keys,
    first_uniforms,
    label_bits,
    truncated_gaussians,
)
from .user_model import trait_codes


@dataclass(frozen=True)
class SimulatedTurn:
    """One drawn turn, unchecked: its records clamp the duration above
    MIN_DURATION_S and the score to the step's options, and the difficulty
    is LIKERT_MIN plus an index over the 5 levels."""

    help_request: bool
    suggestion_request: bool
    duration: float
    difficulty: int
    game_score: float
    used_fallback: bool


# The substream each of a turn's uniforms comes from, in column order of
# the uniforms `draw_turns` reads.
TURN_FIELDS = ("requests", "difficulty", "duration", "score")


# The drawn columns of a replay log, with the numpy dtype each is held in.
_DRAWN_DTYPES = {
    "game_score": np.float64, "help_request": bool, "suggestion_request": bool,
    "duration": np.float64, "difficulty": np.int64, "used_fallback": bool,
}
# Columns of a replay log file in order: the exchange's context, then the
# drawn columns.
LOG_COLUMNS = ("user_id", "dialog_id", "step", "complexity", "proactive_act",
               *_DRAWN_DTYPES)


@dataclass(frozen=True, eq=False)
class SimulatedLog:
    """A replay: the corpus it replayed and the six drawn columns, as
    read-only numpy arrays. Row i is the turn drawn for the corpus's
    exchange i, whose context (user, dialog, step, complexity, act) the
    corpus holds."""

    corpus: Corpus
    game_score: np.ndarray
    help_request: np.ndarray
    suggestion_request: np.ndarray
    duration: np.ndarray
    difficulty: np.ndarray
    used_fallback: np.ndarray

    def __post_init__(self):
        for name, dtype in _DRAWN_DTYPES.items():
            values = getattr(self, name)
            column = np.array(values)
            if column.shape != (len(self),):
                raise LengthMismatch(f"simulated log column {name} has shape "
                                     f"{column.shape}; the corpus has {len(self)} exchanges")
            # the Corpus rule: no float read as an int, no number as a bool
            column = cast_column(name, values, column, dtype)
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __len__(self):
        return self.corpus.exchange_count

    def __eq__(self, other):
        if not isinstance(other, SimulatedLog):
            return NotImplemented
        return self.corpus == other.corpus and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in _DRAWN_DTYPES)

    def fallback_rate(self) -> float:
        if not len(self):
            return 0.0
        return int(np.count_nonzero(self.used_fallback)) / len(self)


_STEP_BITS = label_bits(range(STEPS_PER_DIALOG + 1))
_FIELD_BITS = label_bits(TURN_FIELDS)
_COMBO_FLAGS = np.array(REQUEST_COMBOS, dtype=bool)


def turn_uniforms(turn_keys) -> np.ndarray:
    """The uniforms `draw_turns` reads for the turn streams with these keys,
    a uint64 array of any shape: the first uniform of each one's TURN_FIELDS
    children, along a new last axis in TURN_FIELDS order. The one place a
    turn stream's field streams are derived."""
    return first_uniforms(child_keys(np.asarray(turn_keys, dtype=np.uint64)[..., None],
                                     _FIELD_BITS))


def draw_turns(table: BehaviorTable, code: np.ndarray, u: np.ndarray) -> dict:
    """The turns that the context keys with these key codes draw, turn i on
    the uniforms u[i] of its TURN_FIELDS (an (n, 4) array): the six drawn
    columns of a `SimulatedLog` by name.

    The request cumulatives, fallback flags and row indices are gathered on
    the key codes and combinations, then the rows on those indices, so the
    categoricals are counts, and the normal quantiles are `standard_normals`,
    in numpy from `_VECTOR_MIN` turns on. The table's values were checked
    when it was built or loaded, so no draw can fail."""
    combo = categoricals(table.request_cum[code], u[:, 0])
    row = table.row_index[code, combo]
    flags = _COMBO_FLAGS[combo]
    # gathered field by field, so no temporary holds a whole row per turn
    return dict(
        game_score=truncated_gaussians(table.rows[row, ROW_SCORE], u[:, 3]),
        help_request=flags[:, 0], suggestion_request=flags[:, 1],
        duration=truncated_gaussians(table.rows[row, ROW_DURATION], u[:, 2]),
        difficulty=LIKERT_MIN + categoricals(table.rows[row, ROW_DIFFICULTY], u[:, 1]),
        used_fallback=table.used_fallback[code],
    )


def simulate_turn(table: BehaviorTable, profile, step: int,
                  act: ProactiveAct, rng: RandomStream) -> SimulatedTurn:
    """The turn of a user (any Corpus-shaped one) at this step and act, on
    the stream rng: row 0 of `draw_turns` on the checked key code from
    `lookup` and the `turn_uniforms` of rng's key, its values as Python
    scalars. The step is checked first, in either mode."""
    complexity = complexity_of_step(step)
    condition = step if table.mode is TableMode.TASK_STEP_BASED else complexity
    code = lookup(table, trait_codes(profile), act, condition)
    turn = draw_turns(table, np.array([code]), turn_uniforms([rng.key]))
    return SimulatedTurn(**{name: column.item() for name, column in turn.items()})


def replay_conditions(corpus: Corpus, table: BehaviorTable,
                      rng: RandomStream) -> SimulatedLog:
    """Simulate a turn for every exchange under its recorded (user, step,
    act) context; row i pairs with exchange i of the corpus's canonical
    order. Turn i equals `simulate_turn` on `rng.child(user_id, step)`.

    Every turn is drawn at once by `draw_turns`, on the key codes of the
    exchanges' contexts and the `turn_uniforms` of their turn streams.
    """
    owner = np.repeat(np.arange(corpus.n_dialogs), STEPS_PER_DIALOG)
    step = corpus.step
    trait = trait_codes(corpus)[owner]
    condition = step if table.mode is TableMode.TASK_STEP_BASED else corpus.complexity
    code = key_code(table.mode, trait, corpus.proactive_act, condition)

    user_keys = child_keys(rng.key, label_bits(corpus.user_id))
    turn_keys = child_keys(user_keys[owner], _STEP_BITS[step])
    return SimulatedLog(corpus=corpus, **draw_turns(table, code, turn_uniforms(turn_keys)))


def _log_cells(log: SimulatedLog, name: str, text: bool) -> list:
    """The cells of one log-file column, the context columns as the corpus
    file writes them: text, but for an integer column of a JSON line (text
    False), which stays ints."""
    if name not in _DRAWN_DTYPES:
        return corpus_cells(log.corpus, name, text)
    column = getattr(log, name)
    return format_cells(column) if text or column.dtype.kind != "i" else column.tolist()


def save_simulated_log(log: SimulatedLog, path) -> None:
    """Write the log as CSV, or as JSON lines with sorted keys, by the
    path's suffix. Cells are text, as in the corpus CSV, but for the
    integer columns of a JSON line, which stay numbers."""
    path = Path(path)
    if infer_format(path) == "csv":
        with path.open("w", newline="", encoding="utf-8") as handle:
            write_csv_rows(handle, chain([LOG_COLUMNS], zip(*(
                _log_cells(log, name, True) for name in LOG_COLUMNS))))
    else:
        names = sorted(LOG_COLUMNS)
        with path.open("w", encoding="utf-8") as handle:
            write_jsonl_rows(handle, names, zip(*(
                _log_cells(log, name, False) for name in names)))
