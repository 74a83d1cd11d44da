"""Order statistics, interval arithmetic and ratio reporting for the benchmark.

Timings are reported as a median plus the highest percentile that still
has at least MIN_BEYOND samples above it, together with the sample count.
Every ratio carries its numerator and base so a reader can recompute it.
"""

from __future__ import annotations

# Candidate tail percentiles in per-mille, highest first.
TAIL_PER_MILLE = (999, 990, 900, 500)
MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default rule)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    pos = (len(ordered) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n: int):
    """Highest candidate percentile with at least MIN_BEYOND of n samples
    above it, or None when the sample is too small for any."""
    for per_mille in TAIL_PER_MILLE:
        if n * (1000 - per_mille) >= MIN_BEYOND * 1000:
            return per_mille / 10.0
    return None


def summarize(values) -> dict:
    """Median, chosen tail percentile and sample count of a timing sample."""
    values = list(values)
    p = tail_percentile(len(values))
    return {
        "n": len(values),
        "median": percentile(values, 50.0) if values else 0.0,
        "tail_p": p,
        "tail": percentile(values, p) if p is not None else None,
    }


def median_line(name: str, values, unit: str) -> tuple:
    """(name, median, unit, note) with the tail percentile and sample count."""
    s = summarize(values)
    tail = (f"p{s['tail_p']:g} {s['tail']:.6g} {unit}" if s["tail_p"] is not None
            else f"no percentile has {MIN_BEYOND} samples beyond it")
    return name, s["median"], unit, f"median; {tail}; n={s['n']}"


def ratio(num, base) -> dict:
    """num / base with both operands kept; an empty base reads 0.0."""
    return {"value": num / base if base else 0.0, "num": num, "base": base}


def covered_length(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of (start, end) intervals."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals)
    total = 0
    cur_s = cur_e = None
    for s, e in clipped:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total

