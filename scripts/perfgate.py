#!/usr/bin/env python3
"""Three-tier perf regression gate: one exact tier, two banded tiers.

Usage:
  perfgate.py counters  <baseline_dir> <fresh_dir>
  perfgate.py wallclock <baseline.json> <matrix_report.json>
  perfgate.py rss       <baseline.json> <matrix_report.json>
  perfgate.py refresh   <baseline_dir> <matrix_report.json>

Tier 1 — counters (exact). For every BENCH_*.json in <baseline_dir>,
loads the file of the same name from <fresh_dir> and compares ONLY the
"counters" object, exact-match:

  * fresh report file missing ................ FAIL
  * counter present in baseline, not fresh ... FAIL (missing)
  * counter present in fresh, not baseline ... FAIL (untracked — refresh
                                                the baseline to admit it)
  * counter value differs .................... FAIL (drift)

The simulation's counters are deterministic under the pinned seed/env
(see bench_baselines/README.md), so any delta is a behavioural change,
not noise.

Tiers 2 and 3 — wallclock and rss (tolerance band). Both compare one
per-scenario median measured by hermes-harness (a hermes-matrix-report/1
document) against a committed envelope; TIERS below is the one place
that says what differs between them (schema, keys, unit, verdict words):

  * scenario in baseline, not in report ...... FAIL (MISSING)
  * scenario in report, not in baseline ...... FAIL (UNTRACKED)
  * failed reps / no median in the report .... FAIL (BROKEN)
  * median above baseline*(1+band)+floor ..... FAIL (SLOW / HEAVY)
  * median below baseline*(1-band)-floor ..... note only (FAST / LEAN —
                                                refresh to bank it)

`band` and the absolute floor (`floor_ms`, `floor_bytes`) are read from
the baseline file. The floor absorbs what the band cannot: scheduler
noise on a sub-second run, allocator/page-cache jitter on a small
binary — while a genuine slowdown, leak or unbounded cache blows
straight through the band. Medians-of-N keep single outlier reps from
tripping the gate.

`refresh` rewrites the existing <baseline_dir>/wallclock.json and
rss.json from a fresh report, keeping each file's band and floor; the
scenarios tracked are the ones the report ran.

Exit status: 0 = gate passes, 1 = regressions found, 2 = usage or
malformed-input error (one `perfgate: <path>: <reason>` line). Baselines
are refreshed with scripts/refresh_baselines.sh after an intentional
change, and the refreshed files are committed so the diff is reviewable.
"""

import json
import os
import sys
from collections import namedtuple

# A banded tier: which baseline document it reads, where its numbers live
# in the baseline and in the matrix report, how a measured value is stored
# and printed, and its verdict words. `band` and the floor live in the
# baseline file only.
Tier = namedtuple("Tier", "schema base_key report_key floor_key store fmt noun over under")

TIERS = {
    "wallclock": Tier(
        "hermes-wallclock-baseline/1", "median_ms", "wall_ms", "floor_ms",
        lambda v: round(v, 1), lambda v: f"{v:.1f}ms", "wall-clock", "SLOW", "FAST",
    ),
    "rss": Tier(
        "hermes-rss-baseline/1", "median_bytes", "max_rss_bytes", "floor_bytes",
        int, lambda v: f"{v / (1 << 20):.1f}MiB", "peak-RSS", "HEAVY", "LEAN",
    ),
}


class BadInput(Exception):
    """An input the gate cannot judge: "<path>: <reason>". main() prints it
    and exits 2, so it is never mistaken for a regression (exit 1)."""


def is_num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def load_json(path, schema=None):
    """Every input file enters here."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise BadInput(f"{path}: {e.strerror}") from None
    except ValueError as e:
        raise BadInput(f"{path}: unparsable JSON ({e})") from None
    if not isinstance(doc, dict):
        raise BadInput(f"{path}: not a JSON object")
    if schema is not None and doc.get("schema") != schema:
        raise BadInput(f"{path}: not a {schema} document (schema {doc.get('schema')!r})")
    return doc


def load_counters(path):
    counters = load_json(path).get("counters")
    if not isinstance(counters, dict):
        raise BadInput(f"{path}: no 'counters' object")
    return counters


def compare(name, base, fresh):
    """Returns a list of (metric, baseline, fresh, verdict) rows; empty = clean."""
    rows = []
    for key in sorted(set(base) | set(fresh)):
        if key not in fresh:
            rows.append((key, base[key], None, "MISSING"))
        elif key not in base:
            rows.append((key, None, fresh[key], "UNTRACKED"))
        elif base[key] != fresh[key]:
            rows.append((key, base[key], fresh[key], "DRIFT"))
    return rows


def fmt(v):
    if v is None:
        return "-"
    if isinstance(v, float):
        return f"{v:.1f}"
    return str(v)


def print_table(rows):
    headers = ("metric", "baseline", "fresh", "delta", "verdict")
    table = []
    for metric, base, fresh, verdict in rows:
        if isinstance(base, (int, float)) and isinstance(fresh, (int, float)):
            delta = f"{fresh - base:+.1f}" if isinstance(base, float) or isinstance(
                fresh, float
            ) else f"{fresh - base:+}"
        else:
            delta = "-"
        table.append((metric, fmt(base), fmt(fresh), delta, verdict))
    widths = [max(len(headers[i]), *(len(r[i]) for r in table)) for i in range(5)]
    line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    print("    " + line)
    print("    " + "  ".join("-" * w for w in widths))
    for r in table:
        print("    " + "  ".join(c.ljust(widths[i]) for i, c in enumerate(r)))


def run_counters(baseline_dir, fresh_dir):
    try:
        listing = os.listdir(baseline_dir)
    except OSError as e:
        raise BadInput(f"{baseline_dir}: {e.strerror}") from None
    names = sorted(f for f in listing if f.startswith("BENCH_") and f.endswith(".json"))
    if not names:
        raise BadInput(f"{baseline_dir}: no BENCH_*.json baselines")

    failures = 0
    for name in names:
        base = load_counters(os.path.join(baseline_dir, name))
        fresh_path = os.path.join(fresh_dir, name)
        if not os.path.exists(fresh_path):
            print(f"FAIL {name}: fresh report not produced ({fresh_path})")
            failures += 1
            continue
        fresh = load_counters(fresh_path)
        rows = compare(name, base, fresh)
        if rows:
            print(f"FAIL {name}: {len(rows)} counter(s) deviate from baseline")
            print_table(rows)
            failures += 1
        else:
            print(f"ok   {name}: {len(base)} counters match baseline")

    if failures:
        print(
            f"\nperfgate: {failures}/{len(names)} report(s) regressed. If the change is"
            " intentional, refresh with scripts/refresh_baselines.sh and commit the diff."
        )
    else:
        print(f"\nperfgate: all {len(names)} report(s) match their baselines.")
    return 1 if failures else 0


def load_baseline(tier, path):
    """The envelope document of one banded tier, shape-checked."""
    t = TIERS[tier]
    doc = load_json(path, t.schema)
    scenarios = doc.get("scenarios")
    if not is_num(doc.get("band")) or not is_num(doc.get(t.floor_key)):
        raise BadInput(f"{path}: needs a numeric 'band' and '{t.floor_key}'")
    if not isinstance(scenarios, dict) or not all(
        isinstance(e, dict) and is_num(e.get(t.base_key)) for e in scenarios.values()
    ):
        raise BadInput(f"{path}: 'scenarios' must map each name to a numeric '{t.base_key}'")
    return doc


def load_medians(tier, path):
    """scenario name -> (measured median or None, failed rep count), in
    report order, from a full hermes-matrix-report/1 document."""
    t = TIERS[tier]
    report = load_json(path, "hermes-matrix-report/1")
    if report.get("kind") == "canonical":
        raise BadInput(f"{path}: {tier} tier needs the full report (canonical omits 'measured')")
    out = {}
    for sc in report.get("scenarios", []):
        median = ((sc.get("measured") or {}).get(t.report_key) or {}).get("p50")
        out[sc["name"]] = (median, sc.get("runs", 0) - sc.get("clean_reps", 0))
    return out


def run_band(tier, baseline_path, report_path):
    """The envelope verdict of one banded tier — the only place one is
    computed."""
    t = TIERS[tier]
    base = load_baseline(tier, baseline_path)
    band, floor, scenarios = base["band"], base[t.floor_key], base["scenarios"]
    fresh = load_medians(tier, report_path)

    names = sorted(set(scenarios) | set(fresh))
    failures = 0
    for name in names:
        if name not in fresh:
            print(f"FAIL {name}: scenario in baseline but absent from the report (MISSING)")
            failures += 1
            continue
        median, broken_reps = fresh[name]
        if name not in scenarios:
            print(
                f"FAIL {name}: scenario not in the {t.noun} baseline (UNTRACKED —"
                " refresh to admit it)"
            )
            failures += 1
            continue
        if broken_reps:
            print(f"FAIL {name}: {broken_reps} repetition(s) failed (BROKEN)")
            failures += 1
            continue
        if median is None:
            print(f"FAIL {name}: report carries no {t.noun} median (BROKEN)")
            failures += 1
            continue
        baseline = scenarios[name][t.base_key]
        limit = baseline * (1.0 + band) + floor
        under_mark = baseline * (1.0 - band) - floor
        if median > limit:
            print(
                f"FAIL {name}: {t.noun} median {t.fmt(median)} above envelope {t.fmt(limit)}"
                f" (baseline {t.fmt(baseline)}, band {band:.0%}, floor {t.fmt(floor)})"
                f" ({t.over})"
            )
            failures += 1
        elif median < under_mark:
            print(
                f"ok   {name}: {t.noun} median {t.fmt(median)} well below baseline"
                f" {t.fmt(baseline)} ({t.under} — consider refreshing to bank the improvement)"
            )
        else:
            print(
                f"ok   {name}: {t.noun} median {t.fmt(median)} within envelope"
                f" [{t.fmt(max(under_mark, 0.0))}, {t.fmt(limit)}]"
            )

    if failures:
        print(
            f"\nperfgate: {failures}/{len(names)} scenario(s) out of the {t.noun} envelope."
            " If the change is intentional, refresh with scripts/refresh_baselines.sh and"
            " commit the diff."
        )
    else:
        print(f"\nperfgate: all {len(names)} scenario(s) within the {t.noun} envelope.")
    return 1 if failures else 0


def refresh(baseline_dir, report_path):
    """Rewrites every banded tier's baseline from one fresh report."""
    for tier, t in TIERS.items():
        path = os.path.join(baseline_dir, f"{tier}.json")
        old = load_baseline(tier, path)
        scenarios = {}
        for name, (median, broken_reps) in load_medians(tier, report_path).items():
            if broken_reps or median is None:
                raise BadInput(f"{report_path}: {name}: no clean {t.noun} median to record")
            scenarios[name] = {t.base_key: t.store(median)}
        doc = {
            "schema": t.schema,
            "band": old["band"],
            t.floor_key: old[t.floor_key],
            "scenarios": scenarios,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        print(f"{tier} tracked:", ", ".join(sorted(scenarios)))
    return 0


def main(argv):
    args = argv[1:]
    try:
        if len(args) == 3:
            mode, a, b = args
            if mode == "counters":
                return run_counters(a, b)
            if mode in TIERS:
                return run_band(mode, a, b)
            if mode == "refresh":
                return refresh(a, b)
    except BadInput as e:
        print(f"perfgate: {e}", file=sys.stderr)
        return 2
    print(__doc__.strip(), file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
