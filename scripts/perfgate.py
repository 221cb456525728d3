#!/usr/bin/env python3
"""Counter regression gate: exact match against committed baselines.

Usage:
  perfgate.py counters <baseline_dir> <fresh_dir>

For every BENCH_*.json in <baseline_dir>, loads the file of the same
name from <fresh_dir> and compares ONLY the "counters" object,
exact-match:

  * fresh report file missing ................ FAIL
  * counter present in baseline, not fresh ... FAIL (missing)
  * counter present in fresh, not baseline ... FAIL (untracked — refresh
                                                the baseline to admit it)
  * counter value differs .................... FAIL (drift)

The simulation's counters are deterministic under the pinned seed/env
(see bench_baselines/README.md), so any delta is a behavioural change,
not noise. Host time is not judged here: that is the perf ledger's
(benchmark/, DESIGN.md §11).

Exit status: 0 = gate passes, 1 = regressions found, 2 = usage or
malformed-input error (one `perfgate: <path>: <reason>` line). Baselines
are refreshed with scripts/refresh_baselines.sh after an intentional
change, and the refreshed files are committed so the diff is reviewable.
"""

import json
import os
import sys


class BadInput(Exception):
    """An input the gate cannot judge: "<path>: <reason>". main() prints it
    and exits 2, so it is never mistaken for a regression (exit 1)."""


def load_json(path):
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


def main(argv):
    args = argv[1:]
    try:
        if len(args) == 3 and args[0] == "counters":
            return run_counters(args[1], args[2])
    except BadInput as e:
        print(f"perfgate: {e}", file=sys.stderr)
        return 2
    print(__doc__.strip(), file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
