#!/usr/bin/env python3
"""Compare a BENCH_*.json artifact against a committed baseline.

The bench binaries emit SLASH_BENCH_JSON artifacts of the form

    {"name": "weakscale", "points": [
        {"series": "full_mesh", "x": "n=16", "metric": "qp endpoints",
         "value": 480.0}, ...]}

keyed by (series, x, metric). This tool diffs two such files:

  * Deterministic metrics (everything by default) must match EXACTLY —
    they are virtual-time or counting quantities (makespans, QP counts,
    checksums, modeled memory) that the simulator reproduces bit-for-bit,
    so any difference is a real behavior change and fails the check.
  * Wall-clock metrics (any metric whose name contains "wall", e.g.
    "sim events/s (wall)") are host-speed measurements: they are checked
    for presence and positivity, and only compared numerically when
    --wall-rel-tol is given (useful on a machine comparable to the one
    that produced the baseline; CI leaves it off).
  * Tolerance-banded metrics: --rel-tol SUBSTR=FRAC (repeatable) relaxes
    exact matching to a relative tolerance for any deterministic metric
    whose name contains SUBSTR. Used for gate metrics that assert a
    *bound* rather than a bit pattern — e.g. the failure detector's
    "makespan overhead vs off [%]" must stay ~free, but its exact ratio
    may legitimately drift when the cost model is retuned.

Exit status: 0 when the current artifact matches the baseline, 1 on any
difference, 2 on usage/IO errors. The diff is printed one finding per
line so CI logs read directly.

Usage:
    tools/bench_compare.py BASELINE CURRENT [--wall-rel-tol FRAC]
        [--rel-tol SUBSTR=FRAC ...] [--subset] [--allow-new-fields]

    --subset   Allow CURRENT to cover only part of the baseline's keys
               (CI smoke runs a --filter slice); missing keys
               are not failures, but keys absent from the BASELINE still
               are. Without it, key sets must match exactly.

    --allow-new-fields
               Accept datapoints present in CURRENT but absent from the
               BASELINE. Without it, every added (series, x, metric) is
               listed and fails the check — the escape hatch exists for
               the one CI run that lands a PR adding new bench series,
               after which the regenerated baseline must be committed.
"""

import argparse
import json
import sys


def load_points(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    points = {}
    for p in doc.get("points", []):
        key = (p["series"], p["x"], p["metric"])
        if key in points:
            print(f"error: duplicate key {key} in {path}", file=sys.stderr)
            sys.exit(2)
        points[key] = float(p["value"])
    if not points:
        print(f"error: no points in {path}", file=sys.stderr)
        sys.exit(2)
    return doc.get("name", "?"), points


def is_wall_metric(metric):
    return "wall" in metric


def parse_rel_tols(specs):
    """Parses repeated SUBSTR=FRAC options into [(substr, frac)] pairs."""
    tols = []
    for spec in specs or []:
        substr, sep, frac = spec.rpartition("=")
        try:
            frac_val = float(frac)
        except ValueError:
            frac_val = -1.0
        if not sep or not substr or frac_val < 0:
            print(f"error: bad --rel-tol {spec!r} (want SUBSTR=FRAC with "
                  f"FRAC >= 0)", file=sys.stderr)
            sys.exit(2)
        tols.append((substr, frac_val))
    return tols


def rel_tol_for(metric, tols):
    """First matching tolerance band for `metric`, or None for exact."""
    for substr, frac in tols:
        if substr in metric:
            return frac
    return None


def fmt(key):
    series, x, metric = key
    return f"{series} / {x} / {metric}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", help="committed BENCH_*.json baseline")
    ap.add_argument("current", help="freshly produced BENCH_*.json")
    ap.add_argument(
        "--wall-rel-tol",
        type=float,
        default=None,
        metavar="FRAC",
        help="also compare wall-clock metrics, within this relative "
        "tolerance (e.g. 0.5); default: presence + positivity only",
    )
    ap.add_argument(
        "--rel-tol",
        action="append",
        default=None,
        metavar="SUBSTR=FRAC",
        help="compare deterministic metrics whose name contains SUBSTR "
        "within this relative tolerance instead of exactly; repeatable "
        "(first matching SUBSTR wins)",
    )
    ap.add_argument(
        "--subset",
        action="store_true",
        help="allow the current file to cover a subset of the baseline "
        "(filtered CI smoke runs)",
    )
    ap.add_argument(
        "--allow-new-fields",
        action="store_true",
        help="accept datapoints present in the current artifact but absent "
        "from the baseline (for the one run landing a PR that adds bench "
        "series/metrics; commit the regenerated baseline right after)",
    )
    args = ap.parse_args()

    rel_tols = parse_rel_tols(args.rel_tol)
    base_name, base = load_points(args.baseline)
    cur_name, cur = load_points(args.current)

    failures = []
    if base_name != cur_name:
        failures.append(f"table name differs: {base_name!r} vs {cur_name!r}")

    added = sorted(set(cur) - set(base))
    if added and not args.allow_new_fields:
        failures.append(
            f"{len(added)} field(s) in the current artifact are absent from "
            f"the baseline — if this PR intentionally adds bench "
            f"series/metrics, re-run with --allow-new-fields and commit the "
            f"regenerated baseline:"
        )
        failures.extend(f"  added field: {fmt(key)}" for key in added)
    if not args.subset:
        for key in sorted(set(base) - set(cur)):
            failures.append(f"missing datapoint: {fmt(key)}")

    compared = 0
    for key in sorted(set(base) & set(cur)):
        want, got = base[key], cur[key]
        if is_wall_metric(key[2]):
            if not got > 0:
                failures.append(f"wall metric not positive: {fmt(key)} = {got}")
            elif args.wall_rel_tol is not None:
                rel = abs(got - want) / max(abs(want), 1e-300)
                if rel > args.wall_rel_tol:
                    failures.append(
                        f"wall metric off by {rel:.1%} (> "
                        f"{args.wall_rel_tol:.1%}): {fmt(key)}: "
                        f"baseline {want}, current {got}"
                    )
            compared += 1
        else:
            tol = rel_tol_for(key[2], rel_tols)
            if tol is not None:
                rel = abs(got - want) / max(abs(want), 1e-300)
                if rel > tol:
                    failures.append(
                        f"banded metric off by {rel:.1%} (> {tol:.1%}): "
                        f"{fmt(key)}: baseline {want}, current {got}"
                    )
            elif got != want:
                failures.append(
                    f"deterministic metric changed: {fmt(key)}: "
                    f"baseline {want!r}, current {got!r}"
                )
            compared += 1

    if failures:
        print(f"bench_compare: {args.current} vs {args.baseline}: "
              f"{len(failures)} difference(s)")
        for f in failures:
            print(f"  FAIL {f}")
        sys.exit(1)
    print(f"bench_compare: OK — {compared} datapoint(s) match "
          f"{args.baseline}" + (" (subset)" if args.subset else ""))


if __name__ == "__main__":
    main()
