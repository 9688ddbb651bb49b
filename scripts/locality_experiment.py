#!/usr/bin/env python3
"""Sequence-length sweep of the two evaluation orders on one square layer.

Reproduces the locality story in one table: weight-buffer read bytes shrink
toward 50% under the weight-locality order as T grows, the forward reuse
distance collapses from both matrices to a single row, and the minimal
weight storage falls to the recurrent matrix plus one row.

Usage: python scripts/locality_experiment.py [--hidden N] [--json OUT]
"""
from __future__ import annotations

import argparse
import json

from epursim.model import LayerDescriptor
from epursim.sched import (Target, reuse_analysis, trace_conventional,
                           trace_mwl, weight_storage_bytes)


def sweep(hidden: int, ts: list[int]) -> list[dict]:
    layer = LayerDescriptor(hidden, hidden)
    rows = []
    for T in ts:
        conv = reuse_analysis(trace_conventional(layer, T))
        mwl = reuse_analysis(trace_mwl(layer, T))
        cwb = conv[Target.weight_buffer]
        mwb = mwl[Target.weight_buffer]
        mrb = mwl[Target.row_buffer]
        rows.append({
            "T": T,
            "conventional_read_bytes": cwb["read_bytes"],
            "mwl_read_bytes": mwb["read_bytes"],
            "read_ratio": mwb["read_bytes"] / cwb["read_bytes"],
            "conventional_max_reuse": cwb["max_reuse_distance"],
            "mwl_forward_max_reuse": mrb["max_reuse_distance"],
            "mwl_recurrent_max_reuse": mwb["max_reuse_distance"],
            "conventional_min_storage": weight_storage_bytes(conv),
            "mwl_min_storage": weight_storage_bytes(mwl),
        })
    return rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--hidden", type=int, default=64)
    ap.add_argument("--t", type=int, nargs="+", default=[1, 2, 5, 10, 50, 100])
    ap.add_argument("--json", help="also write the rows as JSON")
    args = ap.parse_args()

    rows = sweep(args.hidden, args.t)
    print(f"square layer, hidden = input = {args.hidden} (one gate shown)\n")
    print(f"{'T':>4} {'conv rd B':>12} {'mwl rd B':>12} {'ratio':>7} "
          f"{'conv reuse':>11} {'fwd reuse':>10} {'rec reuse':>10} "
          f"{'conv stor':>10} {'mwl stor':>9}")
    for r in rows:
        print(f"{r['T']:>4} {r['conventional_read_bytes']:>12,} "
              f"{r['mwl_read_bytes']:>12,} {r['read_ratio']:>7.4f} "
              f"{r['conventional_max_reuse']:>11,} {r['mwl_forward_max_reuse']:>10,} "
              f"{r['mwl_recurrent_max_reuse']:>10,} "
              f"{r['conventional_min_storage']:>10,} {r['mwl_min_storage']:>9,}")
    print("\nread ratio follows (1 + T) / 2T; storage ratio approaches one half.")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(rows, f, indent=2)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
