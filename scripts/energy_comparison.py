#!/usr/bin/env python3
"""Baseline vs weight-locality energy comparison on a benchmark preset.

Runs both schedules through the shape-only cost model with their matching
hardware presets (baseline 4 MB/CU weight memory vs 2 MB/CU for the locality
schedule), accounts energy with the default cost table, and prints the
per-component ratios.  Energy depends only on event counts, so no weights or
frames are generated.  Absolute joules depend entirely on the cost table;
the ratios are the meaningful output.

Usage: python scripts/energy_comparison.py [--preset ldlrnn] [--t 64]
"""
from __future__ import annotations

import argparse
import json

from epursim import arch, energy, presets
from epursim.quant import QuantConfig
from epursim.sched import Policy


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--preset", default="ldlrnn",
                    help="network preset (must fit the per-CU weight memory)")
    ap.add_argument("--t", type=int, default=64)
    ap.add_argument("--quantize", action="store_true",
                    help="quantize partials in the locality run")
    ap.add_argument("--json", help="write the comparison as JSON")
    args = ap.parse_args()

    net = presets.preset_descriptor(args.preset)
    table = energy.EnergyTable()
    # a stored partial is n_bits wide whatever the clamp magnitude, so the
    # alpha changes no count
    qcfg = QuantConfig(8) if args.quantize else None

    base = arch.cost_model(net, args.t, Policy.conventional, arch.HardwareConfig())
    mwl = arch.cost_model(net, args.t, Policy.mwl, arch.HW_PRESETS["epur-mwl"](),
                          quant=qcfg)
    e_base = energy.account(base, table)
    e_mwl = energy.account(mwl, table)
    cmp = energy.compare(e_base, e_mwl)

    print(f"{args.preset.upper()}, T={args.t}"
          f"{', quantized partials' if qcfg else ''}\n")
    print(f"{'component':<32} {'baseline J':>12} {'mwl J':>12} {'ratio':>7}")
    for comp, val in sorted(e_base["dynamic_by_component"].items()):
        r = cmp["ratios"].get(f"dynamic.{comp}")
        got = e_mwl["dynamic_by_component"].get(comp, 0.0)
        print(f"dynamic.{comp:<24} {val:>12.3e} {got:>12.3e} "
              f"{r if r is not None else float('nan'):>7.3f}")
    for comp, val in sorted(e_base["leakage_by_component"].items()):
        r = cmp["ratios"].get(f"leakage.{comp}")
        got = e_mwl["leakage_by_component"].get(comp, 0.0)
        print(f"leakage.{comp:<24} {val:>12.3e} {got:>12.3e} "
              f"{r if r is not None else float('nan'):>7.3f}")
    print(f"\n{'total':<32} {e_base['total']:>12.3e} {e_mwl['total']:>12.3e} "
          f"{cmp['total_ratio']:>7.3f}")
    if cmp["regressions"]:
        print("components where the locality schedule costs more: "
              + ", ".join(cmp["regressions"]))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump({"baseline": e_base, "mwl": e_mwl,
                       "comparison": cmp}, f, indent=2)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
