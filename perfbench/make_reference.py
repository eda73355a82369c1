#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks against.

    python3 perfbench/make_reference.py gate_analysis   # about 3 minutes
    python3 perfbench/make_reference.py chain_scan      # about 1 minute

Run from the repository root on the code whose outputs define "correct";
the files in perfbench/data were recorded from the seed code. The
gate_analysis reference needs the checked-in schedules, which come from

    ionpulse -o OUT --seed 1 --threads 1 --shape A optimize --recompute
    ionpulse -o OUT --seed 1 --threads 1 --shape B optimize --recompute

on the default config (see data/schedules.json).
"""

import json
import math
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (needs the path set above)
from ionpulse import analysis, crystal, modes, optimizer  # noqa: E402


def gate_analysis():
    trap = crystal.TrapConfig()
    chain = crystal.solve_equilibrium(trap)
    mode_data = modes.solve_modes(modes.build_transverse_matrix(chain, trap), trap)
    out = {}
    for shape, sched in workloads.load_schedules().items():
        pairs = analysis.all_pairs(mode_data.n_modes)
        reports = [optimizer.build_gate_report(sched, mode_data, i, j, include_trajectories=False)
                   for i, j in pairs]
        sweep = analysis.offset_sweep(sched, mode_data, workloads.DESIGN_PAIR,
                                      workloads.sweep_offsets(), threads=1)
        out[shape] = {
            "omega_max_hz": [r.omega_max / (2 * math.pi) for r in reports],
            "motional_error": [r.motional_error for r in reports],
            "sweep_baseline": sweep.baseline,
            "sweep_errors": [float(e) for e in sweep.errors],
            "sweep_slope": sweep.fitted_slope,
        }
        print(f"{shape}: design pair error {reports[pairs.index(workloads.DESIGN_PAIR)].motional_error:.4e}, "
              f"slope {sweep.fitted_slope:.3f}", file=sys.stderr)
    return out


def chain_scan():
    configs = []
    for n in workloads.CHAIN_N_RANGE:
        for scale_r in workloads.SCALE_R:
            for cutoff_s in workloads.CUTOFF_S:
                _, _, _, pmap, refusal = workloads.scan_config(n, scale_r, cutoff_s)
                if refusal is not None:
                    configs.append([n, scale_r, cutoff_s, "refused", 0, None, None])
                    continue
                values = [v / (2 * math.pi) for _, _, v in pmap.computed_pairs()]
                configs.append([n, scale_r, cutoff_s, "held", len(pmap.degenerate_pairs),
                                min(values, default=None), max(values, default=None)])
    return {"columns": ["n_ions", "scale_r", "cutoff_s", "outcome", "degenerate_pairs",
                        "omega_max_min_hz", "omega_max_max_hz"],
            "configs": configs}


if __name__ == "__main__":
    name = sys.argv[1]
    result = {"gate_analysis": gate_analysis, "chain_scan": chain_scan}[name]()
    path = workloads.DATA / f"reference_{name}.json"
    path.write_text(json.dumps(result, separators=(",", ":")) + "\n")
    print(f"wrote {path}", file=sys.stderr)
