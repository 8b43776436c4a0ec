"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload NAME [--seeds 1,2,3]

Runs ``run.py --trace 0`` once per seed, one process at a time, at the
``run_seconds`` of BENCHMARK.json, and prints
each metric's median and interquartile range as a share of the median
(``statistics.quantiles(values, n=4)``), next to the bound in BENCHMARK.json.
With ``--save PATH`` it also runs ``--trace 1`` on the first seed and writes
the per-seed values, quartiles, per-layer metrics and manifest to PATH.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    p.add_argument("--save", default=None, help="write a baseline record here")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    values: dict = {}
    units: dict = {}
    seeds = args.seeds.split(",")
    for seed in seeds:
        result = run(args.workload, seed, seconds, 0)
        if result is None:
            return 1
        for name, m in result["metrics"].items():
            units[name] = m["unit"]
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={m['value']:.4g}"
                                           for k, m in result["metrics"].items()), flush=True)
    worst = 0.0
    summary = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med
        summary[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3,
                         "iqr_share": share, "bound": bounds.get(name), "values": vals}
        bound = bounds.get(name)
        if name != "setup_s" and bound:
            worst = max(worst, share / bound)
        print(f"{args.workload:12s} {name:14s} median {med:10.4g}  IQR/median {share:7.2%}  "
              f"bound {bound}")
    print(f"largest spread as a share of its bound (setup_s excluded): {worst:.2f}")
    if args.save:
        if run(args.workload, seeds[0], seconds, 1) is None:
            return 1
        stem = os.path.join(HERE, "_out", f"{args.workload}-seed{seeds[0]}-trace1.json")
        with open(stem, encoding="utf-8") as fh:
            traced = json.load(fh)
        manifest = traced["manifest"]
        manifest.pop("unit_ms", None)
        record = {"workload": args.workload, "seeds": seeds, "end_to_end": summary,
                  "per_layer": traced["per_layer"], "manifest": manifest}
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0


def run(workload, seed, seconds, trace):
    """One run.py process; its result object, or None after reporting a failure."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--workload", workload, "--seed", seed,
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"seed {seed} trace {trace}: incorrect output\n{proc.stderr}", file=sys.stderr)
        return None
    return result


if __name__ == "__main__":
    sys.exit(main())
