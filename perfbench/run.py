"""Benchmark of the hvi experiment drivers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) in this process, closed loop, with BLAS
limited to one thread: the same driver call several times, each on freshly
written inputs.  Unit times are pooled over the calls.  Set-up is measured
cold: the first statement of this file to the first unit completion of the
first driver call, less the time spent generating synthetic images; with
``--trace 0`` it is the median of this process and SETUP_SAMPLES - 1 fresh
``--setup-only`` processes, run one at a time after the driver calls.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced calls, and reports the per-layer metrics (see
README.md).  The last line of standard output is one JSON object: correct,
attempted, failed, metrics.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

# A fixed string-hash seed, read at start-up, so this process re-executes
# itself once with it (recorded in the manifest): with per-process random
# seeds, dict layouts in the tape's dispatch path moved unit times by about
# 10% between runs.
FIXED_ENV = {"PYTHONHASHSEED": "0"}
if any(os.environ.get(k) != v for k, v in FIXED_ENV.items()):
    os.environ.update(FIXED_ENV)
    os.execv(sys.executable, [sys.executable] + sys.argv)

# Before numpy loads: one BLAS thread, recorded in the manifest.
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

SETUP_SAMPLES = 5

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "_out")
WORK_DIR = os.path.join(HERE, "_work")


def _parse(argv):
    import argparse
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True,
                   help="run length; sets the fixed number of units (BENCHMARK.json run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="a few units per workload (self-test only)")
    p.add_argument("--setup-only", action="store_true",
                   help="print only this process's set-up seconds and exit")
    return p.parse_args(argv)


def _import_package():
    """Import hvi from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "hvi", "__init__.py")):
        raise SystemExit(f"error: no hvi package under {SRC}")
    sys.path.insert(0, SRC)
    import hvi
    if os.path.dirname(os.path.dirname(os.path.abspath(hvi.__file__))) != SRC:
        raise SystemExit(f"error: hvi imported from {hvi.__file__}, not {SRC}")


def _read_csv(path):
    import csv
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        for r in csv.DictReader(fh):
            r["value"] = float(r["value"])
            r["step"] = int(r["step"])
            rows.append(r)
    return rows


def drive(wl, settings, seed, workdir, images, tracer=None, setup_only=False):
    """One driver call on freshly written inputs.

    Returns a dict: completion times, bad units, driver wall time, CSV rows,
    error.
    """
    import traceback

    from hvi.config import load_config
    from hvi.experiments import EXPERIMENT_DEFAULTS, RUNNERS

    import workloads
    from tracer import ROOT as ROOT_SPAN, installed, layer_patches

    os.makedirs(workdir, exist_ok=True)
    overrides = dict(settings, experiment=wl.name, seed=seed,
                     out=os.path.join(workdir, "out.csv"), **wl.prepare(workdir, seed, images))
    cfg = load_config(None, overrides=overrides, defaults=EXPERIMENT_DEFAULTS[wl.name])
    clock = workloads.UnitClock(tracer, setup_only)
    patches = (layer_patches(tracer) if tracer is not None else []) + [wl.hook(clock)]
    error = None
    with installed(patches):
        if tracer is not None:
            tracer.open(ROOT_SPAN)
        t_b = time.perf_counter()
        try:
            RUNNERS[wl.name](cfg)
        except workloads.SetupDone:
            pass
        except Exception:  # a failed driver call is reported, not fatal
            error = traceback.format_exc()
        t_c = time.perf_counter()
        if tracer is not None:
            tracer.close()
    rows = []
    if error is None and not setup_only:
        try:
            rows = _read_csv(cfg.out)
        except (OSError, ValueError, KeyError) as exc:
            error = f"unreadable output {cfg.out}: {exc!r}"
    return dict(times=clock.times, bad=clock.bad, wall_s=t_c - t_b, error=error, rows=rows,
                tracer=tracer)


def _setup_sample(args):
    """Set-up seconds of one fresh ``--setup-only`` process, or a problem."""
    import json
    import subprocess

    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-only"] + (["--quick"] if args.quick else [])
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    except subprocess.TimeoutExpired:
        return "set-up sample: timed out"
    if proc.returncode != 0:
        return f"set-up sample: exit {proc.returncode}\n{proc.stderr}"
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def _manifest(args, wl, settings, per_call, calls):
    import hashlib
    import platform
    import subprocess

    import numpy as np

    rev = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            rev = None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "hvi")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": wl.name, "seed": args.seed, "run_seconds": args.seconds,
        "trace": args.trace, "quick": args.quick,
        "unit": wl.unit, "units_per_run": per_call * calls, "driver_calls": calls,
        "units_per_call": per_call, "settings": settings,
        "git_rev": rev, "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_ENV},
        "process_env": FIXED_ENV,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "load": "one process, closed loop, batch work",
    }


def main(argv=None) -> int:
    args = _parse(argv)
    _import_package()
    import json
    import math
    import resource
    import shutil

    import numpy as np

    import workloads
    from tracer import Tracer, layer_metrics

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    settings, per_call, calls = wl.plan(args.seconds, args.quick)
    workdir = os.path.join(WORK_DIR, f"{wl.name}-{os.getpid()}")
    # The benchmark's own image generation is not the program's set-up.
    t_gen = time.perf_counter()
    images = workloads.synthetic_images(args.seed) if wl.images else None
    gen_s = time.perf_counter() - t_gen
    if args.setup_only:
        try:
            r = drive(wl, settings, args.seed, workdir, images, setup_only=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if r["error"] or not r["times"]:
            print(r["error"] or "no unit completed", file=sys.stderr)
            return 1
        print(json.dumps({"setup_s": r["times"][0] - T0 - gen_s}))
        return 0
    runs, traced = [], []
    try:
        # With --trace 1, untraced and traced calls alternate, so both sides
        # of trace.overhead see the same process age.
        for _ in range(calls):
            runs.append(drive(wl, settings, args.seed, workdir, images))
            if args.trace:
                traced.append(drive(wl, settings, args.seed, workdir, images, tracer=Tracer()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = per_call * len(runs + traced)
    problems = []
    for r in runs + traced:
        if r["error"]:
            problems.append(r["error"])
        else:
            problems += wl.check(r["rows"], settings)
        if len(r["times"]) != per_call:
            problems.append(f"{len(r['times'])} units completed, {per_call} planned")
    setups = [runs[0]["times"][0] - T0 - gen_s] if runs[0]["times"] else []
    for _ in range(SETUP_SAMPLES - 1 if not args.trace and setups else 0):
        sample = _setup_sample(args)
        if isinstance(sample, str):
            problems.append(sample)
            break
        setups.append(sample)
    setup_s = float(np.median(setups)) if setups else float("nan")
    failed = units if problems else min(units, sum(r["bad"] for r in runs + traced))
    ms = np.concatenate([np.diff(r["times"]) for r in runs]) * 1e3
    if ms.size == 0:
        ms = np.array([sum(r["wall_s"] for r in runs) * 1e3])
    p50, p90 = float(np.median(ms)), float(np.percentile(ms, 90))
    done = sum(len(r["times"]) for r in runs)
    e2e = {
        "unit_ms.p50": (p50, "ms", ms.size),
        "unit_ms.p90": (p90, "ms", ms.size),
        "units_per_s": (done / sum(r["wall_s"] for r in runs), "1/s", done),
        "setup_s": (setup_s, "s", len(setups)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
        "failed_frac": (failed / units, "fraction", units),
    }
    layers = {}
    if traced:
        lm = layer_metrics([(r["tracer"], r["times"]) for r in traced])
        tms = np.concatenate([np.diff(r["times"]) for r in traced]) * 1e3
        lm["trace.unit_ms.p50"] = float(np.median(tms)) if tms.size else float("nan")
        lm["trace.overhead"] = lm["trace.unit_ms.p50"] / p50
        units_of = {"trace.overhead": "ratio", "bounds.ess_frac": "fraction"}
        for name, value in lm.items():
            unit = units_of.get(name) or ("ms" if name.endswith((".ms", ".p50"))
                                          else "bytes" if name.endswith(".bytes") else "count")
            layers[name] = (value, unit, tms.size)

    manifest = _manifest(args, wl, settings, per_call, calls)
    manifest.update(image_gen_s=gen_s, setup_samples_s=setups, unit_ms=ms.round(4).tolist())
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{wl.name}-seed{args.seed}-trace{args.trace}")
    for i, r in enumerate(traced):
        r["tracer"].write(f"{stem}.call{i}.spans.csv.gz")
    shown = layers if args.trace else e2e
    record = {"manifest": manifest, "problems": problems, "attempted": units, "failed": failed,
              "end_to_end": {k: {"value": v, "unit": u, "n": c} for k, (v, u, c) in e2e.items()},
              "per_layer": {k: {"value": v, "unit": u, "n": c} for k, (v, u, c) in layers.items()}}
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(f"# {wl.name} seed={args.seed} units={units} ({wl.unit}) trace={args.trace}")
    print("# manifest " + json.dumps({k: v for k, v in manifest.items() if k != "unit_ms"}))
    for name, (value, unit, count) in shown.items():
        print(f"{name:32s} {value:14.6g} {unit:9s} n={count}")
    if args.trace:
        print(f"{'unit_ms.p50 (untraced)':32s} {p50:14.6g} ms        n={ms.size}")
    # A failed run may leave a metric undefined; JSON has no NaN, and such a
    # run is reported incorrect anyway.
    reported = {k: {"value": v if math.isfinite(v) else 0.0, "unit": u}
                for k, (v, u, c) in shown.items() if k != "failed_frac"}
    print(json.dumps({"correct": not problems and failed == 0, "attempted": units,
                      "failed": failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
