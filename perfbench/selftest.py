"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload in quick mode (a few units), untraced and traced, one
process at a time, and checks that:

* the last output line is the result object, correct, with no failed unit;
* every end-to-end and per-layer metric named in BENCHMARK.json is emitted
  with its unit, and ``failed_frac`` is printed with its sample count;
* the traced run attributes time as the package's profile says it should
  (Gamma layers lead on toy-laplace, no Gamma calls elsewhere, no backward
  pass in vae-eval, tracing overhead reported);
* in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIMEOUT = 600

# Self-time metrics that partition a unit, for the largest-share check.
SELF_MS = ("special.gammainc_p.ms", "dists.gamma_implicit_grad.ms", "rng.gamma.ms",
           "rng.normal.ms", "models.mlp_apply.ms", "tape.record.ms", "tape.backward.ms",
           "grads.autodiff.ms", "grads.dreg.ms", "optim.step.ms", "dists.sample_reparam.ms",
           "dists.log_prob.ms", "models.sample_joint.ms", "bounds.estimator.ms",
           "experiments.driver.ms")


def run(cwd, *args):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT)


def check_result(proc, spec, key, workload, trace) -> dict:
    where = f"{workload} trace={trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True and result["failed"] == 0, f"{where}: {proc.stderr}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, where
    for m in spec[key]:
        got = result["metrics"].get(m["name"])
        assert got is not None, f"{where}: metric {m['name']} missing"
        assert got["unit"] == m["unit"], f"{where}: {m['name']} unit {got['unit']}"
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), \
            f"{where}: {m['name']} = {got['value']}"
    assert set(result["metrics"]) == {m["name"] for m in spec[key]}, where
    if not trace:
        assert any(line.startswith("failed_frac") and "n=" in line for line in lines), where
    return {k: v["value"] for k, v in result["metrics"].items()}


def check_profile(workload, layers):
    if workload == "toy-laplace":
        gamma = layers["special.gammainc_p.ms"] + layers["dists.gamma_implicit_grad.ms"]
        others = [layers[k] for k in SELF_MS if k not in ("special.gammainc_p.ms",
                                                           "dists.gamma_implicit_grad.ms")]
        assert gamma > max(others), f"toy-laplace: Gamma layers {gamma} ms do not lead"
    else:
        assert layers["special.gammainc_p.calls"] == 0, f"{workload}: gammainc_p called"
    if workload == "vae-eval":
        assert layers["tape.backward.ms"] == 0, "vae-eval: backward pass recorded"
    if workload == "snr":
        assert layers["grads.autodiff.ms"] > 0 and layers["grads.dreg.ms"] > 0, "snr: no grads"
    assert layers["trace.overhead"] > 0, f"{workload}: no tracing overhead"


def check_bare_directory():
    """Without the package sources the benchmark must fail without a result."""
    bare = os.path.join(HERE, "_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
        proc = run(bare, "--workload", "snr", "--seed", "1", "--seconds", "10", "--trace", "0")
        assert proc.returncode != 0, "bare directory: exit code 0"
        assert '"correct"' not in proc.stdout, "bare directory: printed a result"
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for w in spec["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, "--workload", name, "--seed", "1", "--seconds",
                       str(spec["run_seconds"]), "--trace", str(trace), "--quick")
            values = check_result(proc, spec, key, name, trace)
            if trace:
                check_profile(name, values)
        print(f"ok  {name}", flush=True)
    check_bare_directory()
    print("ok  bare directory fails without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
