"""Golden digests of seeded outputs.

Runs criterion 10's small config of each of the six experiments, plus three
vae-train variants (DReG, fixed binarization, both KL warm-ups) and a
vae-eval that refits tau, on the seeded synthetic-ring images, and hashes
each CSV with its ``wall_ms`` column stripped and every vae-train
checkpoint.  The hashes must equal those in ``golden_digests.json``: a
refactor that claims unchanged outputs passes this test as it stands.

Checkpoints are compared by hash, not within a tolerance: the tape's
reductions and BLAS calls are deterministic on one machine, so any changed
bit is a changed computation.  OpenBLAS splits a matmul differently at
each thread count, so the runs go to a child process with one BLAS thread,
pinned before numpy loads there, whatever the calling environment sets.
Across machines the last bits may move with numpy, its BLAS or the CPU's
SIMD kernels, so the file also records that fingerprint; where this
machine's differs, the test skips and names the part that differs.

A change that alters seeded outputs on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden.py

and says so in CHANGES.md.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile

import numpy as np
import pytest

import hvi
from conftest import write_synthetic_rings
from hvi.config import load_config
from hvi.experiments import EXPERIMENT_DEFAULTS, RUNNERS
from test_acceptance import determinism_runs

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_digests.json")
SEED = "13"
BLAS_ENV = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def fingerprint() -> dict:
    """What the last bits of a seeded run depend on besides the source."""
    from numpy._core import _multiarray_umath as umath
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
        "cpu_features": sorted(k for k, on in umath.__cpu_features__.items() if on),
    }


def _runs(data_dir, work):
    ck = os.path.join(work, "autodiff.ckpt")
    det = determinism_runs(data_dir, ck)
    runs = [(exp, opts, None) for exp, opts in det.items()]

    def variant(tag, **opts):
        ck = os.path.join(work, tag + ".ckpt")
        return ("vae-train", dict(det["vae-train"], checkpoint=ck, **opts), tag)

    # vae-eval reads the autodiff checkpoint, so it stays after vae-train.
    runs[3:3] = [variant("dreg", m="2", k_schedule="0:3", estimator="dreg"),
                 variant("fixed", binarization="fixed"),
                 variant("warmup", warmup_inner_kl="2", warmup_outer_kl="3"),
                 ("vae-eval", dict(det["vae-eval"], refit_epochs="1"), "refit")]
    return runs


def _sha256(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def seeded_digests(work: str) -> dict:
    """sha256 of every seeded output, keyed by file name, from runs in ``work``."""
    data_dir = os.path.join(work, "data")
    os.makedirs(data_dir)
    write_synthetic_rings(data_dir)
    out = {}
    for exp, opts, tag in _runs(data_dir, work):
        name = exp if tag is None else f"{exp}-{tag}"
        csv = os.path.join(work, name + ".csv")
        cfg = load_config(None, overrides=dict(opts, experiment=exp, seed=SEED, out=csv),
                          defaults=EXPERIMENT_DEFAULTS.get(exp, {}))
        RUNNERS[exp](cfg)
        with open(csv, encoding="utf-8") as fh:
            out[name + ".csv"] = _sha256(l.rsplit(",", 1)[0] for l in fh.read().splitlines())
        if exp == "vae-train":
            with open(cfg.checkpoint, "rb") as fh:
                out[name + ".ckpt"] = hashlib.sha256(fh.read()).hexdigest()
    return out


def pinned_digests(work: str) -> dict:
    """``seeded_digests(work)`` from a child process with one BLAS thread."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(hvi.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path, **BLAS_ENV)
    run = subprocess.run([sys.executable, os.path.abspath(__file__), "--digests", work],
                         env=env, capture_output=True, text=True)
    if run.returncode != 0:
        raise RuntimeError(f"seeded runs failed:\n{run.stderr}")
    return json.loads(run.stdout)


def test_seeded_outputs_match_golden_digests(tmp_path):
    with open(DIGESTS, encoding="utf-8") as fh:
        golden = json.load(fh)
    here = fingerprint()
    differs = [f"{k}: recorded {golden['fingerprint'].get(k)!r}, here {v!r}"
               for k, v in here.items() if golden["fingerprint"].get(k) != v]
    if differs:
        pytest.skip("golden digests were recorded on another numpy/BLAS/CPU, where last "
                    "bits may differ; " + "; ".join(differs))
    got = pinned_digests(str(tmp_path))
    changed = sorted(k for k in golden["digests"].keys() | got.keys()
                     if golden["digests"].get(k) != got.get(k))
    assert not changed, f"seeded outputs differ from golden_digests.json: {changed}"


if __name__ == "__main__":
    if sys.argv[1:2] == ["--digests"]:
        json.dump(seeded_digests(sys.argv[2]), sys.stdout)
        sys.exit(0)
    with tempfile.TemporaryDirectory() as work:
        record = {"fingerprint": fingerprint(), "digests": pinned_digests(work)}
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {DIGESTS}", file=sys.stderr)
