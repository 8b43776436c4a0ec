"""The four benchmark workloads: driver settings, seeded inputs, unit hooks and
output checks.

A workload runs one of the package's experiment drivers
(``hvi.experiments.RUNNERS``) on a config owned by this file, several times
per run: the same driver call repeated spreads each kind of unit over the
run, so a few seconds of machine drift no longer decide a percentile.  The
run length is a fixed number of units derived from ``--seconds``, never a
time limit, so two commits do the same work.  A unit ends at one completion
of the call named by ``unit``: ``Adam.step`` for training, one
``eval_variants`` return for ``vae-eval``, one gradient replicate for
``snr``.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from hvi import experiments, optim
from hvi.idx import write_idx_images
from hvi.models import make_mini_vae, save_params
from hvi.rng import RngStream

SIDE = 28
N_IMAGES = 1000            # synthetic images written for the VAE workloads
VAE_HIDDEN = [64, 64]
VAE_Z = VAE_PSI = 8
EVAL_K = [0, 4, 16]
EVAL_VARIANTS = ["DIWHVI_EVAL", "SIVI_LIKE"]
EVAL_IMAGES = 64
EVAL_CHUNK = 8             # evaluate_vae_bound's default chunk
SNR_K = [1, 8, 64]
SNR_KINDS = 3              # autodiff, dreg, iwae


class SetupDone(Exception):
    """Raised at the first unit completion of a set-up-only driver call."""


class UnitClock:
    """Completion times of the call that ends a unit, plus failed units.

    With ``setup_only`` the driver call is ended at the first completion.
    """

    def __init__(self, tracer=None, setup_only=False):
        self.times: list[float] = []
        self.bad = 0
        self.tracer = tracer
        self.setup_only = setup_only

    def done(self, ok: bool) -> None:
        self.times.append(time.perf_counter())
        if not ok:
            self.bad += 1
        if self.tracer is not None:
            self.tracer.unit = len(self.times)
        if self.setup_only:
            raise SetupDone


def _finite(arrays) -> bool:
    return all(bool(np.all(np.isfinite(a))) for a in arrays)


# -- unit hooks: each returns a patch (home, attr, wrapper) ------------------

def step_hook(clock: UnitClock):
    """A unit ends at each Adam.step; its gradients must be finite."""
    def wrapper(fn):
        def step(self):
            ok = _finite(self.store.grads[n] for n in self.names)
            fn(self)
            clock.done(ok)
        return step
    return (optim.Adam, "step", wrapper)


def eval_hook(clock: UnitClock):
    """A unit ends at each eval_variants return; the estimate must be finite."""
    def wrapper(fn):
        def eval_variants(*args, **kwargs):
            est = fn(*args, **kwargs)
            clock.done(math.isfinite(est.value) and _finite([est.per_x]))
            return est
        return eval_variants
    return (experiments, "eval_variants", wrapper)


def replicate_hook(clock: UnitClock):
    """A unit ends at each SNR gradient replicate; the gradient must be finite."""
    def wrapper(fn):
        def measure_snr(grad_fn, replicates, rng):
            def replicate(stream):
                g = grad_fn(stream)
                clock.done(_finite(g.grads.values()))
                return g
            return fn(replicate, replicates, rng)
        return measure_snr
    return (experiments, "measure_snr", wrapper)


# -- seeded inputs --------------------------------------------------------------

def synthetic_images(seed: int, n: int = N_IMAGES, side: int = SIDE,
                     chunk: int = 50) -> np.ndarray:
    """Stroke images: 2 to 4 blurred line segments each, grey levels in [0, 1].

    Built ``chunk`` images at a time, so the temporaries stay a few MB and the
    generator adds little to the process's peak RSS.
    """
    g = np.random.default_rng([seed, 0x5EED])
    strokes = 4
    grid = np.stack(np.meshgrid(np.linspace(0, 1, side), np.linspace(0, 1, side),
                                indexing="ij"), axis=-1).reshape(-1, 2)      # (P, 2)
    p0 = g.uniform(0.15, 0.85, (n, strokes, 1, 2))
    p1 = g.uniform(0.15, 0.85, (n, strokes, 1, 2))
    width = g.uniform(0.03, 0.07, (n, strokes, 1))
    live = np.arange(strokes)[None, :, None] < g.integers(2, strokes + 1, (n, 1, 1))
    out = np.empty((n, side * side))
    for a in range(0, n, chunk):
        b = min(a + chunk, n)
        q0, seg = p0[a:b], p1[a:b] - p0[a:b]
        length2 = np.maximum(np.sum(seg * seg, axis=-1), 1e-9)
        frac = np.clip(np.sum((grid - q0) * seg, axis=-1) / length2, 0.0, 1.0)
        d2 = np.sum((grid - q0 - frac[..., None] * seg) ** 2, axis=-1)       # (c, S, P)
        ink = np.where(live[a:b], np.exp(-d2 / (2.0 * width[a:b] ** 2)), 0.0).max(axis=1)
        out[a:b] = np.clip(ink, 0.0, 1.0)
    return out.reshape(n, side, side)


def write_images(workdir: str, images: np.ndarray) -> str:
    path = os.path.join(workdir, "train-images-idx3-ubyte")
    write_idx_images(path, images)
    return path


def write_checkpoint(workdir: str, seed: int) -> str:
    """A seeded, untrained mini VAE saved with its meta.arch block."""
    vae = make_mini_vae(SIDE * SIDE, VAE_Z, VAE_PSI, tuple(VAE_HIDDEN), RngStream(seed, 7))
    vae.store["meta.arch"] = np.array([SIDE * SIDE, VAE_Z, VAE_PSI] + VAE_HIDDEN,
                                      dtype=np.float64)
    path = os.path.join(workdir, "vae.ckpt")
    save_params(path, vae.store)
    return path


# -- output checks --------------------------------------------------------------

def _rows(rows, metric):
    return [r for r in rows if r["metric"] == metric]


def check_toy(rows, settings) -> list[str]:
    bad = []
    bounds = _rows(rows, "bound")
    truth = _rows(rows, "negative_entropy_truth")
    if not bounds or len(truth) != 1:
        return ["toy-laplace: missing bound or truth rows"]
    if not all(math.isfinite(r["value"]) for r in bounds):
        bad.append("toy-laplace: non-finite bound row")
    finals = [r for r in bounds if r["step"] == settings["steps"]]
    if len(finals) != 2:
        bad.append("toy-laplace: expected final iwhvi and sivi bounds")
    for r in finals:
        if not r["value"] >= truth[0]["value"]:
            bad.append(f"toy-laplace: final {r['estimator']} bound {r['value']} "
                       f"below truth {truth[0]['value']}")
    return bad


def _finite_negative(rows, metrics, name) -> list[str]:
    picked = [r for r in rows if r["metric"] in metrics]
    if not picked:
        return [f"{name}: no {'/'.join(metrics)} rows"]
    return [f"{name}: {r['metric']} {r['value']} is not finite and negative"
            for r in picked if not (math.isfinite(r["value"]) and r["value"] < 0.0)]


def check_vae_train(rows, settings) -> list[str]:
    bad = _finite_negative(rows, ("train_bound", "val_bound", "eval_bound"), "vae-train")
    if len(_rows(rows, "train_bound")) != settings["epochs"] or not _rows(rows, "val_bound"):
        bad.append("vae-train: missing train_bound or val_bound rows")
    return bad


def check_vae_eval(rows, settings) -> list[str]:
    bad = _finite_negative(rows, ("train_bound", "val_bound", "eval_bound"), "vae-eval")
    want = len(EVAL_VARIANTS) * len(EVAL_K) * settings["eval_runs"]
    if len(_rows(rows, "eval_bound")) != want:
        bad.append(f"vae-eval: expected {want} eval_bound rows")
    return bad


def check_snr(rows, settings) -> list[str]:
    bad = []
    snr = _rows(rows, "snr_mean")
    if len(snr) != len(SNR_K) * SNR_KINDS:
        bad.append("snr: missing snr_mean rows")
    bad += [f"snr: snr_mean {r['value']} ({r['estimator']}, K={r['K']}) is not finite and positive"
            for r in snr if not (math.isfinite(r["value"]) and r["value"] > 0.0)]
    err = _rows(rows, "trained_A_maxerr")
    if len(err) != 1 or not math.isfinite(err[0]["value"]):
        bad.append("snr: trained_A_maxerr missing or not finite")
    return bad


# -- workload table -------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str                  # also the RUNNERS key of the driver it runs
    unit: str
    # (seconds, quick) -> (driver settings, units per driver call, driver calls)
    plan: Callable
    # (workdir, seed, images) -> extra settings naming the written inputs
    prepare: Callable
    hook: Callable
    check: Callable
    images: bool = False       # needs synthetic images, generated before set-up


def _no_inputs(workdir, seed, images):
    return {}


def _train_inputs(workdir, seed, images):
    write_images(workdir, images)
    return {"data_path": workdir}


def _eval_inputs(workdir, seed, images):
    write_images(workdir, images)
    return {"data_path": workdir, "checkpoint": write_checkpoint(workdir, seed)}


def plan_toy(seconds, quick):
    steps = 5 if quick else 6 * seconds + 1
    return dict(dim=50, batch_size=32, k=10, hidden=[128, 128, 128], replicates=1,
                steps=steps, eval_every=250, eval_draws=512,
                final_eval_draws=2048), steps, 1 if quick else 5


def plan_vae_train(seconds, quick):
    subset = 160 if quick else N_IMAGES
    settings = dict(batch_size=32, m=1, hidden=VAE_HIDDEN, z_dim=VAE_Z, psi_dim=VAE_PSI,
                    estimator="autodiff", subset_size=subset, epochs=3,
                    k_schedule=[(0, 0), (1, 2), (2, 5)])
    train = subset - int(round(subset * 0.1))
    return settings, 3 * (train // 32), 1 if quick else max(3, round(0.6 * seconds))


def plan_vae_eval(seconds, quick):
    settings = dict(m_list=[100], k_list=EVAL_K, variants=EVAL_VARIANTS, eval_runs=1,
                    eval_images=16 if quick else EVAL_IMAGES, hidden=VAE_HIDDEN)
    chunks = -(-settings["eval_images"] // EVAL_CHUNK)
    units = len(EVAL_VARIANTS) * len(EVAL_K) * chunks
    return settings, units, 1 if quick else max(3, round(0.3 * seconds))


def plan_snr(seconds, quick):
    reps = 2 if quick else 2 * seconds
    settings = dict(batch_size=100, k_list=SNR_K, replicates=reps,
                    steps=20 if quick else 100, train_k=0)
    return settings, len(SNR_K) * SNR_KINDS * reps, 1 if quick else 10


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("toy-laplace", "Adam.step", plan_toy, _no_inputs, step_hook,
             check_toy),
    Workload("vae-train", "Adam.step", plan_vae_train, _train_inputs, step_hook,
             check_vae_train, images=True),
    Workload("vae-eval", "eval_variants", plan_vae_eval, _eval_inputs, eval_hook,
             check_vae_eval, images=True),
    Workload("snr", "gradient replicate", plan_snr, _no_inputs, replicate_hook,
             check_snr),
)}
