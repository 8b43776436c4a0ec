"""Experiment configuration: flat key = value files plus CLI flag overrides.

Flags win over file values; unknown keys are configuration errors so typos
fail loudly.  List-valued fields use comma syntax ("1,8,64"); the K schedule
uses epoch:K pairs ("0:0,10:2,25:5").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .bounds import EVAL_VARIANTS


class ConfigError(ValueError):
    """Invalid configuration; the CLI maps this to exit code 2."""


EXPERIMENTS = ("toy-laplace", "snr", "vae-train", "vae-eval", "bounds-check",
               "jackknife-study")


@dataclass
class ExperimentConfig:
    experiment: str = ""
    seed: int = 0
    k: int = 10
    m: int = 1
    j: int = 1
    k_list: list = field(default_factory=list)      # sweep lists; empty -> [k]
    m_list: list = field(default_factory=list)
    replicates: int = 10
    steps: int = 2000
    learning_rate: float = 2e-3
    batch_size: int = 32
    epochs: int = 50
    lr_anneal_factor: float = 0.0                   # 0 disables annealing
    lr_anneal_period: int = 100
    k_schedule: list = field(default_factory=list)  # [(epoch_start, K)]
    warmup_inner_kl: int = 0
    warmup_outer_kl: int = 0
    estimator: str = "autodiff"
    data_path: str = ""
    subset_size: int = 2000
    binarization: str = "dynamic"
    out: str = "out.csv"
    checkpoint: str = ""
    dim: int = 50
    hidden: list = field(default_factory=lambda: [128, 128, 128])
    eval_every: int = 250
    eval_draws: int = 512
    final_eval_draws: int = 2048
    eval_images: int = 64
    eval_runs: int = 10
    variants: list = field(default_factory=lambda: ["DIWHVI_EVAL", "SIVI_LIKE"])
    refit_epochs: int = 0
    n_models: int = 50
    train_k: int = 0
    z_dim: int = 8
    psi_dim: int = 8
    val_fraction: float = 0.1

    def validate(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; "
                              f"choose one of {', '.join(EXPERIMENTS)}")
        if self.seed < 0 or self.seed > 2 ** 64 - 1:
            raise ConfigError("seed must fit in u64")
        if self.k < 0 or self.m < 1 or self.j < 0:
            raise ConfigError("require k >= 0, m >= 1, j >= 0")
        if any(k < 0 for k in self.k_list):
            raise ConfigError("k_list entries must be >= 0")
        if any(m < 1 for m in self.m_list):
            raise ConfigError("m_list entries must be >= 1")
        if any(h < 1 for h in self.hidden):
            raise ConfigError("hidden entries must be >= 1")
        if self.estimator not in ("autodiff", "dreg"):
            raise ConfigError(f"unknown estimator {self.estimator!r}")
        if self.binarization not in ("dynamic", "fixed"):
            raise ConfigError(f"unknown binarization {self.binarization!r}")
        unknown = [v for v in self.variants if v not in EVAL_VARIANTS]
        if unknown:
            raise ConfigError(f"unknown variants {', '.join(map(repr, unknown))}; "
                              f"choose from {', '.join(EVAL_VARIANTS)}")
        if self.k_schedule:
            starts = [e for e, _ in self.k_schedule]
            if starts != sorted(set(starts)):
                raise ConfigError("k_schedule epochs must be strictly increasing")
            if any(k < 0 for _, k in self.k_schedule):
                raise ConfigError("k_schedule K values must be >= 0")
        for name in ("replicates", "steps", "batch_size", "epochs", "eval_runs", "eval_every",
                     "eval_draws", "final_eval_draws", "eval_images", "dim", "z_dim", "psi_dim",
                     "lr_anneal_period"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.experiment == "snr" and self.replicates < 2:
            raise ConfigError("replicates must be >= 2 for snr: an SNR needs a spread")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not (math.isfinite(self.lr_anneal_factor) and self.lr_anneal_factor >= 0):
            raise ConfigError(f"lr_anneal_factor must be finite and >= 0, "
                              f"got {self.lr_anneal_factor}")
        if not 0 <= self.val_fraction < 1:
            raise ConfigError("val_fraction must lie in [0, 1)")

    def k_at_epoch(self, epoch: int) -> int:
        if not self.k_schedule:
            return self.k
        k = self.k_schedule[0][1]
        for start, kk in self.k_schedule:
            if epoch >= start:
                k = kk
        return k

    def warmup_weight(self, epoch: int, span: int) -> float:
        """Linear warm-up multiplier: min(1, epoch/span); 1 when disabled."""
        if span <= 0:
            return 1.0
        return min(1.0, epoch / span)

    def lr_at_epoch(self, epoch: int) -> float:
        if self.lr_anneal_factor <= 0.0:
            return self.learning_rate
        return self.learning_rate * self.lr_anneal_factor ** (epoch / self.lr_anneal_period)


def _parse_value(name: str, raw: str, current):
    raw = raw.strip()
    try:
        if name == "k_schedule":
            out = []
            for part in raw.split(","):
                if not part.strip():
                    continue
                e, k = part.split(":")
                out.append((int(e), int(k)))
            return out
        if isinstance(current, list):
            if name == "variants":
                return [p.strip() for p in raw.split(",") if p.strip()]
            return [int(p) for p in raw.split(",") if p.strip()]
        if isinstance(current, int):
            return int(raw)
        if isinstance(current, float):
            return float(raw)
        return raw
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad value for {name}: {raw!r} ({exc})") from None


def load_config(path: str | None, overrides: dict | None = None,
                defaults: dict | None = None) -> ExperimentConfig:
    """Build a config with precedence: defaults < file values < overrides."""
    cfg = ExperimentConfig()
    known = {f.name for f in fields(ExperimentConfig)}
    for key, val in (defaults or {}).items():
        if key not in known:
            raise ConfigError(f"unknown default key {key!r}")
        setattr(cfg, key, val)
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        for i, line in enumerate(lines, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{i}: expected key = value")
            key, raw = line.split("=", 1)
            key = key.strip().replace("-", "_")
            if key not in known:
                raise ConfigError(f"{path}:{i}: unknown key {key!r}")
            setattr(cfg, key, _parse_value(key, raw, getattr(cfg, key)))
    for key, raw in (overrides or {}).items():
        key = key.replace("-", "_")
        if key not in known:
            raise ConfigError(f"unknown option {key!r}")
        if raw is None:
            continue
        value = raw if not isinstance(raw, str) else _parse_value(key, raw, getattr(cfg, key))
        setattr(cfg, key, value)
    cfg.validate()
    return cfg
