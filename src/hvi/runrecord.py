"""CSV emission for experiment runs.

One row per recorded metric: experiment, seed, step, K, M, estimator, metric,
value, ci_low, ci_high, wall_ms.  Identical configs and seeds produce byte
identical files except for the trailing wall_ms column.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

HEADER = "experiment,seed,step,K,M,estimator,metric,value,ci_low,ci_high,wall_ms"


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


@dataclass
class RunRecord:
    experiment: str
    seed: int
    step: int
    K: int
    M: int
    estimator: str
    metric: str
    value: float
    ci_low: float | None = None
    ci_high: float | None = None
    wall_ms: int = 0

    def __post_init__(self):
        if self.ci_low is not None and self.ci_high is not None:
            if not (self.ci_low <= self.value <= self.ci_high):
                raise ValueError(
                    f"CI must bracket the value: {self.ci_low} <= {self.value} <= {self.ci_high}")

    def to_line(self) -> str:
        cells = [self.experiment, self.seed, self.step, self.K, self.M, self.estimator,
                 self.metric, self.value, self.ci_low, self.ci_high, self.wall_ms]
        return ",".join(_fmt(c) for c in cells)


class CsvWriter:
    """Collects one run's rows, each stamped with its experiment and seed, and
    writes them once; a single writer serializes output."""

    def __init__(self, path: str, experiment: str, seed: int):
        self.path = path
        self.experiment, self.seed = experiment, seed
        self.rows: list[RunRecord] = []
        self._t0 = time.monotonic()

    def add(self, **kw) -> None:
        kw.setdefault("wall_ms", int((time.monotonic() - self._t0) * 1000))
        self.rows.append(RunRecord(self.experiment, self.seed, **kw))

    def add_ci90(self, values, **kw) -> None:
        """A row of the median of ``values`` in their 5th-95th percentile interval."""
        arr = np.asarray(values, dtype=np.float64)
        self.add(value=float(np.median(arr)), ci_low=float(np.percentile(arr, 5)),
                 ci_high=float(np.percentile(arr, 95)), **kw)

    def write(self) -> None:
        with open(self.path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(HEADER + "\n")
            for row in self.rows:
                fh.write(row.to_line() + "\n")
