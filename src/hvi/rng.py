"""Counter-based random streams with a pinned uniform-consumption contract.

Every sampler documents how many uniforms one draw consumes so that seeded
runs are reproducible:

* ``normal``       -- 2 uniforms per element (Box-Muller, cosine branch only)
* ``exponential``  -- 1 uniform per element (inverse CDF)
* ``categorical``  -- 1 uniform per draw
* ``gamma``        -- variable (Marsaglia-Tsang rejection): 3 uniforms (a
                      normal and an acceptance uniform) per still-pending
                      element per round, plus 1 per element when any
                      concentration is below 1; forward only.

Streams are backed by numpy's Philox counter generator; ``split`` derives an
independent child stream from ``(seed, path)`` so replicate r of a study can
use ``root.split(r)`` without coordinating consumption.
"""

from __future__ import annotations

import numpy as np


def _splitmix64(v: int) -> int:
    v = (v + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = v
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


class RngStream:
    """One independently seeded stream, confined to a single thread."""

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self.stream = int(stream) & 0xFFFFFFFFFFFFFFFF
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))
        self.uniforms_consumed = 0

    def split(self, index: int) -> "RngStream":
        """Independent child stream for replicate/task ``index``."""
        child = _splitmix64(self.stream ^ _splitmix64(int(index) + 1))
        return RngStream(self.seed, child)

    # -- primitives ---------------------------------------------------------

    def uniform(self, shape=()) -> np.ndarray:
        """Uniforms in [0, 1); consumes exactly prod(shape) uniforms."""
        u = self._gen.random(shape)
        self.uniforms_consumed += int(np.prod(shape)) if shape else 1
        return u

    def _open_uniform(self, shape=()):
        # (0, 1]: avoids log(0) in inverse-CDF transforms.
        return 1.0 - self.uniform(shape)

    # -- samplers -----------------------------------------------------------

    def normal(self, shape=()) -> np.ndarray:
        """Standard normals via Box-Muller; 2 uniforms per element."""
        u1 = self._open_uniform(shape)
        u2 = self.uniform(shape)
        return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)

    def exponential(self, rate=1.0, shape=()) -> np.ndarray:
        """Exponential(rate) via -log(u)/rate; 1 uniform per element."""
        return -np.log(self._open_uniform(shape)) / rate

    def categorical(self, probs: np.ndarray) -> int:
        """Index draw from a probability vector; 1 uniform."""
        edges = np.cumsum(np.asarray(probs, dtype=np.float64))
        u = self.uniform() * edges[-1]
        return int(np.searchsorted(edges, u, side="right").clip(0, len(edges) - 1))

    def gamma(self, concentration, rate=1.0, shape=None) -> np.ndarray:
        """Gamma(concentration, rate) via Marsaglia-Tsang squeeze.

        Elements with concentration a < 1 draw Gamma(a + 1) * U^(1/a); when
        any element does, U is drawn first, 1 uniform for every element.  Each
        rejection round then redraws only the elements still pending, at 3
        uniforms apiece (a Box-Muller normal and an acceptance uniform), so
        consumption is data-dependent but reproducible.  Non-finite or
        non-positive parameters raise ValueError.
        """
        conc = np.asarray(concentration, dtype=np.float64)
        rate = np.asarray(rate, dtype=np.float64)
        if shape is None:
            shape = conc.shape
        conc = np.broadcast_to(conc, shape)
        if not (np.all(np.isfinite(conc)) and np.all(np.isfinite(rate))):
            raise ValueError("gamma requires finite concentration and rate")
        if np.any(conc <= 0.0) or np.any(rate <= 0.0):
            raise ValueError("gamma requires positive concentration and rate")
        a = conc.ravel()
        d = a - 1.0 / 3.0
        small = np.flatnonzero(a < 1.0)
        if small.size:
            # Gamma(a) = Gamma(a + 1) * U^(1/a) for a < 1.
            boost = self._open_uniform((a.size,))[small] ** (1.0 / a[small])
            d[small] = (a[small] + 1.0) - 1.0 / 3.0
        c = 1.0 / np.sqrt(9.0 * d)
        out, ok = self._marsaglia_tsang_round(d, c)
        pending = np.flatnonzero(~ok)
        for _ in range(199):                 # rounds 2..200
            if not pending.size:
                break
            draw, ok = self._marsaglia_tsang_round(d[pending], c[pending])
            out[pending[ok]] = draw[ok]
            pending = pending[~ok]
        if pending.size:
            raise RuntimeError("gamma sampler failed to accept after 200 rounds")
        if small.size:
            out[small] *= boost
        return out.reshape(shape) / rate

    def _marsaglia_tsang_round(self, d, c):
        """One proposal per element: (d * v, accepted); 3 uniforms per element."""
        x = self.normal((d.size,))
        u = self._open_uniform((d.size,))
        v = (1.0 + c * x) ** 3
        ok = (v > 0.0) & (np.log(u) < 0.5 * x * x + d - d * v
                          + d * np.log(np.maximum(v, 1e-300)))
        return d * v, ok
