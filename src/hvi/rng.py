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

Samplers work in their output buffer plus at most two scratch arrays of the
draw's size, with the same arithmetic, in the same order, as the textbook
expressions:

* ``uniform``      -- a fresh array, or the caller's ``out``
* ``normal``       -- its two uniform buffers: log, x(-2), sqrt in the first
                      (the caller's ``out``, if given); x(2 pi), cos in the
                      second; the product lands in the first
* ``exponential``  -- the uniform's own buffer
* ``gamma``        -- d and c on the concentration's own shape, broadcast over
                      the sample blocks; each round uses the normal x, v and
                      the right-hand side r, draws its acceptance uniform into
                      x once r is formed, and returns d * v in v's buffer.  The
                      first round's v is the output, the rate division included.
                      The a < 1 boost keeps one value per boosted element.

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

    def uniform(self, shape=(), out=None) -> np.ndarray:
        """Uniforms in [0, 1); consumes exactly prod(shape) uniforms.

        With ``out`` (a float64 buffer of shape ``shape``) the draw is written
        there and ``out`` is returned.
        """
        u = self._gen.random(shape, out=out)
        self.uniforms_consumed += np.size(u)
        return u

    def _open_uniform(self, shape=(), out=None):
        # (0, 1]: avoids log(0) in inverse-CDF transforms.
        u = self.uniform(shape, out)
        return np.subtract(1.0, u, out=u)

    # -- samplers -----------------------------------------------------------

    def normal(self, shape=(), out=None) -> np.ndarray:
        """Standard normals via Box-Muller; 2 uniforms per element.  With
        ``out`` (a float64 buffer of shape ``shape``) they land there."""
        u1 = self._open_uniform(shape, out)
        u2 = self.uniform(shape)
        np.log(u1, out=u1)
        np.multiply(-2.0, u1, out=u1)
        np.sqrt(u1, out=u1)
        np.multiply(2.0 * np.pi, u2, out=u2)
        np.cos(u2, out=u2)
        return np.multiply(u1, u2, out=u1)

    def exponential(self, rate=1.0, shape=()) -> np.ndarray:
        """Exponential(rate) via -log(u)/rate; 1 uniform per element."""
        u = self._open_uniform(shape)
        np.log(u, out=u)
        np.negative(u, out=u)
        return _divide_into(u, rate)

    def categorical(self, probs: np.ndarray):
        """Index draw from a probability vector (an int), or one per row of a
        (rows, s) table (an int64 array); 1 uniform per draw, in row order,
        so a table draws exactly what a loop over its rows would."""
        edges = np.cumsum(np.asarray(probs, dtype=np.float64), axis=-1)
        u = self.uniform(edges.shape[:-1]) * edges[..., -1]
        # The count of edges <= u is searchsorted(edges, u, side="right").
        codes = np.minimum(np.sum(edges <= u[..., None], axis=-1), edges.shape[-1] - 1)
        return int(codes) if codes.ndim == 0 else codes.astype(np.int64)

    def gamma(self, concentration, rate=1.0, shape=None) -> np.ndarray:
        """Gamma(concentration, rate) via Marsaglia-Tsang squeeze.

        Elements with concentration a < 1 draw Gamma(a + 1) * U^(1/a); when
        any element does, U is drawn first, 1 uniform for every element.  Each
        rejection round then redraws only the elements still pending, at 3
        uniforms apiece (a Box-Muller normal and an acceptance uniform), so
        consumption is data-dependent but reproducible.  ``concentration``
        must broadcast to ``shape`` (ValueError otherwise); non-finite or
        non-positive parameters raise ValueError before anything is drawn.
        """
        conc = np.asarray(concentration, dtype=np.float64)
        rate = np.asarray(rate, dtype=np.float64)
        if shape is None:
            shape = conc.shape
        conc_b = np.broadcast_to(conc, shape)
        if not (np.all(np.isfinite(conc)) and np.all(np.isfinite(rate))):
            raise ValueError("gamma requires finite concentration and rate")
        if np.any(conc <= 0.0) or np.any(rate <= 0.0):
            raise ValueError("gamma requires positive concentration and rate")
        # d and c stay on the concentration's own shape; the rounds broadcast
        # them over the sample blocks.
        small = conc < 1.0
        d = np.where(small, conc + 1.0, conc) - 1.0 / 3.0
        c = 1.0 / np.sqrt(9.0 * d)
        boosted = bool(small.any())
        if boosted:
            # Gamma(a) = Gamma(a + 1) * U^(1/a) for a < 1.
            small = np.broadcast_to(small, shape)
            boost = self._open_uniform(shape)[small]
            np.power(boost, 1.0 / conc_b[small], out=boost)
        out, ok = self._marsaglia_tsang_round(d, c, shape)
        flat = out.reshape(-1)
        pending = np.flatnonzero(~ok)
        d_all, c_all = np.broadcast_to(d, shape).flat, np.broadcast_to(c, shape).flat
        for _ in range(199):                 # rounds 2..200
            if not pending.size:
                break
            draw, ok = self._marsaglia_tsang_round(d_all[pending], c_all[pending], pending.shape)
            flat[pending[ok]] = draw[ok]
            pending = pending[~ok]
        if pending.size:
            raise RuntimeError("gamma sampler failed to accept after 200 rounds")
        if boosted:
            out[small] *= boost
        return _divide_into(out, rate)

    def _marsaglia_tsang_round(self, d, c, shape):
        """One proposal per element of ``shape``, which d and c broadcast to:
        (d * v, accepted); 3 uniforms per element.

        Works in three buffers of ``shape``: the normal x, v (returned as
        d * v) and the right-hand side r; the acceptance uniform is drawn
        into x once r no longer needs it.
        """
        x = self.normal(shape)
        v = np.multiply(c, x, out=np.empty_like(x))
        np.add(1.0, v, out=v)
        np.power(v, 3, out=v)
        r = np.multiply(0.5, x, out=np.empty_like(x))
        np.multiply(r, x, out=r)
        np.add(r, d, out=r)
        np.maximum(v, 1e-300, out=x)
        np.log(x, out=x)
        np.multiply(d, x, out=x)
        ok = v > 0.0
        np.multiply(d, v, out=v)
        np.subtract(r, v, out=r)
        np.add(r, x, out=r)
        u = self._open_uniform(shape, out=x)
        ok &= np.log(u, out=u) < r
        return v, ok


def _divide_into(x, rate):
    """x / rate, written into x unless rate broadcasts beyond x's shape."""
    if np.broadcast_shapes(x.shape, np.shape(rate)) == x.shape:
        return np.divide(x, rate, out=x)
    return x / rate
