"""Adam / AMSGrad on ParamStore blocks (descent on the stored gradients)."""

from __future__ import annotations

import numpy as np

from .tape import ParamStore


class Adam:
    """Standard Adam; ``amsgrad=True`` keeps the running max of the second
    moment (the variant the SNR study trains with)."""

    def __init__(self, store: ParamStore, names, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8, amsgrad: bool = False):
        self.store = store
        self.names = list(names)
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.amsgrad = amsgrad
        self._m = {n: np.zeros_like(store[n]) for n in self.names}
        self._v = {n: np.zeros_like(store[n]) for n in self.names}
        self._vhat = {n: np.zeros_like(store[n]) for n in self.names} if amsgrad else {}
        self._t = 0

    def step(self) -> None:
        """One update from ``store.grads``.  The moments are updated in place
        with two scratch arrays per block, in the textbook expressions'
        order; each parameter gets a fresh array, since tape leaves alias
        the store's."""
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        for n in self.names:
            g = self.store.grads[n]
            m, v = self._m[n], self._v[n]
            s1, s2 = np.empty_like(g), np.empty_like(g)
            np.multiply(m, b1, out=m)                                  # b1 m + (1 - b1) g
            np.add(m, np.multiply(g, 1 - b1, out=s1), out=m)
            np.multiply(np.multiply(g, 1 - b2, out=s1), g, out=s1)    # b2 v + (1 - b2) g g
            np.multiply(v, b2, out=v)
            np.add(v, s1, out=v)
            if self.amsgrad:
                v = np.maximum(self._vhat[n], v, out=self._vhat[n])
            np.divide(m, 1 - b1 ** self._t, out=s1)                    # m_hat
            np.divide(v, 1 - b2 ** self._t, out=s2)                    # v_hat
            np.multiply(s1, self.lr, out=s1)                           # lr m_hat / (sqrt + eps)
            np.add(np.sqrt(s2, out=s2), self.eps, out=s2)
            self.store[n] = self.store[n] - np.divide(s1, s2, out=s1)

    def descend(self, grads: dict) -> None:
        """One step down ``grads``, a block name -> loss gradient map.

        Each of this optimizer's blocks gets its entry of ``grads`` (0 when
        absent; other names are ignored) before ``step``.  A NaN or inf
        gradient raises FloatingPointError naming its block and the step it
        would have been, with the parameters and the moments unchanged.
        """
        for n in self.names:
            if n in grads and not np.all(np.isfinite(grads[n])):
                raise FloatingPointError(
                    f"non-finite gradient in parameter block {n!r} at step {self._t + 1}")
        for n in self.names:
            self.store.grads[n][...] = grads.get(n, 0.0)
        self.step()
