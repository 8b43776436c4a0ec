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
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        for n in self.names:
            g = self.store.grads[n]
            self._m[n] = b1 * self._m[n] + (1 - b1) * g
            self._v[n] = b2 * self._v[n] + (1 - b2) * g * g
            m_hat = self._m[n] / (1 - b1 ** self._t)
            if self.amsgrad:
                self._vhat[n] = np.maximum(self._vhat[n], self._v[n])
                v_hat = self._vhat[n] / (1 - b2 ** self._t)
            else:
                v_hat = self._v[n] / (1 - b2 ** self._t)
            self.store[n] = self.store[n] - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

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
