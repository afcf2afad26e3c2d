"""In-place parameter updates: Adam."""

from __future__ import annotations

import numpy as np

from .tensor import ParameterStore

ADAM_BETAS = (0.9, 0.98)
ADAM_EPS = 1e-8


class Adam:
    """Adam with bias correction; state keyed by parameter name."""

    def __init__(self, store: ParameterStore, lr):
        self.store = store
        self.lr = lr
        self.beta1, self.beta2 = ADAM_BETAS
        self.t = 0
        self._m = {name: np.zeros_like(p.data) for name, p in store.items()}
        self._v = {name: np.zeros_like(p.data) for name, p in store.items()}

    def step(self, skip):
        """Apply one update; `skip` is None or a predicate on names to freeze."""
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for name, p in self.store.items():
            if skip is not None and skip(name):
                continue
            m = self._m[name]
            v = self._v[name]
            m *= b1
            m += (1.0 - b1) * p.grad
            v *= b2
            v += (1.0 - b2) * p.grad * p.grad
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)

    def zero_grad(self):
        self.store.zero_grad()
