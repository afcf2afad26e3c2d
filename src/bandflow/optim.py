"""In-place parameter updates: Adam."""

from __future__ import annotations

import numpy as np

from .tensor import ParameterStore

ADAM_BETAS = (0.9, 0.98)
ADAM_EPS = 1e-8


class Adam:
    """Adam with bias correction over the store's flat segments."""

    def __init__(self, store: ParameterStore, lr):
        self.store = store
        self.lr = lr
        self.beta1, self.beta2 = ADAM_BETAS
        self.t = 0
        # the per-tensor arrays die after the new buffers exist, leaving one
        # free block below them for each step's temporaries (see CHANGES.md)
        held = [(p.data, p.grad) for _, p in store.items()]
        self._state = [(seg, np.zeros_like(seg.data), np.zeros_like(seg.data))
                       for seg in store.pack()]
        width = max((seg.data.size for seg in store.pack()), default=0)
        self._num, self._den = np.empty(width), np.empty(width)
        del held

    def step(self, skip):
        """Apply one update; `skip` is None or a predicate on names to freeze."""
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for seg, m_all, v_all in self._state:
            for lo, hi in seg.free_runs(skip):
                g, m, v = seg.grad[lo:hi], m_all[lo:hi], v_all[lo:hi]
                num, den = self._num[:hi - lo], self._den[:hi - lo]
                # the per-tensor update's order, so every bit stays: m*b1 + (1-b1)*g,
                # v*b2 + ((1-b2)*g)*g, p - (lr*(m/c1)) / (sqrt(v/c2) + eps)
                m *= b1
                m += np.multiply(g, 1.0 - b1, out=num)
                v *= b2
                np.multiply(g, 1.0 - b2, out=den)
                v += np.multiply(den, g, out=den)
                np.sqrt(np.divide(v, c2, out=den), out=den)
                den += ADAM_EPS
                np.multiply(np.divide(m, c1, out=num), self.lr, out=num)
                seg.data[lo:hi] -= np.divide(num, den, out=num)

    def zero_grad(self):
        self.store.zero_grad()
