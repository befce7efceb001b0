"""Adam over several named parameter sets."""

from __future__ import annotations

import numpy as np

from . import threads

# Elements per block of an in-place parameter update (Adam here, the
# tower-GD step in `diagnostics`): 256 KiB of float64 per array, so a
# block's operands and scratch stay in L2 across the update's elementwise
# passes (13 for Adam).
UPDATE_BLOCK = 1 << 15
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8     # Adam's (Kingma & Ba, 2015)


class MultiAdam:
    """One bias-corrected Adam optimizer spanning several named ParamSets.

    First and second moments are keyed by (set name, parameter name) and
    share one step counter. `work` is one pair of flat scratch buffers
    shared by every parameter, grown to the largest block seen (at most
    `UPDATE_BLOCK` elements), and `worker_work` the worker's pair, grown
    alike once a step is split; they hold no state between steps.
    """

    def __init__(self, named_sets):
        self.named_sets = dict(named_sets)
        self.step = 0
        self.m: dict[tuple, np.ndarray] = {}
        self.v: dict[tuple, np.ndarray] = {}
        self.work = self.worker_work = (np.empty(0), np.empty(0))

    def apply(self, named_grads, lr):
        """One Adam step from {set name: {param name: gradient}}, in place.

        `m`, `v` and each parameter's array are updated in place, one
        `UPDATE_BLOCK`-element block of the flattened parameter at a time,
        the step's blocks in two halves (`threads.in_halves`); every temporary
        lives in a work pair. The operations are elementwise and those of
        the textbook expression
        p - lr * (m / corr1) / (sqrt(v / corr2) + eps), in the same order,
        so the result is bitwise that of evaluating it out of place.
        Parameters without a gradient entry are left untouched.
        """
        self.step += 1
        corr1 = 1.0 - BETA1 ** self.step
        corr2 = 1.0 - BETA2 ** self.step
        blocks = []                      # (p, g, m, v) block views
        for set_name, grads in named_grads.items():
            params = self.named_sets[set_name]
            for pname, g in grads.items():
                p = params[pname].data
                if not p.flags.c_contiguous:
                    raise ValueError(f"parameter {set_name}.{pname} is not "
                                     f"C-contiguous")
                key = (set_name, pname)
                if key not in self.m:
                    self.m[key] = np.zeros_like(p)
                    self.v[key] = np.zeros_like(p)
                flat = [x.reshape(-1) for x in (p, g, self.m[key],
                                                 self.v[key])]
                blocks.extend(tuple(x[start:start + UPDATE_BLOCK]
                                    for x in flat)
                              for start in range(0, p.size, UPDATE_BLOCK))
        sizes = [b[0].size for b in blocks]
        k = max(sizes, default=0)
        if self.work[0].size < k:
            self.work = (np.empty(k), np.empty(k))
        if len(blocks) > 1 and self.worker_work[0].size < k:
            self.worker_work = (np.empty(k), np.empty(k))

        def run(lo, hi, work):
            for pb, gb, m, v in blocks[lo:hi]:
                a, b = (w[:pb.size] for w in work)
                m *= BETA1
                np.multiply(gb, 1.0 - BETA1, out=a)
                m += a
                v *= BETA2
                np.multiply(gb, gb, out=a)
                a *= 1.0 - BETA2
                v += a
                np.divide(m, corr1, out=a)
                a *= lr
                np.divide(v, corr2, out=b)
                np.sqrt(b, out=b)
                b += EPS
                a /= b
                pb -= a

        threads.in_halves(sizes, run, (self.work, self.worker_work))
