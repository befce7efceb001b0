"""Out-of-place tower GD, the reference for `run_tower_gd`: it sets a fresh
parameter vector and takes a fresh gradient each step, where `run_tower_gd`
steps the towers' vector in place. The two must agree bitwise."""

import numpy as np

from flowmoe.diagnostics import TowerObjective, estimate_lipschitz


def run_tower_gd_out_of_place(model, data, steps=150, alpha=None,
                              snapshot_every=10, probe_eps=1e-3,
                              max_retries=8, seed=0):
    """Returns (losses, alpha, snapshots, snapshot_steps, c_hat, restarts)."""
    objective = TowerObjective(model, data)
    theta0 = objective.get_vector()
    rng = np.random.default_rng(seed)

    probe_points = [theta0]
    scale = probe_eps * (1.0 + np.linalg.norm(theta0))
    for _ in range(4):
        direction = rng.normal(size=theta0.size)
        probe_points.append(theta0 + scale * direction / np.linalg.norm(direction))

    def grad_at(vec):
        objective.set_vector(vec)
        return objective.loss_and_grad()[1]

    c_hat = estimate_lipschitz(grad_at, probe_points)
    chosen_alpha = alpha

    for attempt in range(max_retries):
        a = chosen_alpha if chosen_alpha is not None else 0.5 / c_hat
        losses = np.zeros(steps + 1)
        snapshots, snapshot_steps = [], []
        vec = theta0.copy()
        prev_vec = prev_grad = None
        diff = np.empty_like(theta0)
        restart = False
        for t in range(steps + 1):
            objective.set_vector(vec)
            loss, grad = objective.loss_and_grad()
            losses[t] = loss
            if prev_grad is not None:
                np.subtract(vec, prev_vec, out=diff)
                dw = np.sqrt(diff @ diff)
                if dw > 0:
                    np.subtract(grad, prev_grad, out=diff)
                    c_hat = max(c_hat, np.sqrt(diff @ diff) / dw)
                    if chosen_alpha is None and a > 1.0 / c_hat \
                            and attempt < max_retries - 1:
                        restart = True
                        break
            if t % snapshot_every == 0 or t == steps:
                snapshots.append(vec.copy())
                snapshot_steps.append(t)
            prev_vec, prev_grad = vec, grad
            if t < steps:
                vec = vec - a * grad
        if not restart:
            break
    return losses, a, snapshots, snapshot_steps, c_hat, attempt
