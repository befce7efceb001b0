"""Convergence-bound checking and trainable-gate anomaly detection.

The bound checker targets full-batch plain gradient descent on the towers
of a fused model (frozen experts, fixed gates): with learning rate
alpha <= 1/c the loss must never increase, and the gap to the best iterate
must stay under curve(T) = 1 / (T * z * alpha * (1 - c*alpha/2)). The true
optimum is unknowable, so the best recorded iterate stands in for it and
the reported z is a proxy built from distances to that iterate.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import fusion
from .data import LabeledDataset, csv_rows, write_csv
# head_forward is unused here; perfbench's tracer wraps diagnostics.head_forward
from .nn import backward, head_forward, training
from .nn.optim import UPDATE_BLOCK

log = logging.getLogger(__name__)

FULL_BATCH_GD = "full-batch-gd"
RISE_TOLERANCE = 0.005          # relative loss rise taken as noise
PROBE_EPS, MAX_RETRIES = 1e-3, 8    # tower GD: c_hat probe radius, attempts


@dataclass
class LossTrace:
    losses: np.ndarray
    alpha: float
    method: str = FULL_BATCH_GD

    def __post_init__(self):
        self.losses = np.asarray(self.losses, dtype=np.float64)
        if self.losses.ndim != 1:
            raise ValueError("loss trace must be one-dimensional")

    @property
    def steps(self):
        return self.losses.size


@dataclass
class ConvergenceReport:
    verdict: str                     # PASS | VIOLATION | ASSUMPTIONS-NOT-MET
    c_hat: float = None
    z_hat: float = None
    alpha: float = None
    violations: list = field(default_factory=list)
    gap: np.ndarray = None           # per step, vs the best iterate
    bound: np.ndarray = None         # per step (index 0 unused)
    bound_checked: bool = False
    notes: list = field(default_factory=list)

    def summary(self):
        lines = [f"verdict: {self.verdict}",
                 f"alpha: {self.alpha}", f"c_hat: {self.c_hat}",
                 f"z_hat: {self.z_hat}",
                 f"loss increases at steps: {self.violations or 'none'}",
                 f"bound checked: {self.bound_checked}"]
        lines += [f"note: {n}" for n in self.notes]
        return "\n".join(lines)


def estimate_lipschitz(grad_fn, snapshots):
    """max over snapshot pairs of |grad(w1) - grad(w2)| / |w1 - w2|.

    A lower bound on the true Lipschitz constant of the gradient; adding
    snapshots can only raise it. Identical pairs are skipped; all-identical
    snapshots are an error. `snapshots` may be any iterable. Every distance
    is taken first; `grad_fn` is then called once per snapshot, in order,
    and a snapshot is let go as soon as its gradient is taken.
    """
    snaps = [np.asarray(s, dtype=np.float64).ravel() for s in snapshots]
    if len(snaps) < 2:
        raise ValueError("need at least two parameter snapshots")
    diff = np.empty_like(snaps[0])
    pairs = []                       # (i, j, |w_i - w_j|), distinct pairs
    for i in range(len(snaps)):
        for j in range(i + 1, len(snaps)):
            # np.sqrt(d @ d) is what np.linalg.norm computes for 1-D d
            np.subtract(snaps[i], snaps[j], out=diff)
            dw = np.sqrt(diff @ diff)
            if dw != 0.0:
                pairs.append((i, j, dw))
    if not pairs:
        raise ValueError("all parameter snapshots are identical")
    del diff                         # not held while the gradients are taken
    grads = []
    for i in range(len(snaps)):
        grads.append(np.asarray(grad_fn(snaps[i]), dtype=np.float64).ravel())
        snaps[i] = None
    diff = np.empty_like(grads[0])
    best = 0.0
    for i, j, dw in pairs:
        np.subtract(grads[i], grads[j], out=diff)
        best = max(best, np.sqrt(diff @ diff) / dw)
    return best


def _loss_increases(losses):
    out = []
    for t in range(1, len(losses)):
        tol = 1e-12 * max(1.0, abs(losses[t - 1]))
        if losses[t] > losses[t - 1] + tol:
            out.append(t)
    return out


def check_convergence(trace: LossTrace, c_hat=None, snapshots=None,
                      snapshot_steps=None) -> ConvergenceReport:
    """Verify the plain-GD convergence guarantees against a recorded run.

    Traces from other optimizers are reported as ASSUMPTIONS-NOT-MET with
    the monotonicity statistics still filled in. For full-batch GD with
    alpha <= 1/c_hat, any loss increase or a gap above the bound curve is a
    VIOLATION.
    """
    if trace.steps == 0:
        raise ValueError("empty loss trace")
    losses = trace.losses
    report = ConvergenceReport(verdict="PASS", c_hat=c_hat, alpha=trace.alpha,
                               violations=_loss_increases(losses))

    best_loss = losses.min()
    report.gap = losses - best_loss
    if snapshots is not None and len(snapshots) >= 2:
        if snapshot_steps is None or len(snapshot_steps) != len(snapshots):
            raise ValueError("snapshot_steps must align with snapshots")
        snaps = [np.asarray(s, dtype=np.float64).ravel() for s in snapshots]
        snap_losses = losses[list(snapshot_steps)]
        best_i = int(np.argmin(snap_losses))
        diff = np.empty_like(snaps[best_i])
        dists = []
        for s in snaps:
            # np.sqrt(d @ d) is what np.linalg.norm computes for 1-D d
            np.subtract(s, snaps[best_i], out=diff)
            dists.append(np.sqrt(diff @ diff))
        dmax = np.max(dists)
        if dmax > 0:
            report.z_hat = 1.0 / (dmax * dmax)
        report.gap = losses - snap_losses[best_i]

    if trace.method != FULL_BATCH_GD:
        report.verdict = "ASSUMPTIONS-NOT-MET"
        report.notes.append(f"optimizer {trace.method!r} is outside the "
                            f"plain full-batch GD setting")
        return report

    if report.violations:
        report.verdict = "VIOLATION"
        report.notes.append("loss increased under plain gradient descent")

    if c_hat is not None and trace.alpha <= 1.0 / c_hat:
        if report.z_hat is not None:
            denom = report.z_hat * trace.alpha * (1.0 - c_hat * trace.alpha / 2.0)
            t = np.arange(1, trace.steps)
            report.bound = np.concatenate([[np.inf], 1.0 / (t * denom)])
            report.bound_checked = True
            if np.any(report.gap[1:] > report.bound[1:]):
                report.verdict = "VIOLATION"
                report.notes.append("gap to the best iterate exceeded the "
                                    "bound curve")
        else:
            report.notes.append("no snapshots: bound curve not checked")
    else:
        report.notes.append("alpha above 1/c_hat: bound curve not applicable")
    return report


@dataclass
class AnomalyReport:
    loss_increase_epochs: list
    per_domain_accuracy: dict
    gap: float
    flagged: bool
    reasons: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def summary(self):
        lines = [f"flagged: {self.flagged}",
                 f"loss increases at epochs: {self.loss_increase_epochs or 'none'}",
                 f"domain accuracy gap: "
                 f"{'n/a' if self.gap is None else f'{self.gap:.4f}'}"]
        for d, a in self.per_domain_accuracy.items():
            lines.append(f"domain {d}: accuracy {a:.4f}")
        lines += [f"reason: {r}" for r in self.reasons]
        lines += [f"note: {n}" for n in self.notes]
        return "\n".join(lines)


def detect_gate_anomaly(finetune_losses, per_domain_eval, grace_epochs=4,
                        gap_threshold=0.15) -> AnomalyReport:
    """Flag a fine-tune run whose loss rises after the grace period or whose
    per-source-domain accuracies diverge beyond the threshold.

    `per_domain_eval` maps domain name to an accuracy (or any object with an
    .accuracy attribute). Rises smaller than `RISE_TOLERANCE` (relative) are
    treated as noise. A threshold that is not finite or is below 0, or a
    negative grace period, is a ValueError naming it.
    """
    if not (math.isfinite(gap_threshold) and gap_threshold >= 0):
        raise ValueError(f"gap_threshold must be finite and >= 0, "
                         f"got {gap_threshold!r}")
    if grace_epochs < 0:
        raise ValueError(f"grace_epochs must be >= 0, got {grace_epochs!r}")
    losses = np.asarray(finetune_losses, dtype=np.float64)
    if losses.ndim != 1 or losses.size < grace_epochs + 1:
        raise ValueError(f"need at least {grace_epochs + 1} epochs of losses")
    accuracies = {d: float(getattr(m, "accuracy", m))
                  for d, m in per_domain_eval.items()}
    # a NaN compares false, so it would hide a rise and the accuracy gap
    if not (np.all(np.isfinite(losses))
            and all(map(math.isfinite, accuracies.values()))):
        raise ValueError("non-finite loss or domain accuracy")
    increases = [e for e in range(1, losses.size)
                 if losses[e] > losses[e - 1] * (1.0 + RISE_TOLERANCE)]

    reasons, notes = [], []
    post_grace = [e for e in increases if e > grace_epochs]
    if post_grace:
        reasons.append(f"loss rose after the {grace_epochs}-epoch grace "
                       f"period (first at epoch {post_grace[0]})")
    gap = None
    if len(accuracies) >= 2:
        values = list(accuracies.values())
        gap = float(max(values) - min(values))
        if gap > gap_threshold:
            reasons.append(f"per-domain accuracy gap {gap:.3f} exceeds "
                           f"threshold {gap_threshold}")
    else:
        notes.append("single domain: accuracy gap check skipped")
    return AnomalyReport(loss_increase_epochs=increases,
                         per_domain_accuracy=accuracies, gap=gap,
                         flagged=bool(reasons), reasons=reasons, notes=notes)


def _finite_value(path, line, name, text):
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{path}:{line}: bad {name!r} value "
                         f"{text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{path}:{line}: {name!r} value {text!r} is not "
                         f"finite")
    return value


def load_loss_column(path, column):
    """The finite losses in one column of a per-epoch loss-trace CSV, in
    row order; any other value is a ValueError naming the file and line."""
    return [_finite_value(path, line, column, text)
            for line, (text,) in csv_rows(path, (column,))]


def load_domain_accuracies(path):
    """{domain: accuracy} from a `domain,accuracy` CSV. An accuracy that is
    not a number in [0, 1], or a domain named twice, is a ValueError naming
    the file and line."""
    accuracies, first_line = {}, {}
    for line, (domain, text) in csv_rows(path, ("domain", "accuracy")):
        accuracy = _finite_value(path, line, "accuracy", text)
        if not 0.0 <= accuracy <= 1.0:
            raise ValueError(f"{path}:{line}: accuracy {text!r} is outside "
                             f"[0, 1]")
        if domain in first_line:
            raise ValueError(f"{path}:{line}: domain {domain!r} repeats line "
                             f"{first_line[domain]}")
        accuracies[domain], first_line[domain] = accuracy, line
    return accuracies


# -- tower-only full-batch GD runner -----------------------------------------

class TowerObjective:
    """Full-batch multi-task tower loss over fixed gated inputs.

    Freezing experts and fixing gates makes each tower's input constant, so
    the whole objective is a pure function of the tower parameters; this is
    the regime the plain-GD convergence guarantee speaks about. The inputs
    are formed once, as `fusion.gated_inputs` (N, 912) arrays.

    Every tower tensor becomes a C-contiguous view into one flat parameter
    vector (towers in task order, parameters in ParamSet order), so
    `set_vector` is a single copy and the towers read its values at once.
    The towers take a gradient only inside `loss_and_grad`.
    """

    def __init__(self, model, data: LabeledDataset):
        self.model = model
        self.tasks = list(model.task_ids)
        self.labels = {t: data.labels[t] for t in self.tasks}
        self.inputs = fusion.gated_inputs(model, data.features, self.tasks)
        tensors = [p for t in self.tasks for p in model.towers[t].tensors()]
        self._flat = np.empty(sum(p.data.size for p in tensors))
        self._slices = []                # (tensor, slice), vector order
        offset = 0
        for tensor in tensors:
            n = tensor.data.size
            sl = slice(offset, offset + n)
            self._flat[sl] = tensor.data.ravel()
            self._slices.append((tensor, sl))
            tensor.data = self._flat[sl].reshape(tensor.data.shape)
            offset += n

    def get_vector(self):
        return self._flat.copy()

    def set_vector(self, vec):
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != self._flat.shape:
            raise ValueError(f"vector shape {vec.shape} does not match "
                             f"parameter count {self._flat.size}")
        self._flat[:] = vec

    def loss_and_grad(self, out=None):
        """(loss, flat gradient) at the current vector. The gradient is
        written into `out` in vector order (a fresh vector when None): for
        the sweep, each 2-D tower weight's reused gradient buffer is its
        slice of `out`, so the weight gradients land in place and only the
        other gradients are copied. The buffers are unbound afterwards."""
        flat = np.empty_like(self._flat) if out is None else out
        for tensor, sl in self._slices:
            if tensor.data.ndim == 2:
                tensor._grad_buf = flat[sl].reshape(tensor.data.shape)
        towers = [self.model.towers[t] for t in self.tasks]
        try:
            with training(*towers):
                total = fusion.tower_forward(self.model, self.inputs,
                                             self.labels)[2]
                backward(total, *towers)
            for tensor, sl in self._slices:
                if tensor.grad is None:
                    flat[sl] = 0.0
                elif tensor.grad is not tensor._grad_buf:
                    flat[sl] = tensor.grad.ravel()
        finally:
            for tensor, _sl in self._slices:
                tensor._grad_buf = tensor.grad = None
        return total.item(), flat


def _gd_step(vec, grad, alpha, change, work):
    """vec - alpha * grad, in place, one `UPDATE_BLOCK` block at a time;
    `change` receives the new vector minus the old one and its norm is
    returned. The operations are those of the out-of-place expression,
    so the new vector and `change` are bitwise the same."""
    for start in range(0, vec.size, UPDATE_BLOCK):
        block = slice(start, start + UPDATE_BLOCK)
        v = vec[block]
        w = work[:v.size]
        np.multiply(alpha, grad[block], out=w)
        np.subtract(v, w, out=w)
        np.subtract(w, v, out=change[block])
        v[...] = w
    # np.sqrt(d @ d) is what np.linalg.norm computes for 1-D d
    return np.sqrt(change @ change)


def run_tower_gd(model, data, steps=150, alpha=None, snapshot_every=10,
                 seed=0):
    """Full-batch GD on the towers with alpha = 0.5 / c_hat (unless given).

    c_hat starts from probe points around the start and keeps the running
    maximum of the gradient-difference secants along the trajectory itself;
    whenever the traversed path reveals curvature that breaks
    alpha <= 1/c_hat, the run restarts from the initial towers with the
    smaller step. c_hat only grows, so the retries terminate.

    A given alpha must be finite and > 0, `snapshot_every` >= 1 and
    `steps` >= 0 (ValueError); a non-finite loss at any step is an
    ArithmeticError naming the step. On return, and on an error after the
    arguments are checked, the model's towers hold their starting values
    again, bitwise, and frozen.

    Returns (trace, snapshots, snapshot_steps, c_hat, report); snapshot 0
    is the starting vector.
    """
    if alpha is not None and not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be finite and > 0, got {alpha!r}")
    if snapshot_every < 1:
        raise ValueError(f"snapshot_every must be >= 1, got {snapshot_every}")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    objective = TowerObjective(model, data)
    theta0 = objective.get_vector()
    try:
        trace, snapshots, snapshot_steps, c_hat = _tower_gd(
            objective, theta0, steps, alpha, snapshot_every, seed)
    finally:
        objective.set_vector(theta0)
    report = check_convergence(trace, c_hat=c_hat, snapshots=snapshots,
                               snapshot_steps=snapshot_steps)
    return trace, snapshots, snapshot_steps, c_hat, report


def _tower_gd(objective, theta0, steps, alpha, snapshot_every, seed):
    """`run_tower_gd`'s probe and GD loop on the towers' vector, which it
    leaves at the last iterate. Besides that vector, `theta0` and the
    snapshots, the loop holds two gradient vectors: the last gradient, and
    a spare that takes the step's change and then the new gradient. The
    last gradient's vector then takes g_t - g_{t-1} and becomes the spare.
    A restart recomputes the gradient at `theta0` instead of keeping it.
    The last snapshot is copied after both gradient vectors are let go.
    Returns (trace, snapshots, snapshot_steps, c_hat)."""
    rng = np.random.default_rng(seed)

    def probe_points():
        yield theta0
        scale = PROBE_EPS * (1.0 + np.linalg.norm(theta0))
        for _ in range(4):
            # theta0 + scale * direction / |direction|, evaluated in place
            point = rng.normal(size=theta0.size)
            norm = np.linalg.norm(point)
            point *= scale
            point /= norm
            point += theta0
            yield point

    start = []                           # (loss, gradient) at theta0

    def grad_at(point):
        objective.set_vector(point)
        loss, grad = objective.loss_and_grad()
        if not start:                    # the first point is theta0
            start.append((loss, grad))
        return grad

    c_hat = estimate_lipschitz(grad_at, probe_points())
    loss0, grad = start.pop()
    if not math.isfinite(loss0):
        raise ArithmeticError("non-finite tower loss at GD step 0")
    chosen_alpha = alpha

    vec = objective._flat                # the towers view it: GD steps it
    spare = np.empty_like(theta0)
    work = np.empty(min(theta0.size, UPDATE_BLOCK))
    # a diverging run ends at the loss check, not in numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for attempt in range(MAX_RETRIES):
            a = chosen_alpha if chosen_alpha is not None else 0.5 / c_hat
            losses = np.zeros(steps + 1)
            snapshots, snapshot_steps = [theta0], [0]
            vec[:] = theta0
            if attempt > 0:              # bitwise the probe's gradient
                loss0 = objective.loss_and_grad(out=grad)[0]
            losses[0] = loss0
            restart = False
            for t in range(1, steps + 1):
                dw = _gd_step(vec, grad, a, spare, work)
                losses[t] = objective.loss_and_grad(out=spare)[0]
                if not math.isfinite(losses[t]):
                    raise ArithmeticError(f"non-finite tower loss at GD "
                                          f"step {t}")
                if dw > 0:
                    np.subtract(spare, grad, out=grad)   # g_t - g_{t-1}
                    c_hat = max(c_hat, np.sqrt(grad @ grad) / dw)
                grad, spare = spare, grad
                if dw > 0 and chosen_alpha is None and a > 1.0 / c_hat \
                        and attempt < MAX_RETRIES - 1:
                    restart = True
                    break
                if t % snapshot_every == 0 and t < steps:
                    snapshots.append(vec.copy())
                    snapshot_steps.append(t)
            if not restart:
                break
            log.info("lipschitz estimate grew to %.4g at step %d; restarting "
                     "with a smaller step (attempt %d)", c_hat, t, attempt + 2)
    del grad, spare                      # let go before the last snapshot
    if steps > 0:
        snapshots.append(vec.copy())
        snapshot_steps.append(steps)
    trace = LossTrace(losses=losses, alpha=a, method=FULL_BATCH_GD)
    return trace, snapshots, snapshot_steps, c_hat


def write_convergence_csv(path, trace: LossTrace, report: ConvergenceReport):
    def rows():
        for t in range(trace.steps):
            bound = ""
            if report.bound is not None and t >= 1:
                bound = repr(float(report.bound[t]))
            gap = repr(float(report.gap[t])) if report.gap is not None else ""
            yield [t, repr(float(trace.losses[t])), gap, bound]

    write_csv(path, ["step", "loss", "gap", "bound"], rows())
