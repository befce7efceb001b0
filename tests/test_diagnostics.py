"""Convergence checker on closed-form quadratics; gate anomaly detector."""

import csv
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flowmoe.diagnostics import (LossTrace, check_convergence, detect_gate_anomaly,
                                 estimate_lipschitz, load_domain_accuracies,
                                 load_loss_column)

from nn_helpers import frozen, state_dict, to_vector


def quadratic_run(c, alpha, w0=2.0, steps=30):
    """Closed-form GD recurrence oracle for L(w) = c/2 w^2."""
    ws = np.array([w0 * (1.0 - alpha * c) ** t for t in range(steps + 1)])
    losses = 0.5 * c * ws ** 2
    snaps = [np.array([w]) for w in ws]
    return losses, snaps


def test_lipschitz_exact_on_quadratic():
    c = 3.7
    snaps = [np.array([x]) for x in (-2.0, 0.5, 4.0)]
    c_hat = estimate_lipschitz(lambda w: c * np.asarray(w), snaps)
    assert abs(c_hat - c) < 1e-9


def test_lipschitz_scales_with_loss():
    grad = lambda w: np.asarray(w) * 2.0
    snaps = [np.zeros(3), np.ones(3)]
    base = estimate_lipschitz(grad, snaps)
    doubled = estimate_lipschitz(lambda w: 2.0 * grad(w), snaps)
    assert np.isclose(doubled, 2.0 * base)


def test_lipschitz_monotone_in_snapshot_set():
    rng = np.random.default_rng(0)
    # gradient of a non-quadratic loss: curvature varies across points
    grad = lambda w: np.tanh(np.asarray(w)) * 3.0
    snaps = [rng.normal(size=4) for _ in range(8)]
    prev = 0.0
    for n in range(2, 9):
        est = estimate_lipschitz(grad, snaps[:n])
        assert est >= prev - 1e-15
        prev = est


def test_lipschitz_rejects_identical_snapshots():
    with pytest.raises(ValueError, match="identical"):
        estimate_lipschitz(lambda w: w, [np.ones(2), np.ones(2)])
    with pytest.raises(ValueError, match="two"):
        estimate_lipschitz(lambda w: w, [np.ones(2)])


def test_quadratic_pass_below_inverse_c():
    c = 4.0
    alpha = 0.5 / c
    losses, snaps = quadratic_run(c, alpha)
    rep = check_convergence(LossTrace(losses, alpha), c_hat=c,
                            snapshots=snaps, snapshot_steps=range(len(snaps)))
    assert rep.verdict == "PASS"
    assert rep.violations == []
    assert rep.bound_checked
    assert np.all(rep.gap[1:] <= rep.bound[1:])


def test_quadratic_divergence_detected():
    c = 4.0
    alpha = 3.0 / c
    losses, snaps = quadratic_run(c, alpha, steps=12)
    rep = check_convergence(LossTrace(losses, alpha), c_hat=c,
                            snapshots=snaps, snapshot_steps=range(len(snaps)))
    assert rep.verdict == "VIOLATION"
    assert rep.violations  # loss grows geometrically


def test_quadratic_family_20_seeds():
    rng = np.random.default_rng(7)
    for _ in range(20):
        c = float(rng.uniform(0.5, 5.0))
        w0 = float(rng.uniform(-3.0, 3.0)) or 1.0
        snaps_alpha = float(rng.uniform(0.05, 1.0)) / c
        losses, snaps = quadratic_run(c, snaps_alpha, w0=w0)
        rep = check_convergence(LossTrace(losses, snaps_alpha), c_hat=c,
                                snapshots=snaps,
                                snapshot_steps=range(len(snaps)))
        assert rep.verdict == "PASS", f"c={c} alpha={snaps_alpha}"
        bad_alpha = float(rng.uniform(2.05, 3.5)) / c
        losses, snaps = quadratic_run(c, bad_alpha, w0=w0, steps=15)
        rep = check_convergence(LossTrace(losses, bad_alpha), c_hat=c,
                                snapshots=snaps,
                                snapshot_steps=range(len(snaps)))
        assert rep.verdict == "VIOLATION", f"c={c} alpha={bad_alpha}"


def test_convergence_note_without_c_hat_says_none_was_given():
    rep = check_convergence(LossTrace([3.0, 2.0, 1.0], 0.1))
    assert rep.notes == ["no c_hat given: bound curve not checked"]
    assert not rep.bound_checked


def test_empty_trace_rejected():
    with pytest.raises(ValueError):
        check_convergence(LossTrace(np.zeros(0), 0.1))


def test_anomaly_healthy_run_not_flagged():
    losses = np.linspace(2.0, 0.1, 12)
    rep = detect_gate_anomaly(losses, {"a": 0.95, "b": 0.93})
    assert not rep.flagged
    assert rep.loss_increase_epochs == []


def test_anomaly_rising_after_grace_flagged():
    losses = [2.0, 1.5, 1.2, 1.0, 0.9] + [1.0, 1.2, 1.4, 1.7, 2.0]
    rep = detect_gate_anomaly(losses, {"a": 0.95, "b": 0.93})
    assert rep.flagged
    assert rep.loss_increase_epochs == list(range(5, 10))


def test_anomaly_domain_gap_flagged():
    losses = np.linspace(1.0, 0.2, 8)
    rep = detect_gate_anomaly(losses, {"iptas": 0.40, "vpn": 0.95})
    assert rep.flagged
    assert np.isclose(rep.gap, 0.55)


def test_anomaly_single_domain_skips_gap():
    losses = np.linspace(1.0, 0.2, 8)
    rep = detect_gate_anomaly(losses, {"only": 0.4})
    assert not rep.flagged
    assert rep.gap is None
    assert any("skipped" in n for n in rep.notes)


def test_anomaly_pre_grace_rise_not_flagged():
    losses = [2.0, 2.5, 1.2, 1.0, 0.9, 0.8, 0.7]
    rep = detect_gate_anomaly(losses, {"a": 0.9, "b": 0.88})
    assert rep.loss_increase_epochs == [1]
    assert not rep.flagged


def test_anomaly_needs_enough_epochs():
    with pytest.raises(ValueError):
        detect_gate_anomaly([1.0, 0.9], {"a": 0.9, "b": 0.9})


def test_anomaly_rejects_non_finite_values():
    with pytest.raises(ValueError, match="non-finite"):
        detect_gate_anomaly([2.0, 1.5, 1.2, 1.0, float("nan"), 1.1],
                            {"a": 0.9})
    with pytest.raises(ValueError, match="non-finite"):
        detect_gate_anomaly(np.linspace(1.0, 0.2, 8),
                            {"a": 0.9, "b": float("nan")})


# value-level fuzzing of the gate-anomaly CSVs: numbers (NaN and infinities
# included), numeric-looking text with CSV specials, and domains from a
# small pool so that names repeat; no newlines, so row i sits on line i + 2
FUZZ_VALUE = st.floats().map(repr) \
    | st.sampled_from(["nan", "inf", "-inf", "1e400", " 0.5", "1_0", ""]) \
    | st.text(alphabet=' 0123456789.eE+-nainf,"x', max_size=6)
FUZZ_DOMAIN = st.sampled_from(["A", "B", "a", "A ", "b,c"])


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header] + rows)


def _expected_column(rows, in_range=None, unique=False):
    """Oracle: (values, None) for a valid file, else (None, first bad line)."""
    values, seen = [], set()
    for line, (key, text) in enumerate(rows, 2):
        try:
            value = float(text)
        except ValueError:
            return None, line
        if not math.isfinite(value) or (in_range and not
                                        in_range[0] <= value <= in_range[1]) \
                or (unique and key in seen):
            return None, line
        values.append(value)
        seen.add(key)
    return values, None


@settings(derandomize=True, database=None, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(losses=st.lists(FUZZ_VALUE, max_size=8),
       domains=st.lists(st.tuples(FUZZ_DOMAIN, FUZZ_VALUE), max_size=5))
def test_gate_anomaly_csv_fuzz_reads_values_or_names_the_line(
        tmp_path, losses, domains):
    trace = tmp_path / "loss.csv"
    _write_csv(trace, ["epoch", "total"],
               [[i, text] for i, text in enumerate(losses)])
    expected, bad_line = _expected_column(list(enumerate(losses)))
    try:
        assert load_loss_column(trace, "total") == expected
    except ValueError as exc:
        assert str(exc).startswith(f"{trace}:{bad_line}: "), str(exc)

    table = tmp_path / "domains.csv"
    _write_csv(table, ["domain", "accuracy"], [list(r) for r in domains])
    expected, bad_line = _expected_column(domains, (0.0, 1.0), unique=True)
    try:
        got = load_domain_accuracies(table)
    except ValueError as exc:
        assert str(exc).startswith(f"{table}:{bad_line}: "), str(exc)
        return
    assert list(got.values()) == expected
    assert list(got) == [d for d, _ in domains]


# -- TowerObjective: towers as views into one flat vector -------------------

def _mode1_fused(trained_experts):
    from flowmoe.fusion import (FusionMode, TaskRelation, TaskSpec,
                                configure_fusion)
    relation = TaskRelation(FusionMode.MODE_I,
                            [TaskSpec("app", experts=(0,)),
                             TaskSpec("encap", experts=(1,))])
    return configure_fusion(list(trained_experts), relation, seed=3)


def _mode1_objective(trained_experts, two_task_data, extra_param=False):
    from flowmoe.diagnostics import TowerObjective
    fused = _mode1_fused(trained_experts)
    if extra_param:
        # in the vector, but no forward reads it: its gradient is zero
        fused.towers["app"].add("unused", np.ones(3))
    data = two_task_data[0].subset(np.arange(48))
    return fused, TowerObjective(fused, data)


def test_tower_objective_vector_round_trip_and_views(trained_experts,
                                                     two_task_data):
    fused, obj = _mode1_objective(trained_experts, two_task_data)
    towers = [fused.towers[t] for t in ("app", "encap")]
    before = [state_dict(ps) for ps in towers]
    vec = obj.get_vector()
    assert np.array_equal(vec, np.concatenate([to_vector(ps) for ps in towers]))

    obj.set_vector(vec)
    for ps, state in zip(towers, before):
        for name, arr in state.items():
            assert np.array_equal(ps[name].data, arr)

    vec[:] = 7.0                      # get_vector() hands out a copy
    assert np.array_equal(towers[0]["fc1.w"].data, before[0]["fc1.w"])

    new = np.random.default_rng(0).normal(size=vec.size)
    obj.set_vector(new)
    assert np.array_equal(np.concatenate([to_vector(ps) for ps in towers]),
                          new)
    with pytest.raises(ValueError):
        obj.set_vector(new[:-1])


def test_tower_objective_flat_gradient_matches_finite_differences(
        trained_experts, two_task_data):
    fused, obj = _mode1_objective(trained_experts, two_task_data,
                                  extra_param=True)
    rng = np.random.default_rng(1)
    theta = obj.get_vector() + 0.05 * rng.normal(size=obj.get_vector().size)
    obj.set_vector(theta)
    _loss, grad = obj.loss_and_grad()
    assert grad.shape == theta.shape

    # "unused" is the app tower's last parameter; the app tower comes first
    n_app = to_vector(fused.towers["app"]).size
    unused = np.arange(n_app - 3, n_app)
    assert np.array_equal(grad[unused], np.zeros(3))

    def loss_at(vec):
        obj.set_vector(vec)
        return obj.loss_and_grad()[0]

    h = 1e-5
    coords = np.concatenate([rng.choice(theta.size, 24, replace=False),
                             unused])
    for i in coords:
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        fd = (loss_at(up) - loss_at(down)) / (2.0 * h)
        denom = max(abs(grad[i]), abs(fd), 3e-4)
        assert abs(grad[i] - fd) / denom < 1e-4, (i, grad[i], fd)


@pytest.mark.parametrize("rows, alpha", [(200, None), (48, 0.5)],
                         ids=["restarts", "fixed-alpha"])
def test_in_place_tower_gd_matches_out_of_place_oracle(
        trained_experts, two_task_data, rows, alpha):
    from flowmoe.diagnostics import run_tower_gd
    from tower_gd_oracle import run_tower_gd_out_of_place

    data = two_task_data[0].subset(np.arange(rows))
    losses, a, snaps, snap_steps, c_hat, restarts = \
        run_tower_gd_out_of_place(_mode1_fused(trained_experts), data,
                                  steps=25, alpha=alpha)
    if alpha is None:
        assert restarts >= 1        # the restart path runs too
    trace, snapshots, snapshot_steps, c_hat_in_place, _ = run_tower_gd(
        _mode1_fused(trained_experts), data, steps=25, alpha=alpha)
    assert np.array_equal(trace.losses, losses)
    assert trace.alpha == a
    assert c_hat_in_place == c_hat
    assert snapshot_steps == snap_steps
    assert len(snapshots) == len(snaps)
    for mine, theirs in zip(snapshots, snaps):
        assert np.array_equal(mine, theirs)


@pytest.mark.parametrize("steps", [0, 1, 25])
@pytest.mark.parametrize("rows, alpha", [(200, None), (48, 0.5)],
                         ids=["restarts", "fixed-alpha"])
def test_tower_gd_edge_cases_match_out_of_place_oracle(
        trained_experts, two_task_data, rows, alpha, steps):
    from flowmoe.diagnostics import run_tower_gd
    from flowmoe.nn.optim import UPDATE_BLOCK
    from tower_gd_oracle import run_tower_gd_out_of_place

    fused = _mode1_fused(trained_experts)
    n = sum(to_vector(fused.towers[t]).size for t in fused.task_ids)
    assert n % UPDATE_BLOCK != 0            # a short tail block runs too
    data = two_task_data[0].subset(np.arange(rows))
    for every in (1, 7, 25, 40):
        losses, a, snaps, snap_steps, c_hat, restarts = \
            run_tower_gd_out_of_place(_mode1_fused(trained_experts), data,
                                      steps=steps, alpha=alpha,
                                      snapshot_every=every)
        if alpha is None and steps == 25:
            assert restarts >= 1
        trace, snapshots, snapshot_steps, c_hat_in_place, _ = run_tower_gd(
            _mode1_fused(trained_experts), data, steps=steps, alpha=alpha,
            snapshot_every=every)
        assert np.array_equal(trace.losses, losses)
        assert trace.alpha == a
        assert c_hat_in_place == c_hat
        assert snapshot_steps == snap_steps
        assert len(snapshots) == len(snaps)
        for mine, theirs in zip(snapshots, snaps):
            assert np.array_equal(mine, theirs)


def test_tower_gd_traced_peak_stays_within_budget(trained_experts,
                                                  two_task_data):
    """The probe holds the towers' vector, its start, the probe points and
    their gradients, which it lets go one by one, and then one difference
    vector: eight parameter-length vectors at its peak. The GD loop holds
    the vector, its start, two gradients and the snapshots but the last,
    which is copied after the gradients are let go. Tower weight gradients
    are written straight into the flat gradient."""
    from flowmoe.diagnostics import run_tower_gd
    from memtrace import traced_peak

    fused = _mode1_fused(trained_experts)
    n = sum(to_vector(fused.towers[t]).size for t in fused.task_ids)
    data = two_task_data[0].subset(np.arange(48))
    (_trace, snapshots, _steps, _c, report), peak = traced_peak(
        run_tower_gd, fused, data, steps=40)
    assert len(snapshots) == 5 and report.verdict == "PASS"
    assert peak / (8 * n) <= 9.0


def test_tower_gd_leaves_the_towers_as_it_found_them(trained_experts,
                                                     two_task_data):
    from flowmoe.diagnostics import run_tower_gd

    # frozen, with their starting values bitwise, after a run or an error
    fused = _mode1_fused(trained_experts)
    # a non-zero output layer, so that a huge step overflows
    fc2 = fused.towers["app"]["fc2.w"]
    fc2.data = np.random.default_rng(2).normal(size=fc2.data.shape) * 0.1
    before = {t: state_dict(fused.towers[t]) for t in fused.task_ids}
    data = two_task_data[0].subset(np.arange(48))
    runs = [lambda: run_tower_gd(fused, data, steps=10, alpha=0.5),
            # a diverging run ends in an error, and restores them too
            lambda: pytest.raises(ArithmeticError, run_tower_gd, fused, data,
                                  steps=3, alpha=1e300)]
    for run in runs:
        run()
        for t in fused.task_ids:
            assert frozen(fused.towers[t])
            for name, arr in before[t].items():
                tensor = fused.towers[t][name]
                assert np.array_equal(tensor.data, arr), (t, name)
                assert tensor.grad is None


def test_tower_gd_rejects_a_set_under_another_label_map(trained_experts,
                                                        two_task_data):
    from flowmoe.diagnostics import run_tower_gd
    data = two_task_data[0].subset(np.arange(48))
    names = data.label_maps["app"]
    index = np.array([names[::-1].index(name) for name in names])
    reversed_app = dataclasses.replace(
        data, labels={**data.labels, "app": index[data.labels["app"]]},
        label_maps={**data.label_maps, "app": names[::-1]})
    with pytest.raises(ValueError, match="^task 'app': dataset label map "
                                         "does not match the model's$"):
        run_tower_gd(_mode1_fused(trained_experts), reversed_app, steps=2)


def test_tower_gd_rejects_a_set_lacking_a_task(trained_experts,
                                               two_task_data):
    from flowmoe.diagnostics import run_tower_gd
    data = two_task_data[0].subset(np.arange(48))
    app_only = dataclasses.replace(
        data, labels={"app": data.labels["app"]},
        label_maps={"app": data.label_maps["app"]})
    with pytest.raises(ValueError, match=r"^dataset lacks labels for "
                                         r"task\(s\) \['encap'\]$"):
        run_tower_gd(_mode1_fused(trained_experts), app_only, steps=2)
