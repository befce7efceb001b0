"""Adam / gradient-descent updates against hand-evaluated recurrences."""

import numpy as np

from flowmoe.nn import AdamState, MultiAdam, ParamSet, adam_step, sgd_step


def _ps(**kw):
    ps = ParamSet()
    for k, v in kw.items():
        ps.add(k, v)
    return ps


def test_adam_zero_gradient_keeps_parameters():
    ps = _ps(w=np.array([1.0, -2.0]))
    adam_step(ps, {"w": np.zeros(2)}, AdamState(), 1e-3)
    assert np.array_equal(ps["w"].data, [1.0, -2.0])


def test_adam_first_step_matches_hand_recurrence():
    # fresh state, constant gradient g: m_hat = g, v_hat = g^2,
    # so the update is exactly lr * g / (|g| + eps)
    g = np.array([2.0, -0.5, 1e-3])
    ps = _ps(w=np.array([1.0, 1.0, 1.0]))
    adam_step(ps, {"w": g.copy()}, AdamState(), 0.1)
    expected = 1.0 - 0.1 * g / (np.abs(g) + 1e-8)
    assert np.allclose(ps["w"].data, expected, rtol=0, atol=1e-15)
    # per-coordinate magnitude ~ lr for any sizeable constant gradient
    assert np.all(np.abs(1.0 - ps["w"].data[:2]) > 0.1 * (1 - 1e-7))


def test_adam_five_steps_deterministic():
    grads = [np.random.default_rng(s).normal(size=4) for s in range(5)]

    def run():
        ps = _ps(w=np.zeros(4))
        st = AdamState()
        for g in grads:
            adam_step(ps, {"w": g}, st, 1e-2)
        return ps["w"].data

    assert np.array_equal(run(), run())


def test_adam_untracked_parameter_untouched():
    ps = _ps(a=np.ones(2), b=np.ones(2))
    adam_step(ps, {"a": np.full(2, 0.5)}, AdamState(), 0.1)
    assert np.array_equal(ps["b"].data, [1.0, 1.0])
    assert not np.array_equal(ps["a"].data, [1.0, 1.0])


def test_sgd_zero_rate_is_identity():
    ps = _ps(w=np.array([3.0]))
    sgd_step(ps, {"w": np.array([5.0])}, 0.0)
    assert np.array_equal(ps["w"].data, [3.0])


def test_sgd_scalar_arithmetic():
    ps = _ps(w=np.array([1.0]))
    sgd_step(ps, {"w": np.array([2.0])}, 0.1)
    assert np.allclose(ps["w"].data, [0.8], rtol=0, atol=1e-15)


def test_sgd_quadratic_descent_matches_closed_form():
    # L(w) = c/2 w^2 with alpha below 1/c: iterates follow (1 - alpha c)^t
    # and the loss decreases monotonically
    c, alpha, w0, steps = 4.0, 0.2, 3.0, 100
    ps = _ps(w=np.array([w0]))
    losses = []
    for _ in range(steps):
        w = ps["w"].data[0]
        losses.append(0.5 * c * w * w)
        sgd_step(ps, {"w": np.array([c * w])}, alpha)
    expected_w = w0 * (1 - alpha * c) ** steps
    assert np.allclose(ps["w"].data, [expected_w], rtol=1e-12)
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_multi_adam_matches_per_set_adam():
    g1 = np.array([1.0, -1.0])
    g2 = np.array([0.5])
    a, b = _ps(w=np.zeros(2)), _ps(w=np.zeros(1))
    opt = MultiAdam({"a": a, "b": b})
    for _ in range(3):
        opt.apply({"a": {"w": g1}, "b": {"w": g2}}, 1e-2)

    ref_a, ref_b = _ps(w=np.zeros(2)), _ps(w=np.zeros(1))
    st_a, st_b = AdamState(), AdamState()
    for _ in range(3):
        adam_step(ref_a, {"w": g1}, st_a, 1e-2)
        adam_step(ref_b, {"w": g2}, st_b, 1e-2)
    assert np.array_equal(a["w"].data, ref_a["w"].data)
    assert np.array_equal(b["w"].data, ref_b["w"].data)


def _textbook_adam(params, grads, m, v, step, lr, beta1=0.9, beta2=0.999,
                   eps=1e-8):
    """Out-of-place oracle: returns new (params, m, v), inputs untouched."""
    corr1 = 1.0 - beta1 ** step
    corr2 = 1.0 - beta2 ** step
    out_p, out_m, out_v = {}, {}, {}
    for name, g in grads.items():
        mn = m[name] * beta1 + (1.0 - beta1) * g
        vn = v[name] * beta2 + (1.0 - beta2) * (g * g)
        out_p[name] = params[name] - lr * (mn / corr1) / (np.sqrt(vn / corr2)
                                                         + eps)
        out_m[name], out_v[name] = mn, vn
    return out_p, out_m, out_v


def test_multi_adam_shared_work_buffers_match_textbook_update():
    # sets of different sizes, smallest first, so the shared work pair
    # grows in the middle of a step; five steps must be bitwise textbook
    rng = np.random.default_rng(21)
    shapes = {"small": {"b": (3,)}, "mid": {"w": (4, 5), "b": (5,)},
              "big": {"w": (6, 7, 2)}}
    init = {s: {n: rng.normal(size=sh) for n, sh in names.items()}
            for s, names in shapes.items()}
    sets = {s: _ps(**{n: a.copy() for n, a in arrs.items()})
            for s, arrs in init.items()}
    opt = MultiAdam(sets)

    def flat(nested):
        return {f"{s}/{n}": a for s, arrs in nested.items()
                for n, a in arrs.items()}

    ref_p = flat(init)
    ref_m = {k: np.zeros_like(a) for k, a in ref_p.items()}
    ref_v = {k: np.zeros_like(a) for k, a in ref_p.items()}
    for step in range(1, 6):
        grads = {s: {n: rng.normal(size=sh) for n, sh in names.items()}
                 for s, names in shapes.items()}
        opt.apply(grads, 1e-2)
        ref_p, ref_m, ref_v = _textbook_adam(ref_p, flat(grads), ref_m, ref_v,
                                             step, 1e-2)
    assert opt.state.work[0].size == 6 * 7 * 2
    for key, expect in ref_p.items():
        s, n = key.split("/")
        assert np.array_equal(sets[s][n].data, expect)
        assert np.array_equal(opt.state.m[key], ref_m[key])
        assert np.array_equal(opt.state.v[key], ref_v[key])
