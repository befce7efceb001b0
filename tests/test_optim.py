"""Adam updates against hand-evaluated recurrences and a textbook oracle."""

import numpy as np

from flowmoe.nn import MultiAdam, ParamSet
from flowmoe.nn.optim import UPDATE_BLOCK


def _ps(**kw):
    ps = ParamSet()
    for k, v in kw.items():
        ps.add(k, v)
    return ps


def _step(ps, grads, lr, opt=None):
    """One MultiAdam step on a single set; returns the optimizer."""
    opt = opt or MultiAdam({"s": ps})
    opt.apply({"s": grads}, lr)
    return opt


def test_adam_zero_gradient_keeps_parameters():
    ps = _ps(w=np.array([1.0, -2.0]))
    _step(ps, {"w": np.zeros(2)}, 1e-3)
    assert np.array_equal(ps["w"].data, [1.0, -2.0])


def test_adam_first_step_matches_hand_recurrence():
    # fresh state, constant gradient g: m_hat = g, v_hat = g^2,
    # so the update is exactly lr * g / (|g| + eps)
    g = np.array([2.0, -0.5, 1e-3])
    ps = _ps(w=np.array([1.0, 1.0, 1.0]))
    _step(ps, {"w": g.copy()}, 0.1)
    expected = 1.0 - 0.1 * g / (np.abs(g) + 1e-8)
    assert np.allclose(ps["w"].data, expected, rtol=0, atol=1e-15)
    # per-coordinate magnitude ~ lr for any sizeable constant gradient
    assert np.all(np.abs(1.0 - ps["w"].data[:2]) > 0.1 * (1 - 1e-7))


def test_adam_five_steps_deterministic():
    grads = [np.random.default_rng(s).normal(size=4) for s in range(5)]

    def run():
        ps = _ps(w=np.zeros(4))
        opt = None
        for g in grads:
            opt = _step(ps, {"w": g}, 1e-2, opt)
        return ps["w"].data

    assert np.array_equal(run(), run())


def test_adam_untracked_parameter_untouched():
    ps = _ps(a=np.ones(2), b=np.ones(2))
    _step(ps, {"a": np.full(2, 0.5)}, 0.1)
    assert np.array_equal(ps["b"].data, [1.0, 1.0])
    assert not np.array_equal(ps["a"].data, [1.0, 1.0])


def test_multi_adam_matches_per_set_adam():
    g1 = np.array([1.0, -1.0])
    g2 = np.array([0.5])
    a, b = _ps(w=np.zeros(2)), _ps(w=np.zeros(1))
    opt = MultiAdam({"a": a, "b": b})
    for _ in range(3):
        opt.apply({"a": {"w": g1}, "b": {"w": g2}}, 1e-2)

    for ps, g in ((a, g1), (b, g2)):
        ref = {"w": np.zeros_like(g)}
        m, v = {"w": np.zeros_like(g)}, {"w": np.zeros_like(g)}
        for step in range(1, 4):
            ref, m, v = _textbook_adam(ref, {"w": g}, m, v, step, 1e-2)
        assert np.array_equal(ps["w"].data, ref["w"])


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
        return {(s, n): a for s, arrs in nested.items()
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
    assert opt.work[0].size == 6 * 7 * 2
    for (s, n), expect in ref_p.items():
        assert np.array_equal(sets[s][n].data, expect)
        assert np.array_equal(opt.m[s, n], ref_m[s, n])
        assert np.array_equal(opt.v[s, n], ref_v[s, n])


def test_multi_adam_blocks_with_ragged_tails_match_textbook_update():
    # each parameter spans more than one block and ends in a partial one:
    # 912x256 is 7 blocks and a tail, the others one block plus or minus one
    rng = np.random.default_rng(22)
    shapes = {"w": (912, 256), "over": (UPDATE_BLOCK + 1,),
              "under": (UPDATE_BLOCK - 1,)}
    init = {n: rng.normal(size=sh) for n, sh in shapes.items()}
    ps = _ps(**{n: a.copy() for n, a in init.items()})
    opt = MultiAdam({"s": ps})
    ref_p = init
    ref_m = {n: np.zeros_like(a) for n, a in init.items()}
    ref_v = {n: np.zeros_like(a) for n, a in init.items()}
    for step in range(1, 6):
        grads = {n: rng.normal(size=sh) for n, sh in shapes.items()}
        opt.apply({"s": grads}, 1e-2)
        ref_p, ref_m, ref_v = _textbook_adam(ref_p, grads, ref_m, ref_v,
                                             step, 1e-2)
    assert opt.work[0].size == UPDATE_BLOCK
    for n in shapes:
        assert np.array_equal(ps[n].data, ref_p[n])
        assert np.array_equal(opt.m["s", n], ref_m[n])
        assert np.array_equal(opt.v["s", n], ref_v[n])
