"""The worker thread (`nn.threads`): the split kernels keep every bit.

A split product is bitwise one call only because of an empirical property
of the BLAS: a row of a product of five or more rows is the same whatever
the row count. The first tests check it for every shape the split takes.
"""

import multiprocessing
import threading
import time
import warnings

import numpy as np
import pytest

from flowmoe.diagnostics import _gd_step
from flowmoe.nn import MultiAdam, ParamSet, threads
from flowmoe.nn.optim import UPDATE_BLOCK
from test_ini_guard import _importers


def _halves(a, b):
    h = a.shape[0] // 2
    return np.concatenate([a[:h] @ b, a[h:] @ b])


@pytest.mark.parametrize("rows", [64, 128, 180, 256, 257])
def test_tower_forward_halves_are_one_call(rows):
    rng = np.random.default_rng(rows)
    x, w = rng.normal(size=(rows, 912)), rng.normal(size=(912, 256))
    assert np.array_equal(_halves(x, w), x @ w)
    assert np.array_equal(threads.matmul(x, w), x @ w)


@pytest.mark.parametrize("rows", [64, 180])
def test_weight_gradient_halves_of_a_transposed_view_are_one_call(rows):
    rng = np.random.default_rng(rows)
    a, g = rng.normal(size=(rows, 912)), rng.normal(size=(rows, 256))
    assert np.array_equal(_halves(a.T, g), a.T @ g)
    out = np.empty((912, 256))
    assert threads.matmul(a.T, g, out=out) is out
    assert np.array_equal(out, a.T @ g)


@pytest.mark.parametrize("rows", [64, 180, 257])
def test_input_gradient_halves_are_one_call(rows):
    rng = np.random.default_rng(rows)
    g, w = rng.normal(size=(rows, 256)), rng.normal(size=(912, 256))
    assert np.array_equal(_halves(g, w.T), g @ w.T)
    assert np.array_equal(threads.matmul(g, w.T), g @ w.T)


@pytest.mark.parametrize("shape", [(63, 912, 256), (64, 63, 256),
                                   (64, 912, 63)])
def test_a_product_below_the_split_size_is_one_call(monkeypatch, shape):
    m, k, n = shape
    monkeypatch.setattr(threads, "both", None)      # any split would fail
    a, b = np.ones((m, k)), np.ones((k, n))
    assert np.array_equal(threads.matmul(a, b), a @ b)


def test_blocks_are_cut_by_element_count():
    calls = []

    def run(lo, hi, work):
        calls.append((lo, hi, work))

    threads.in_halves([3, 20, 5, 84], run, "ab")
    threads.in_halves([10] * 8, run, "ab")
    threads.in_halves([7], run, "ab")
    assert sorted(calls) == sorted([(0, 3, "a"), (3, 4, "b"), (0, 4, "a"),
                                    (4, 8, "b"), (0, 1, "a")])


def _adam_run(shapes, steps=3):
    rng = np.random.default_rng(5)
    ps = ParamSet()
    for name, shape in shapes.items():
        ps.add(name, rng.normal(size=shape))
    opt = MultiAdam({"s": ps})
    for _ in range(steps):
        opt.apply({"s": {n: rng.normal(size=sh) for n, sh in shapes.items()}},
                  1e-2)
    return [ps[n].data.copy() for n in shapes] + list(opt.m.values()) + \
        list(opt.v.values())


def _gd_run():
    rng = np.random.default_rng(6)
    n = 2 * 912 * 256 + 3
    vec, grad, change = rng.normal(size=n), rng.normal(size=n), np.empty(n)
    works = [np.empty(UPDATE_BLOCK) for _ in range(2)]
    norm = _gd_step(vec, grad, 0.3, change, works)
    return [vec, change, np.array([norm])]


@pytest.mark.parametrize("kernel", [
    lambda: _adam_run({"w": (912, 256), "b": (256,), "v": (3, 5)}),
    _gd_run])
def test_updates_do_not_depend_on_the_worker(monkeypatch, kernel):
    with_worker = kernel()
    monkeypatch.setattr(threads, "_pool", None)     # both halves inline
    inline = kernel()
    for a, b in zip(with_worker, inline, strict=True):
        assert np.array_equal(a, b)


def test_the_worker_keeps_the_callers_errstate():
    # an overflowing step inside errstate(over/invalid="ignore"): the
    # worker's half must ignore it too, so nothing is warned
    ps = ParamSet()
    ps.add("w", np.ones((912, 256)))
    opt = MultiAdam({"s": ps})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(2):
                opt.apply({"s": {"w": np.full((912, 256), 1e300)}}, 1e300)
    assert not np.isfinite(ps["w"].data).any()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_no_half_runs_on_after_the_inline_half_raises():
    done = []

    def first():
        raise KeyError("inline")

    def second():
        time.sleep(0.05)
        done.append(1)

    with pytest.raises(KeyError):
        threads.both(first, second)
    finished = list(done)                  # [1], or [] if it was cancelled
    time.sleep(0.2)
    assert done == finished


def test_a_half_the_busy_worker_has_not_started_runs_inline():
    pool = threads._worker()
    if pool is None:
        pytest.skip("one CPU: there is no worker")
    release = threading.Event()
    blocker = pool.submit(release.wait, 60)
    try:
        ran_on = threads.both(threading.get_ident, threading.get_ident)
    finally:
        release.set()
    assert blocker.result(timeout=60)
    assert ran_on == (threading.get_ident(),) * 2


def test_a_forked_child_starts_its_own_worker():
    # the worker thread is not forked: a child that reused the parent's
    # pool would wait for it forever
    threads.both(lambda: None, lambda: None)
    child = multiprocessing.get_context("fork").Process(target=_adam_run,
                                                        args=({"w": (9, 9),
                                                               "b": (9,)},))
    child.start()
    try:
        child.join(timeout=60)
        assert not child.is_alive() and child.exitcode == 0
    finally:
        child.kill()


def test_only_the_threads_module_starts_threads():
    allowed = {"flowmoe/nn/threads.py"}
    for module in ("concurrent", "threading", "multiprocessing"):
        importers = _importers(module)
        outside = {p: lines for p, lines in importers.items()
                   if p not in allowed}
        assert not outside, f"{module} imported outside {allowed}: {outside}"
    assert "flowmoe/nn/threads.py" in _importers("concurrent")
