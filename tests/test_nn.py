import copy
import os
import threading
import time

import numpy as np
import pytest

from sarlab.nn import (
    Adam,
    Bilstm,
    Linear,
    Lstm,
    PRelu,
    Sequential,
    Tanh,
    _single_threaded_blas,
    clip_global_norm,
    make_rng,
    mse,
    mse_with_grad,
)


def numeric_grad(f, arr, step=1e-5):
    """Central finite differences of scalar f w.r.t. every entry of arr."""
    g = np.zeros_like(arr, dtype=np.float64)
    it = np.nditer(arr, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + step
        hi = f()
        arr[idx] = orig - step
        lo = f()
        arr[idx] = orig
        g[idx] = (hi - lo) / (2 * step)
        it.iternext()
    return g


def check_model_grads(model, x, target, rtol=1e-4):
    """Analytic grads of mse(model(x), target) vs finite differences."""
    def loss():
        return mse(model.forward(x), target)

    model.zero_grads()
    pred = model.forward(x)
    _, dpred = mse_with_grad(pred, target)
    dx = model.backward(dpred)
    analytic = dict(model.named_grads())
    for name, p in model.named_params().items():
        num = numeric_grad(loss, p)
        a = analytic[name]
        denom = np.maximum(np.abs(num), 1e-6)
        assert np.max(np.abs(a - num) / denom) < rtol, "tensor %s" % name
    num_dx = numeric_grad(loss, x)
    denom = np.maximum(np.abs(num_dx), 1e-6)
    assert np.max(np.abs(dx - num_dx) / denom) < rtol


class TestLinear:
    def test_identity(self):
        lin = Linear(3, 3, make_rng(0)).astype(np.float64)
        lin.params["w"] = np.eye(3)
        x = np.arange(6.0).reshape(1, 2, 3)
        assert np.array_equal(lin.forward(x), x)

    def test_hand_example(self):
        lin = Linear(2, 2, make_rng(0)).astype(np.float64)
        lin.params["w"] = np.array([[1.0, 1.0], [0.0, 1.0]])
        lin.params["b"] = np.array([0.0, 1.0])
        y = lin.forward(np.array([[[1.0, 2.0]]]))
        np.testing.assert_array_equal(y[0, 0], [3.0, 3.0])

    def test_empty_time(self):
        lin = Linear(4, 2, make_rng(0)).astype(np.float64)
        y = lin.forward(np.zeros((1, 0, 4)))
        assert y.shape == (1, 0, 2)

    def test_dim_mismatch(self):
        lin = Linear(4, 2, make_rng(0))
        with pytest.raises(ValueError):
            lin.forward(np.zeros((1, 3, 5), dtype=np.float32))

    def test_gradients(self):
        rng = make_rng(1)
        model = Sequential([("fc", Linear(4, 3, rng).astype(np.float64))])
        x = rng.standard_normal((2, 3, 4))
        target = rng.standard_normal((2, 3, 3))
        check_model_grads(model, x, target)


class TestPRelu:
    def test_nonnegative_identity(self):
        p = PRelu(3).astype(np.float64)
        x = np.abs(np.random.default_rng(0).standard_normal((1, 4, 3)))
        assert np.array_equal(p.forward(x), x)

    def test_negative_scaled(self):
        p = PRelu(1).astype(np.float64)  # initial slope 0.25
        y = p.forward(np.array([[[-1.0]]]))
        assert y[0, 0, 0] == -0.25

    def test_unit_slope_identity(self):
        p = PRelu(2).astype(np.float64)
        p.params["a"] = np.ones(2)
        x = np.random.default_rng(1).standard_normal((1, 5, 2))
        assert np.array_equal(p.forward(x), x)

    def test_gradients(self):
        rng = make_rng(2)
        model = Sequential([
            ("fc", Linear(3, 4, rng).astype(np.float64)),
            ("act", PRelu(4).astype(np.float64)),
        ])
        x = rng.standard_normal((2, 4, 3))
        target = rng.standard_normal((2, 4, 4))
        check_model_grads(model, x, target)


class TestTanh:
    def test_strictly_inside_unit_interval(self):
        t = Tanh()
        y = t.forward(np.array([[[-50.0, 0.0, 50.0]]]))
        assert np.all(np.abs(y) < 1.0)

    def test_gradients(self):
        rng = make_rng(3)
        model = Sequential([
            ("fc", Linear(3, 2, rng).astype(np.float64)),
            ("tanh", Tanh()),
        ])
        x = rng.standard_normal((1, 4, 3))
        target = rng.standard_normal((1, 4, 2))
        check_model_grads(model, x, target)


class TestLstm:
    def test_output_bounded(self):
        rng = make_rng(4)
        layer = Bilstm(5, 4, rng).astype(np.float64)
        x = 5 * rng.standard_normal((2, 6, 5))
        y = layer.forward(x)
        assert np.all(np.abs(y) <= 1.0)
        assert y.shape == (2, 6, 8)

    def test_positional_rng_gives_a_random_forward_lstm(self):
        layer = Lstm(4, 3, make_rng(0))
        assert np.all(layer.params["wx"] != 0) and np.all(layer.params["wh"] != 0)
        x = make_rng(1).standard_normal((1, 5, 4)).astype(np.float32)
        y = layer.forward(x)
        # forward in time: step t sees frames 0..t only
        x[:, 3:] = 0
        assert np.array_equal(layer.forward(x)[:, :3], y[:, :3])

    def test_empty_sequence_rejected(self):
        layer = Lstm(3, 2, make_rng(0))
        with pytest.raises(ValueError):
            layer.forward(np.zeros((1, 0, 3), dtype=np.float32))

    def test_reversal_symmetry(self):
        rng = make_rng(5)
        bi = Bilstm(3, 4, rng).astype(np.float64)
        x = rng.standard_normal((1, 5, 3))
        y = bi.forward(x)
        swapped = Bilstm(3, 4, make_rng(0)).astype(np.float64)
        swapped.fwd.params = {k: v.copy() for k, v in bi.bwd.params.items()}
        swapped.bwd.params = {k: v.copy() for k, v in bi.fwd.params.items()}
        y2 = swapped.forward(x[:, ::-1].copy())
        expect = np.concatenate([y[..., 4:], y[..., :4]], axis=-1)[:, ::-1]
        np.testing.assert_allclose(y2, expect, atol=1e-12)

    def test_single_step(self):
        rng = make_rng(6)
        bi = Bilstm(3, 2, rng).astype(np.float64)
        x = rng.standard_normal((1, 1, 3))
        y = bi.forward(x)
        # both halves see the same frame with zero recurrent input
        fwd_only = bi.fwd.forward(x)
        bwd_only = bi.bwd.forward(x)
        np.testing.assert_array_equal(y[..., :2], fwd_only)
        np.testing.assert_array_equal(y[..., 2:], bwd_only)

    def test_gradients_single_direction(self):
        rng = make_rng(7)
        model = Sequential([("lstm", Lstm(4, 3, rng).astype(np.float64))])
        x = rng.standard_normal((2, 4, 4))
        target = rng.standard_normal((2, 4, 3))
        check_model_grads(model, x, target)

    def test_gradients_bidirectional(self):
        rng = make_rng(8)
        model = Sequential([("blstm", Bilstm(3, 2, rng).astype(np.float64))])
        x = rng.standard_normal((1, 4, 3))
        target = rng.standard_normal((1, 4, 4))
        check_model_grads(model, x, target)


def c5_blstm_case(seed=0):
    """A criterion-5 second BLSTM (256 in, 128 hidden), float32, batch 64x75."""
    rng = make_rng(seed)
    layer = Bilstm(256, 128, rng=rng)
    x = rng.standard_normal((64, 75, 256)).astype(np.float32)
    dy = rng.standard_normal((64, 75, 256)).astype(np.float32)
    return layer, x, dy


class TestBilstmConcurrency:
    def test_same_bits_as_one_direction_after_the_other(self):
        layer, x, dy = c5_blstm_case()
        seq = copy.deepcopy(layer)
        y = layer.forward(x)
        layer.zero_grads()
        dx = layer.backward(dy)
        # bwd is a forward-in-time LSTM run on the time-reversed sequence
        y_seq = np.concatenate([seq.fwd.forward(x),
                                seq.bwd.forward(x[:, ::-1])[:, ::-1]], axis=-1)
        seq.zero_grads()
        dx_seq = (seq.fwd.backward(dy[..., :128])
                  + seq.bwd.backward(dy[:, ::-1, 128:])[:, ::-1])
        assert np.array_equal(y, y_seq)
        assert np.array_equal(dx, dx_seq)
        got, want = layer.named_grads(), seq.named_grads()
        assert list(got) == ["fwd.wx", "fwd.wh", "fwd.b", "bwd.wx", "bwd.wh", "bwd.b"]
        for k in got:
            assert np.array_equal(got[k], want[k]), k

    @pytest.mark.parametrize("failing", ["fwd", "bwd"])
    @pytest.mark.parametrize("method", ["forward", "backward"])
    def test_failure_in_either_direction_joins_the_other(self, failing, method):
        rng = make_rng(1)
        layer = Bilstm(3, 2, rng=rng)
        x = rng.standard_normal((2, 4, 3)).astype(np.float32)
        layer.forward(x)
        other = "bwd" if failing == "fwd" else "fwd"
        finished = threading.Event()

        def boom(*args):
            raise RuntimeError("%s failed" % failing)

        def slow(*args):
            time.sleep(0.2)
            finished.set()
            return np.zeros((2, 4, 3 if method == "backward" else 2), np.float32)

        setattr(getattr(layer, failing), method, boom)
        setattr(getattr(layer, other), method, slow)
        arg = x if method == "forward" else np.ones((2, 4, 4), np.float32)
        with pytest.raises(RuntimeError, match="%s failed" % failing):
            getattr(layer, method)(arg)
        assert finished.is_set()
        # the worker is idle again and still serves the next layer
        fresh = Bilstm(3, 2, rng=make_rng(2))
        y = fresh.forward(x)
        assert np.array_equal(y[..., 2:], fresh.bwd.forward(x[:, ::-1])[:, ::-1])

    def test_no_thread_outlives_the_call(self):
        rng = make_rng(3)
        layer = Bilstm(3, 2, rng=rng)
        x = rng.standard_normal((2, 4, 3)).astype(np.float32)
        for call in (lambda: layer.forward(x),
                     lambda: layer.backward(np.ones((2, 4, 4), np.float32))):
            call()
            assert not [t.name for t in threading.enumerate()
                        if t.name.startswith("sarlab-bilstm")]

    def test_worker_runs_after_fork(self):
        layer, x, _ = c5_blstm_case(3)
        x = x[:2, :10]
        want = layer.forward(x)  # the parent's worker now exists
        pid = os.fork()
        if pid == 0:  # the child must never return into pytest
            code = 1
            try:
                code = 0 if np.array_equal(layer.forward(x), want) else 1
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, 9)
                os.waitpid(pid, 0)
                pytest.fail("forked child hung in Bilstm.forward")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_blas_pinning_without_proc_maps_does_nothing(self, monkeypatch):
        def no_maps(*args, **kwargs):
            raise OSError("no /proc/self/maps")

        monkeypatch.setattr("builtins.open", no_maps)
        assert _single_threaded_blas() is None


class TestComposite:
    def test_deep_stack_gradients(self):
        rng = make_rng(9)
        model = Sequential([
            ("fc0", Linear(5, 4, rng).astype(np.float64)),
            ("act0", PRelu(4).astype(np.float64)),
            ("blstm", Bilstm(4, 3, rng).astype(np.float64)),
            ("head", Linear(6, 4, rng).astype(np.float64)),
            ("tanh", Tanh()),
            ("dec", Linear(4, 5, rng).astype(np.float64)),
        ])
        x = rng.standard_normal((1, 4, 5))
        target = rng.standard_normal((1, 4, 5))
        check_model_grads(model, x, target)

    def test_gradient_linearity(self):
        rng = make_rng(11)
        model = Sequential([("fc", Linear(3, 3, rng).astype(np.float64))])
        x = rng.standard_normal((1, 3, 3))
        target = rng.standard_normal((1, 3, 3))
        model.zero_grads()
        _, dpred = mse_with_grad(model.forward(x), target)
        model.backward(dpred)
        g1 = {k: v.copy() for k, v in model.named_grads().items()}
        model.zero_grads()
        model.forward(x)
        model.backward(3.0 * dpred)
        g3 = model.named_grads()
        for k in g1:
            np.testing.assert_allclose(g3[k], 3.0 * g1[k], rtol=1e-12)

    def test_zero_grad_at_minimum(self):
        rng = make_rng(12)
        model = Sequential([("fc", Linear(2, 2, rng).astype(np.float64))])
        x = rng.standard_normal((1, 3, 2))
        pred = model.forward(x)
        model.zero_grads()
        _, dpred = mse_with_grad(pred, pred.copy())
        model.backward(dpred)
        for g in model.named_grads().values():
            assert np.all(g == 0)


class TestMse:
    def test_equal_is_zero(self):
        x = np.ones((2, 3))
        assert mse(x, x) == 0.0

    def test_unit_offset(self):
        assert mse(np.zeros((4, 5)), np.ones((4, 5))) == 1.0

    def test_hand_value(self):
        assert mse(np.array([0.0, 0.0]), np.array([1.0, 3.0])) == 5.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mse(np.zeros(3), np.zeros(4))

    def test_empty(self):
        with pytest.raises(ValueError):
            mse(np.zeros(0), np.zeros(0))

    def test_masked_denominator(self):
        pred = np.zeros((1, 4, 2))
        target = np.ones((1, 4, 2))
        valid = np.array([[True, True, False, False]])
        loss, grad = mse_with_grad(pred, target, valid)
        assert loss == 1.0  # padded frames excluded from the mean
        assert np.all(grad[0, 2:] == 0)

    def test_random_case_direct_sum(self):
        rng = make_rng(13)
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((2, 3))
        direct = sum((a[i, j] - b[i, j]) ** 2 for i in range(2) for j in range(3)) / 6
        assert mse(a, b) == pytest.approx(direct, rel=1e-12)


class TestAdam:
    def test_zero_grads_no_change(self):
        p = {"w": np.array([1.0, 2.0])}
        opt = Adam(lr=0.1)
        opt.step(p, {"w": np.zeros(2)})
        np.testing.assert_array_equal(p["w"], [1.0, 2.0])

    def test_zero_lr_no_change(self):
        p = {"w": np.array([1.0])}
        Adam(lr=0.0).step(p, {"w": np.array([5.0])})
        assert p["w"][0] == 1.0

    def test_first_step_value(self):
        # w=0, g=1, lr=0.1: bias-corrected first step is -lr * g/(|g| + eps')
        p = {"w": np.array([0.0])}
        Adam(lr=0.1).step(p, {"w": np.array([1.0])})
        assert p["w"][0] == pytest.approx(-0.1, abs=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            Adam(lr=1e-3).step({"w": np.zeros(2)}, {"w": np.zeros(3)})

    def test_non_finite_skipped(self):
        p = {"w": np.array([1.0])}
        ok = Adam(lr=0.1).step(p, {"w": np.array([np.nan])})
        assert not ok
        assert p["w"][0] == 1.0

    @pytest.mark.parametrize("c", [0.1, 10.0])
    def test_gradient_scale_invariance(self, c):
        rng = make_rng(14)
        g = rng.standard_normal(20)
        lr = 1e-3
        p1 = {"w": np.zeros(20)}
        p2 = {"w": np.zeros(20)}
        Adam(lr=lr).step(p1, {"w": g.copy()})
        Adam(lr=lr).step(p2, {"w": c * g})
        assert np.max(np.abs(p1["w"] - p2["w"])) <= lr * 1e-3


class TestUtilities:
    def test_clip_global_norm(self):
        g = {"a": np.array([3.0]), "b": np.array([4.0])}
        norm = clip_global_norm(g, 1.0)
        assert norm == pytest.approx(5.0)
        total = np.sqrt(g["a"][0] ** 2 + g["b"][0] ** 2)
        assert total == pytest.approx(1.0)

    def test_clip_no_op_when_small(self):
        g = {"a": np.array([0.3])}
        clip_global_norm(g, 1.0)
        assert g["a"][0] == 0.3

    def test_rng_determinism(self):
        a = make_rng(42).standard_normal(5)
        b = make_rng(42).standard_normal(5)
        assert np.array_equal(a, b)

    def test_forward_backward_determinism(self):
        def run():
            rng = make_rng(99)
            model = Sequential([
                ("fc", Linear(4, 3, rng)),
                ("blstm", Bilstm(3, 2, rng)),
            ])
            x = rng.standard_normal((1, 5, 4)).astype(np.float32)
            y = model.forward(x)
            model.zero_grads()
            model.backward(np.ones_like(y))
            return y, {k: v.copy() for k, v in model.named_grads().items()}
        y1, g1 = run()
        y2, g2 = run()
        assert np.array_equal(y1, y2)
        for k in g1:
            assert np.array_equal(g1[k], g2[k])
