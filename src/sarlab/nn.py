"""Minimal trainable layers with hand-written reverse-mode gradients.

All layers operate on batched sequences shaped (B, T, D).  Each layer caches
what its backward pass needs during forward; backward(dy), once per forward,
returns dx and accumulates parameter gradients in `self.grads`.  Training
runs in float32; float64 is used for gradient checking.
"""

import logging
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np
from scipy.special import expit

log = logging.getLogger(__name__)

# The one worker thread that runs each Bilstm's reverse direction, made on
# first use.  A forked child has none of its parent's threads, so it starts
# afresh.
_worker = None
_worker_lock = threading.Lock()


def _forget_worker():
    global _worker, _worker_lock
    _worker, _worker_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_worker)


def _concurrently(main, side):
    """(main(), side()), with `side` run on the worker thread meanwhile.

    numpy, scipy's ufuncs and BLAS release the GIL, so the two overlap.
    Both have finished before either's exception propagates.
    """
    global _worker
    with _worker_lock:
        if _worker is None:
            _worker = ThreadPoolExecutor(max_workers=1,
                                         thread_name_prefix="sarlab-bilstm")
        future = _worker.submit(side)
    try:
        out = main()
    finally:
        wait([future])
    return out, future.result()


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic generator: identical seed, identical stream."""
    return np.random.default_rng(seed)


class Layer:
    """A node with named tensors and named sub-layers.

    Every tensor walk (parameters, gradients, dtype casts) goes through
    `_walk`, so tensor names and their order are fixed in one place:
    a layer's own tensors first, then each child's, as "child.key".
    """

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}

    def children(self):
        """(name, layer) for each sub-layer, in tensor order."""
        return []

    def _walk(self, prefix=""):
        for k in self.params:
            yield prefix + k, self, k
        for name, child in self.children():
            yield from child._walk(prefix + name + ".")

    def named_params(self) -> dict:
        return {name: layer.params[k] for name, layer, k in self._walk()}

    def named_grads(self) -> dict:
        return {name: layer.grads[k] for name, layer, k in self._walk()}

    def set_params(self, flat: dict):
        for name, layer, k in self._walk():
            if name not in flat:
                raise KeyError("missing parameter tensor: %s" % name)
            if flat[name].shape != layer.params[k].shape:
                raise ValueError("shape mismatch for tensor %s: %s vs %s"
                                 % (name, flat[name].shape, layer.params[k].shape))
            layer.params[k] = flat[name].astype(layer.params[k].dtype)

    def zero_grads(self):
        for _, layer, k in self._walk():
            layer.grads[k] = np.zeros_like(layer.params[k])

    def astype(self, dtype):
        for _, layer, k in self._walk():
            layer.params[k] = layer.params[k].astype(dtype)
        self.zero_grads()
        return self


class Linear(Layer):
    """y[t] = W x[t] + b, W shaped (d_out, d_in)."""

    def __init__(self, d_in, d_out, rng=None, dtype=np.float32):
        super().__init__()
        if rng is None:
            w = np.zeros((d_out, d_in))
        else:
            lim = np.sqrt(6.0 / (d_in + d_out))
            w = rng.uniform(-lim, lim, (d_out, d_in))
        self.params["w"] = w.astype(dtype)
        self.params["b"] = np.zeros(d_out, dtype=dtype)
        self.zero_grads()

    def forward(self, x):
        if x.shape[-1] != self.params["w"].shape[1]:
            raise ValueError("Linear: expected %d inputs, got %d"
                             % (self.params["w"].shape[1], x.shape[-1]))
        self._x = x
        return x @ self.params["w"].T + self.params["b"]

    def backward(self, dy):
        x = self._x
        self.grads["w"] += np.tensordot(dy, x, axes=([0, 1], [0, 1]))
        self.grads["b"] += dy.sum(axis=(0, 1))
        return dy @ self.params["w"]


class PRelu(Layer):
    """Per-channel parametric ReLU; negative-side slope is learned."""

    def __init__(self, d, slope=0.25, dtype=np.float32):
        super().__init__()
        self.params["a"] = np.full(d, slope, dtype=dtype)
        self.zero_grads()

    def forward(self, x):
        if x.shape[-1] != self.params["a"].shape[0]:
            raise ValueError("PRelu: channel mismatch")
        self._x = x
        self._neg = x < 0
        return np.where(self._neg, self.params["a"] * x, x)

    def backward(self, dy):
        self.grads["a"] += np.sum(dy * self._x * self._neg, axis=(0, 1))
        return np.where(self._neg, self.params["a"] * dy, dy)


class Tanh(Layer):
    """tanh squashing, output clamped strictly inside (-1, 1)."""

    def __init__(self):
        super().__init__()

    def forward(self, x):
        lim = 1.0 - np.finfo(x.dtype).eps
        self._y = np.clip(np.tanh(x), -lim, lim)
        return self._y

    def backward(self, dy):
        return dy * (1.0 - self._y ** 2)


class Lstm(Layer):
    """Single-direction LSTM over (B, T, D); gates ordered i, f, g, o."""

    def __init__(self, d_in, hidden, reverse=False, rng=None, dtype=np.float32):
        super().__init__()
        self.hidden = hidden
        self.reverse = reverse
        lim = 1.0 / np.sqrt(hidden)
        def init(shape):
            if rng is None:
                return np.zeros(shape)
            return rng.uniform(-lim, lim, shape)
        self.params["wx"] = init((d_in, 4 * hidden)).astype(dtype)
        self.params["wh"] = init((hidden, 4 * hidden)).astype(dtype)
        b = np.zeros(4 * hidden, dtype=dtype)
        b[hidden:2 * hidden] = 1.0  # forget-gate bias
        self.params["b"] = b
        self.zero_grads()

    @staticmethod
    def _gate_views(gates, H):
        """i, f, g, o: views of a (B, T, 4H) gate buffer."""
        return (gates[..., k * H:(k + 1) * H] for k in range(4))

    def forward(self, x):
        if x.shape[-1] != self.params["wx"].shape[0]:
            raise ValueError("Lstm: input width mismatch")
        if x.shape[1] == 0:
            raise ValueError("Lstm: empty sequence")
        if self.reverse:
            x = x[:, ::-1]
        B, T, _ = x.shape
        H = self.hidden
        wx, wh, b = self.params["wx"], self.params["wh"], self.params["b"]
        # gate pre-activations; step t overwrites its slice with the gates
        gates = x @ wx + b  # (B, T, 4H)
        i, f, g, o = self._gate_views(gates, H)
        c = np.empty((B, T, H), dtype=x.dtype)
        tc = np.empty_like(c)
        h = np.empty_like(c)
        h_prev = np.zeros((B, H), dtype=x.dtype)
        c_prev = np.zeros((B, H), dtype=x.dtype)
        for t in range(T):
            a = gates[:, t]
            a += h_prev @ wh
            expit(a[:, :2 * H], out=a[:, :2 * H])  # i, f
            np.tanh(a[:, 2 * H:3 * H], out=a[:, 2 * H:3 * H])
            expit(a[:, 3 * H:], out=a[:, 3 * H:])
            c[:, t] = f[:, t] * c_prev + i[:, t] * g[:, t]
            tc[:, t] = np.tanh(c[:, t])
            h[:, t] = o[:, t] * tc[:, t]
            h_prev = h[:, t]
            c_prev = c[:, t]
        self._cache = (x, gates, c, tc, h)
        if self.reverse:
            return h[:, ::-1]
        return h

    def backward(self, dy):
        x, gates, c, tc, h = self._cache
        self._cache = None
        if self.reverse:
            dy = dy[:, ::-1]
        B, T, H = c.shape
        i, f, g, o = self._gate_views(gates, H)
        wx, wh = self.params["wx"], self.params["wh"]
        # step t's gate gradients overwrite its gates, read for the last time
        da = gates
        dh_next = np.zeros((B, H), dtype=x.dtype)
        dc_next = np.zeros((B, H), dtype=x.dtype)
        for t in range(T - 1, -1, -1):
            dh = dy[:, t] + dh_next
            do = dh * tc[:, t]
            dc = dh * o[:, t] * (1.0 - tc[:, t] ** 2) + dc_next
            c_prev = c[:, t - 1] if t > 0 else np.zeros_like(dc)
            di = dc * g[:, t]
            df = dc * c_prev
            dg = dc * i[:, t]
            dc_next = dc * f[:, t]
            da[:, t, :H] = di * i[:, t] * (1 - i[:, t])
            da[:, t, H:2 * H] = df * f[:, t] * (1 - f[:, t])
            da[:, t, 2 * H:3 * H] = dg * (1 - g[:, t] ** 2)
            da[:, t, 3 * H:] = do * o[:, t] * (1 - o[:, t])
            dh_next = da[:, t] @ wh.T
        self.grads["wx"] += np.tensordot(x, da, axes=([0, 1], [0, 1]))
        h_prev = np.concatenate([np.zeros((B, 1, H), dtype=x.dtype), h[:, :-1]], axis=1)
        self.grads["wh"] += np.tensordot(h_prev, da, axes=([0, 1], [0, 1]))
        self.grads["b"] += da.sum(axis=(0, 1))
        dx = da @ wx.T
        if self.reverse:
            dx = dx[:, ::-1]
        return dx


class Bilstm(Layer):
    """Forward and backward LSTM over the same input; outputs concatenated.

    The two directions share no state, so the reverse one runs on a worker
    thread while the calling thread runs the forward one; each does exactly
    the arithmetic it would do alone.
    """

    def __init__(self, d_in, hidden, rng=None, dtype=np.float32):
        super().__init__()
        self.fwd = Lstm(d_in, hidden, reverse=False, rng=rng, dtype=dtype)
        self.bwd = Lstm(d_in, hidden, reverse=True, rng=rng, dtype=dtype)
        self.hidden = hidden

    def children(self):
        return [("fwd", self.fwd), ("bwd", self.bwd)]

    def forward(self, x):
        h_fwd, h_bwd = _concurrently(lambda: self.fwd.forward(x),
                                     lambda: self.bwd.forward(x))
        return np.concatenate([h_fwd, h_bwd], axis=-1)

    def backward(self, dy):
        H = self.hidden
        dx_fwd, dx_bwd = _concurrently(lambda: self.fwd.backward(dy[..., :H]),
                                       lambda: self.bwd.backward(dy[..., H:]))
        return dx_fwd + dx_bwd


class Sequential(Layer):
    def __init__(self, named_layers):
        super().__init__()
        self.layers = list(named_layers)  # [(name, layer)]

    def forward(self, x):
        for _, layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, dy):
        for _, layer in reversed(self.layers):
            dy = layer.backward(dy)
        return dy

    def children(self):
        return self.layers


# ---------------------------------------------------------------------------
# Losses

def mse(pred, target):
    """Mean over all entries of squared difference."""
    pred = np.asarray(pred)
    target = np.asarray(target)
    if pred.shape != target.shape:
        raise ValueError("mse: shape mismatch %s vs %s" % (pred.shape, target.shape))
    if pred.size == 0:
        raise ValueError("mse: empty input")
    return float(np.mean((pred - target) ** 2))


def mse_with_grad(pred, target, valid=None):
    """Return (loss, dpred).  `valid` (B, T) excludes padded frames."""
    if pred.shape != target.shape:
        raise ValueError("mse: shape mismatch %s vs %s" % (pred.shape, target.shape))
    diff = pred - target
    if valid is None:
        n = diff.size
        loss = float(np.sum(diff ** 2) / n)
        return loss, (2.0 / n) * diff
    v = valid[..., None].astype(diff.dtype)
    n = float(np.sum(valid)) * diff.shape[-1]
    if n == 0:
        raise ValueError("mse: no valid entries")
    loss = float(np.sum(v * diff ** 2) / n)
    return loss, (2.0 / n) * v * diff


# ---------------------------------------------------------------------------
# Optimization

def clip_global_norm(grads: dict, max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm."""
    total = np.sqrt(sum(float(np.sum(g ** 2)) for g in grads.values()))
    if total > max_norm > 0:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


class Adam:
    """Standard Adam with bias correction over a dict of named tensors."""

    def __init__(self, lr=1e-4, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params: dict, grads: dict) -> bool:
        """Update params in place; returns False (step skipped) on bad grads."""
        for k, g in grads.items():
            if params[k].shape != g.shape:
                raise ValueError("adam: shape mismatch for %s" % k)
            if not np.all(np.isfinite(g)):
                log.warning("adam: non-finite gradient in %s; step skipped", k)
                return False
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for k, g in grads.items():
            if k not in self.m:
                self.m[k] = np.zeros_like(params[k])
                self.v[k] = np.zeros_like(params[k])
            self.m[k] = b1 * self.m[k] + (1 - b1) * g
            self.v[k] = b2 * self.v[k] + (1 - b2) * g * g
            m_hat = self.m[k] / c1
            v_hat = self.v[k] / c2
            params[k] -= (self.lr * m_hat / (np.sqrt(v_hat) + self.eps)).astype(params[k].dtype)
        return True
