"""The LSTM's forward, backward and adam step as first written, apart from `neuralnet`.

Each value is computed the plain way: every step allocates its own arrays,
the BPTT cache keeps each step's previous hidden state and `tanh(c)`, every
layer's input gradient is computed, and adam rebinds its moments. The tests
run these beside `LstmRegressor` and `adam_update` on the same weights and
batch, and require the same bits for the loss, every gradient and the
parameters after many steps; so the production code may hold less, reuse
buffers and skip what nothing reads, but may not reorder any arithmetic.
"""
from __future__ import annotations

import numpy as np


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def lstm_cell_forward(x: np.ndarray, h: np.ndarray, c: np.ndarray,
                      W: np.ndarray, U: np.ndarray, b: np.ndarray):
    """One LSTM step. Returns (h', c', gate cache)."""
    z = x @ W + h @ U + b
    H = h.shape[-1]
    i = _sigmoid(z[..., :H])
    f = _sigmoid(z[..., H:2 * H])
    g = np.tanh(z[..., 2 * H:3 * H])
    o = _sigmoid(z[..., 3 * H:])
    c_new = f * c + i * g
    tanh_c = np.tanh(c_new)
    h_new = o * tanh_c
    return h_new, c_new, (i, f, g, o, tanh_c)


class OracleLstm:
    """The two-layer regressor's loss and gradients over a copy of `params`."""

    def __init__(self, params: dict[str, np.ndarray]) -> None:
        self.params = {k: v.copy() for k, v in params.items()}
        self.hidden2 = self.params["U2"].shape[0]

    def _run_layer(self, tag: str, xs: np.ndarray, cache: list | None):
        """xs: (..., L, F) -> hidden sequence (..., L, H)."""
        *lead, L, _ = xs.shape
        H = self.params[f"U{tag}"].shape[0]
        h = np.zeros((*lead, H))
        c = np.zeros((*lead, H))
        hs = np.empty((*lead, L, H))
        for t in range(L):
            h_prev, c_prev = h, c
            h, c, gates = lstm_cell_forward(xs[..., t, :], h, c,
                                            self.params[f"W{tag}"],
                                            self.params[f"U{tag}"],
                                            self.params[f"b{tag}"])
            hs[..., t, :] = h
            if cache is not None:
                cache.append((xs[..., t, :], h_prev, c_prev, c, gates))
        return hs

    def forward(self, X: np.ndarray) -> np.ndarray:
        """X: (..., L, F) -> (...,), all windows in one pass."""
        h1 = self._run_layer("1", X, None)
        h2 = self._run_layer("2", h1, None)
        return (h2[..., -1, :] @ self.params["Wd"] + self.params["bd"])[..., 0]

    def loss_and_gradients(self, X: np.ndarray, y: np.ndarray):
        """MAE loss and exact gradients for one batch. Returns (loss, grads)."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        B, L, _ = X.shape
        cache1: list = []
        cache2: list = []
        h1 = self._run_layer("1", X, cache1)
        h2 = self._run_layer("2", h1, cache2)
        last = h2[:, -1, :]
        pred = (last @ self.params["Wd"] + self.params["bd"])[:, 0]
        resid = pred - y
        loss = float(np.mean(np.abs(resid)))

        grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        dpred = np.sign(resid) / B                      # subgrad 0 at resid == 0
        grads["Wd"] = last.T @ dpred[:, None]
        grads["bd"] = np.array([dpred.sum()])
        dh2_seq = np.zeros((B, L, self.hidden2))
        dh2_seq[:, -1, :] = dpred[:, None] * self.params["Wd"][:, 0]

        dh1_seq = self._backprop_layer("2", cache2, dh2_seq, grads)
        self._backprop_layer("1", cache1, dh1_seq, grads)
        return loss, grads

    def _backprop_layer(self, tag: str, cache: list, dh_seq: np.ndarray,
                        grads: dict[str, np.ndarray]) -> np.ndarray:
        W = self.params[f"W{tag}"]
        U = self.params[f"U{tag}"]
        B, L, H = dh_seq.shape
        F = W.shape[0]
        dx_seq = np.empty((B, L, F))
        dh_next = np.zeros((B, H))
        dc_next = np.zeros((B, H))
        for t in range(L - 1, -1, -1):
            x_t, h_prev, c_prev, c, (i, f, g, o, tanh_c) = cache[t]
            dh = dh_seq[:, t, :] + dh_next
            do = dh * tanh_c
            dc = dc_next + dh * o * (1.0 - tanh_c ** 2)
            di = dc * g
            df = dc * c_prev
            dg = dc * i
            dc_next = dc * f
            dz = np.concatenate([di * i * (1 - i), df * f * (1 - f),
                                 dg * (1 - g ** 2), do * o * (1 - o)], axis=1)
            grads[f"W{tag}"] += x_t.T @ dz
            grads[f"U{tag}"] += h_prev.T @ dz
            grads[f"b{tag}"] += dz.sum(axis=0)
            dx_seq[:, t, :] = dz @ W.T
            dh_next = dz @ U.T
        return dx_seq


class OracleAdam:
    def __init__(self, params: dict[str, np.ndarray]) -> None:
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.k = 0


def adam_update(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
                state: OracleAdam, cfg) -> None:
    """Standard adam with bias correction; advances `state` by one step."""
    state.k += 1
    b1, b2 = cfg.beta1, cfg.beta2
    bc1 = 1.0 - b1 ** state.k
    bc2 = 1.0 - b2 ** state.k
    for name, p in params.items():
        g = grads[name]
        state.m[name] = b1 * state.m[name] + (1 - b1) * g
        state.v[name] = b2 * state.v[name] + (1 - b2) * g * g
        m_hat = state.m[name] / bc1
        v_hat = state.v[name] / bc2
        p -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.eps)
