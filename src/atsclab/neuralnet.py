"""From-scratch 2-stack LSTM regressor: forward, full BPTT, adam, min-max scaling.

Double precision throughout. Gate layout in every fused weight matrix is
[input, forget, cell, output]. Reverse-mode gradients are exact for the
MAE objective (subgradient 0 at a zero residual).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, NumericError, bounded, check_ranges

PARAM_NAMES = ("W1", "U1", "b1", "W2", "U2", "b2", "Wd", "bd")
FORWARD_CHUNK = 256   # windows per pass of `forward`; bounds the hidden states held


@dataclass(frozen=True)
class TrainingConfig:
    epochs: int = bounded(1000, at_least=1)
    batch_size: int = bounded(50, at_least=1)
    learning_rate: float = bounded(0.01, above=0)
    beta1: float = bounded(0.9, at_least=0, below=1)
    beta2: float = bounded(0.999, at_least=0, below=1)
    eps: float = bounded(1e-8, above=0)
    lookback: int = bounded(10, at_least=1)
    grad_clip: float = bounded(5.0, above=0)
    seed: int = bounded(0, at_least=0)

    def __post_init__(self) -> None:
        check_ranges(self)


@dataclass
class NormalizationSpec:
    """Per-feature min-max scaling to [0, 1]; degenerate features map to 0."""
    feat_min: np.ndarray
    feat_max: np.ndarray
    target_min: float
    target_max: float

    @classmethod
    def fit(cls, features: np.ndarray, targets: np.ndarray) -> "NormalizationSpec":
        return cls(feat_min=features.min(axis=0), feat_max=features.max(axis=0),
                   target_min=float(targets.min()), target_max=float(targets.max()))

    def transform(self, x: np.ndarray) -> np.ndarray:
        span = self.feat_max - self.feat_min
        safe = np.where(span > 0, span, 1.0)
        out = (x - self.feat_min) / safe
        return np.where(span > 0, out, 0.0)

    def transform_target(self, y: np.ndarray) -> np.ndarray:
        span = self.target_max - self.target_min
        if span <= 0:
            return np.zeros_like(np.asarray(y, dtype=float))
        return (y - self.target_min) / span

    def inverse_target(self, yn: np.ndarray | float):
        return yn * (self.target_max - self.target_min) + self.target_min


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


class LstmRegressor:
    """Two stacked LSTM layers with a scalar dense head."""

    def __init__(self, input_dim: int, hidden1: int = 128, hidden2: int = 8,
                 seed: int = 0) -> None:
        if input_dim < 1 or hidden1 < 1 or hidden2 < 1:
            raise ConfigError("model dimensions must be >= 1")
        self.input_dim = input_dim
        self.hidden1 = hidden1
        self.hidden2 = hidden2
        rng = np.random.default_rng(seed)
        self.params: dict[str, np.ndarray] = {}
        self._init_layer(rng, "1", input_dim, hidden1)
        self._init_layer(rng, "2", hidden1, hidden2)
        k = 1.0 / np.sqrt(hidden2)
        self.params["Wd"] = rng.uniform(-k, k, size=(hidden2, 1))
        self.params["bd"] = np.zeros(1)

    def _init_layer(self, rng, tag: str, fan_in: int, hidden: int) -> None:
        k = 1.0 / np.sqrt(fan_in)
        self.params[f"W{tag}"] = rng.uniform(-k, k, size=(fan_in, 4 * hidden))
        kr = 1.0 / np.sqrt(hidden)
        self.params[f"U{tag}"] = rng.uniform(-kr, kr, size=(hidden, 4 * hidden))
        b = np.zeros(4 * hidden)
        b[hidden:2 * hidden] = 1.0   # forget-gate bias for stable early training
        self.params[f"b{tag}"] = b

    # -- forward -------------------------------------------------------------

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
        """X: (..., L, F) normalized windows -> (...,) normalized predictions.

        The leading axis is scored FORWARD_CHUNK windows at a time, so memory
        stays flat at any N; a window's bits do not depend on the chunk."""
        X = np.asarray(X, dtype=float)
        if X.ndim < 3 or X.shape[-1] != self.input_dim:
            raise DataError(f"expected (..., L, {self.input_dim}) input, got {X.shape}")
        out = np.empty(X.shape[:-2])
        for lo in range(0, len(X), FORWARD_CHUNK):
            out[lo:lo + FORWARD_CHUNK] = self._forward_chunk(X[lo:lo + FORWARD_CHUNK])
        return out

    def _forward_chunk(self, X: np.ndarray) -> np.ndarray:
        h1 = self._run_layer("1", X, None)
        h2 = self._run_layer("2", h1, None)
        return (h2[..., -1, :] @ self.params["Wd"] + self.params["bd"])[..., 0]

    # -- backward ------------------------------------------------------------

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

    # -- persistence ---------------------------------------------------------

    def state_arrays(self) -> dict[str, np.ndarray]:
        return dict(self.params)

    @classmethod
    def from_state(cls, input_dim: int, hidden1: int, hidden2: int,
                   arrays: dict[str, np.ndarray]) -> "LstmRegressor":
        """The model whose weights are `arrays`, each checked against the shape
        the dimensions imply before any model is built, so dimensions that
        claim more than the arrays hold cost no allocation of their size."""
        g1, g2 = 4 * hidden1, 4 * hidden2    # fused gate widths
        shapes = {"W1": (input_dim, g1), "U1": (hidden1, g1), "b1": (g1,),
                  "W2": (hidden1, g2), "U2": (hidden2, g2), "b2": (g2,),
                  "Wd": (hidden2, 1), "bd": (1,)}
        params = {}
        for name, expected in shapes.items():
            arr = np.asarray(arrays[name], dtype=float)
            if arr.shape != expected or not np.isfinite(arr).all():
                raise DataError(f"checkpoint {name} is not a finite {expected} array "
                                f"(shape {arr.shape})")
            params[name] = arr
        model = cls.__new__(cls)    # `__init__` would draw random weights first
        model.input_dim, model.hidden1, model.hidden2 = input_dim, hidden1, hidden2
        model.params = params
        return model


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Global-norm clipping in place; returns the pre-clip norm."""
    total = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))
    if total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


class AdamState:
    def __init__(self, params: dict[str, np.ndarray]) -> None:
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.k = 0


def adam_update(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
                state: AdamState, cfg: TrainingConfig) -> None:
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


@dataclass
class TrainingResult:
    train_mae: list[float] = field(default_factory=list)   # normalized scale
    val_mae: list[float] = field(default_factory=list)
    # normalized validation predictions of the last epoch, made with the final weights
    val_pred: np.ndarray = field(default_factory=lambda: np.empty(0))


def train(model: LstmRegressor, X_train: np.ndarray, y_train: np.ndarray,
          cfg: TrainingConfig, X_val: np.ndarray | None = None,
          y_val: np.ndarray | None = None) -> TrainingResult:
    """Mini-batch BPTT with adam; batch order reshuffled each epoch by seed."""
    rng = np.random.default_rng(cfg.seed)
    state = AdamState(model.params)
    result = TrainingResult()
    n = len(X_train)
    for epoch in range(cfg.epochs):
        perm = rng.permutation(n)
        losses = []
        for start in range(0, n, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            loss, grads = model.loss_and_gradients(X_train[idx], y_train[idx])
            if not np.isfinite(loss):
                raise NumericError(
                    f"non-finite loss at epoch {epoch}: learning rate too high "
                    "or degenerate data")
            clip_gradients(grads, cfg.grad_clip)
            adam_update(model.params, grads, state, cfg)
            losses.append(loss)
        result.train_mae.append(float(np.mean(losses)))
        if X_val is not None and len(X_val):
            result.val_pred = model.forward(X_val)
            result.val_mae.append(float(np.mean(np.abs(result.val_pred - y_val))))
    return result
