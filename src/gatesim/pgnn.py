"""Physics-regularized velocity predictor: a small MLP trained from scratch.

A depth-to-velocity regression network (hidden sizes 64/128/128, batch norm
after each hidden layer, rectifier activations) trained by full-batch
adaptive-moment steps on mean-square error plus a stationarity penalty built
from each sample's energy-derivative coefficients.  The penalty is evaluated
at the samples' target velocities, not at the network's predictions, so it
is a constant with zero gradient: the regularization coefficient changes the
reported loss but not the trained network, and lam=0 (the "vanilla" ablation
variant) trains to the same bits.

Everything is numpy: forward, analytic backprop (including batch-norm batch
statistics), and an adaptive-moment optimizer, so seeded training is
bit-reproducible and gradients can be checked against finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .csvio import write_csv
from .errors import (
    DivergenceDetected,
    EmptyDataset,
    NonPositiveDepth,
    NonPositiveVelocity,
)
from .fitting import physics_term

HIDDEN_SIZES = (64, 128, 128)
DEPTH_SCALE = 1.0 / 6.0   # input normalization
V_MIN = 0.5               # output clamp bounds [m/s]
V_MAX = 20.0
BN_EPS = 1e-12
BN_MOMENTUM = 0.9         # running-statistics update per training step
LEARNING_RATE = 1e-3      # adaptive-moment step size


@dataclass
class MlpParams:
    """Network parameters; lists run input-to-output.

    Trainable arrays in documented order: weights w0..w3, biases b0..b3,
    batch-norm scales g0..g2, batch-norm shifts s0..s2.  Running mean and
    variance are inference statistics, not trainable.
    """

    weights: list = field(default_factory=list)
    biases: list = field(default_factory=list)
    bn_gamma: list = field(default_factory=list)
    bn_beta: list = field(default_factory=list)
    bn_mean: list = field(default_factory=list)
    bn_var: list = field(default_factory=list)

    def trainable(self) -> list:
        return [*self.weights, *self.biases, *self.bn_gamma, *self.bn_beta]


def init_params(seed: int = 0) -> MlpParams:
    """He-initialized parameters; the output layer starts near zero so the
    clamped prediction starts mid-range."""
    rng = np.random.default_rng(seed)
    sizes = [1, *HIDDEN_SIZES, 1]
    params = MlpParams()
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        scale = np.sqrt(2.0 / fan_in)
        params.weights.append(rng.normal(0.0, scale, (fan_in, fan_out)))
        params.biases.append(np.zeros(fan_out))
    params.weights[-1] *= 0.1
    for width in HIDDEN_SIZES:
        params.bn_gamma.append(np.ones(width))
        params.bn_beta.append(np.zeros(width))
        params.bn_mean.append(np.zeros(width))
        params.bn_var.append(np.ones(width))
    return params


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _forward(params: MlpParams, depths: np.ndarray, mode: str):
    """Forward pass; returns predictions and the caches backprop needs."""
    if mode not in ("train", "infer"):
        raise ValueError(f"unknown mode {mode!r}")
    x = (depths * DEPTH_SCALE).reshape(-1, 1)
    caches = []
    h = x
    n_hidden = len(params.bn_gamma)
    for i in range(n_hidden):
        a = h @ params.weights[i] + params.biases[i]
        if mode == "train":
            mu = a.mean(axis=0)
            var = a.var(axis=0)
        else:
            mu = params.bn_mean[i]
            var = params.bn_var[i]
        inv = 1.0 / np.sqrt(var + BN_EPS)
        xhat = (a - mu) * inv
        y = params.bn_gamma[i] * xhat + params.bn_beta[i]
        out = np.maximum(y, 0.0)
        caches.append({"h": h, "xhat": xhat, "inv": inv, "y": y,
                       "mu": mu, "var": var})
        h = out
    z = h @ params.weights[-1] + params.biases[-1]
    s = _sigmoid(z)
    v = V_MIN + (V_MAX - V_MIN) * s
    caches.append({"h": h, "s": s})
    return v.ravel(), caches


def mlp_forward(params: MlpParams, depth, mode: str = "infer"):
    """Predicted velocity [m/s] for one depth or an array of depths.

    Deterministic in infer mode (running statistics); the output is clamped
    smoothly onto [V_MIN, V_MAX].
    """
    depths = np.atleast_1d(np.asarray(depth, dtype=float))
    if np.any(depths <= 0):
        raise NonPositiveDepth("depth must be positive")
    v, _ = _forward(params, depths, mode)
    return float(v[0]) if np.isscalar(depth) or np.ndim(depth) == 0 else v


def _sample_arrays(samples):
    if len(samples) == 0:
        raise EmptyDataset("no training samples")
    depths = np.array([s.depth for s in samples])
    targets = np.array([s.v_star for s in samples])
    constraints = np.array([s.constraint for s in samples])
    return depths, targets, constraints


def loss_terms(predictions: np.ndarray, samples, lam: float) -> tuple[float, float, float]:
    """(mse, physics, total) for given predictions; pure arithmetic.

    The physics term is evaluated at the samples' targets, so it does not
    depend on the predictions.
    """
    _, targets, constraints = _sample_arrays(samples)
    predictions = np.asarray(predictions, dtype=float)
    mse = float(np.mean((targets - predictions) ** 2))
    phys = physics_term(constraints, targets)
    return mse, phys, mse + lam * phys


def pgnn_loss(params: MlpParams, samples, lam: float) -> float:
    """Mean-square velocity error plus lam times the stationarity penalty.

    The penalty is evaluated at each sample's ground-truth velocity (the
    dataset's per-row constraint), so lam shifts the loss by a constant and
    leaves its gradient, and the trained network, unchanged.
    """
    depths, _, _ = _sample_arrays(samples)
    v, _ = _forward(params, depths, "train")
    return loss_terms(v, samples, lam)[2]


def pgnn_loss_grads(params: MlpParams, samples, lam: float):
    """Loss and analytic gradients for every trainable array.

    Returns (loss, grads, batch_stats) with grads ordered like
    params.trainable() and batch_stats the per-layer (mean, var) pairs seen
    during the pass (used to update running statistics).
    """
    depths, targets, _ = _sample_arrays(samples)
    v, caches = _forward(params, depths, "train")
    loss = loss_terms(v, samples, lam)[2]
    dv = 2.0 * (v - targets) / len(depths)

    out_cache = caches[-1]
    s = out_cache["s"].ravel()
    dz = (dv * (V_MAX - V_MIN) * s * (1.0 - s)).reshape(-1, 1)

    n_hidden = len(params.bn_gamma)
    grads_w = [None] * len(params.weights)
    grads_b = [None] * len(params.biases)
    grads_g = [None] * n_hidden
    grads_s = [None] * n_hidden

    grads_w[-1] = out_cache["h"].T @ dz
    grads_b[-1] = dz.sum(axis=0)
    dh = dz @ params.weights[-1].T

    for i in range(n_hidden - 1, -1, -1):
        cache = caches[i]
        dy = dh * (cache["y"] > 0)
        grads_g[i] = (dy * cache["xhat"]).sum(axis=0)
        grads_s[i] = dy.sum(axis=0)
        dxhat = dy * params.bn_gamma[i]
        da = cache["inv"] * (
            dxhat
            - dxhat.mean(axis=0)
            - cache["xhat"] * (dxhat * cache["xhat"]).mean(axis=0)
        )
        grads_w[i] = cache["h"].T @ da
        grads_b[i] = da.sum(axis=0)
        dh = da @ params.weights[i].T

    grads = [*grads_w, *grads_b, *grads_g, *grads_s]
    batch_stats = [(caches[i]["mu"], caches[i]["var"]) for i in range(n_hidden)]
    return loss, grads, batch_stats


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters; the step size and batch-norm momentum are
    the module constants LEARNING_RATE and BN_MOMENTUM.

    ``lam`` scales the reported physics term only: the penalty is constant
    in the parameters, so any lam >= 0 trains the same network.
    """

    lam: float = 1e-4
    epochs: int = 2000
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.lam < np.inf:
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def train_pgnn(samples, config: TrainConfig = TrainConfig()):
    """Train the network with full-batch adaptive-moment gradient descent.

    One step per epoch; seeded and bit-reproducible.  Returns the trained
    parameters and the loss history as (epoch, mse, physics, total) rows.
    Raises DivergenceDetected when the loss becomes non-finite.
    """
    if len(samples) < 8:
        raise EmptyDataset(f"need >= 8 training samples, got {len(samples)}")
    params = init_params(config.seed)

    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m_state = [np.zeros_like(a) for a in params.trainable()]
    v_state = [np.zeros_like(a) for a in params.trainable()]
    history = []

    for epoch in range(config.epochs):
        loss, grads, batch_stats = pgnn_loss_grads(params, samples, config.lam)
        if not np.isfinite(loss):
            raise DivergenceDetected(f"loss became {loss} at epoch {epoch}")
        step = epoch + 1
        for k, (arr, grad) in enumerate(zip(params.trainable(), grads)):
            m_state[k] = beta1 * m_state[k] + (1 - beta1) * grad
            v_state[k] = beta2 * v_state[k] + (1 - beta2) * grad**2
            m_hat = m_state[k] / (1 - beta1**step)
            v_hat = v_state[k] / (1 - beta2**step)
            arr -= LEARNING_RATE * m_hat / (np.sqrt(v_hat) + eps)
        for i, (mu, var) in enumerate(batch_stats):
            params.bn_mean[i] = BN_MOMENTUM * params.bn_mean[i] + (1 - BN_MOMENTUM) * mu
            params.bn_var[i] = BN_MOMENTUM * params.bn_var[i] + (1 - BN_MOMENTUM) * var

        preds, _ = _forward(params, np.array([s.depth for s in samples]), "infer")
        history.append((epoch, *loss_terms(preds, samples, config.lam)))

    return params, history


def trajectory_time(v_pred: float, depth: float) -> float:
    """Planned flight duration: depth / predicted velocity."""
    if v_pred <= 0:
        raise NonPositiveVelocity(f"v_pred {v_pred} is not positive")
    if depth <= 0:
        raise NonPositiveDepth(f"depth {depth} is not positive")
    return depth / v_pred


# npz key prefix of each MlpParams list, in file order
_NPZ_PREFIXES = {
    "weights": "w", "biases": "b", "bn_gamma": "g",
    "bn_beta": "s", "bn_mean": "rm", "bn_var": "rv",
}


def save_params(params: MlpParams, path) -> None:
    """Persist parameters as a flat npz: w0..w3, b0..b3, g0..g2, s0..s2,
    rm0..rm2 (running means), rv0..rv2 (running variances)."""
    np.savez(path, **{
        f"{prefix}{i}": arr
        for name, prefix in _NPZ_PREFIXES.items()
        for i, arr in enumerate(getattr(params, name))
    })


def load_params(path) -> MlpParams:
    """Load parameters written by save_params."""
    data = np.load(path)
    params = MlpParams()
    for name, prefix in _NPZ_PREFIXES.items():
        arrays = getattr(params, name)
        while f"{prefix}{len(arrays)}" in data.files:
            arrays.append(data[f"{prefix}{len(arrays)}"])
    return params


def write_loss_curve_csv(history, path) -> None:
    """Export the loss history as CSV: epoch,mse,physics_term,total."""
    columns = {"epoch": "", **dict.fromkeys(("mse", "physics_term", "total"), ".12e")}
    write_csv(path, columns, history)
