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
The infer pass keeps no backprop caches, and the output sigmoid is one
branch-free expression with the bits of the two-branch form.
The loss, its gradients and training take one batch from training_batch:
the depths, targets and physics term of a sample list.  The optimizer keeps
one flat state: every trainable array is a view into one vector, updated
once per epoch.  The update runs in place in vectors allocated once per
training run, with the operations of the textbook expression in the same
order, so it trains the same bits.  The per-epoch loss history costs an
extra infer-mode pass, so it is computed only where it is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .csvio import write_csv
from .errors import check_integer
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
    # exp(-|z|) serves both branches; minimum(z, -z) keeps a NaN's sign, -abs would not
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _mean0(a):
    return np.add.reduce(a, 0) / len(a)  # a.mean(0) bit for bit, without numpy's wrappers


def _forward(params: MlpParams, depths: np.ndarray, mode: str):
    """Forward pass on raw depths: predictions, and in train mode the caches backprop needs."""
    caches = []
    train = mode == "train"
    h = (depths * DEPTH_SCALE).reshape(-1, 1)
    n_hidden = len(params.bn_gamma)
    for i in range(n_hidden):
        a = h @ params.weights[i] + params.biases[i]
        mu = _mean0(a) if train else params.bn_mean[i]
        a -= mu  # centred once, in place: the variance and xhat both read it
        var = _mean0(a ** 2) if train else params.bn_var[i]  # a.var(0) bit for bit
        inv = 1.0 / np.sqrt(var + BN_EPS)
        xhat = a * inv
        y = params.bn_gamma[i] * xhat + params.bn_beta[i]
        out = np.maximum(y, 0.0)
        if train:
            caches.append({"h": h, "xhat": xhat, "inv": inv, "y": y,
                           "mu": mu, "var": var})
        h = out
    z = h @ params.weights[-1] + params.biases[-1]
    s = _sigmoid(z)
    v = V_MIN + (V_MAX - V_MIN) * s
    if train:
        caches.append({"h": h, "s": s})
    return v.ravel(), caches


def mlp_forward(params: MlpParams, depth):
    """Predicted velocity [m/s] for one depth or an array of depths.

    Runs in infer mode, normalising by the running statistics, so it is
    deterministic; the output is clamped smoothly onto [V_MIN, V_MAX].
    """
    depths = np.asarray(depth, dtype=float)
    if not ((depths > 0) & (depths < np.inf)).all():
        raise ValueError("depth must be positive and finite")
    v, _ = _forward(params, depths, "infer")
    return float(v[0]) if depths.ndim == 0 else v


def training_batch(samples):
    """The batch the loss, its gradients and training take: depths, targets
    and the (constant) physics term of a sample list."""
    if len(samples) == 0:
        raise ValueError("no training samples")
    depths = np.array([s.depth for s in samples])
    targets = np.array([s.v_star for s in samples])
    constraints = np.array([s.constraint for s in samples])
    return depths, targets, physics_term(constraints, targets)


def loss_terms(predictions: np.ndarray, batch, lam: float) -> tuple[float, float, float]:
    """(mse, physics, total) for given predictions; pure arithmetic.

    The physics term is evaluated at the batch's targets, so it does not
    depend on the predictions.
    """
    _, targets, phys = batch
    mse = float(np.mean((targets - predictions) ** 2))
    return mse, phys, mse + lam * phys


def pgnn_loss_grads(params: MlpParams, batch, lam: float):
    """Loss and analytic gradients for every trainable array on one batch.

    Returns (loss, grads, batch_stats) with grads ordered like
    params.trainable() and batch_stats the per-layer (mean, var) pairs seen
    during the pass (used to update running statistics).
    """
    depths, targets, _ = batch
    v, caches = _forward(params, depths, "train")
    loss = loss_terms(v, batch, lam)[2]
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
    grads_b[-1] = np.add.reduce(dz, 0)
    dh = dz @ params.weights[-1].T

    for i in range(n_hidden - 1, -1, -1):
        cache = caches[i]
        dy = dh * (cache["y"] > 0)
        grads_g[i] = np.add.reduce(dy * cache["xhat"], 0)
        grads_s[i] = np.add.reduce(dy, 0)
        dxhat = dy * params.bn_gamma[i]
        da = cache["inv"] * (
            dxhat
            - _mean0(dxhat)
            - cache["xhat"] * _mean0(dxhat * cache["xhat"])
        )
        grads_w[i] = cache["h"].T @ da
        grads_b[i] = np.add.reduce(da, 0)
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
        check_integer("epochs", self.epochs, 1)
        check_integer("seed", self.seed, 0)


def train_pgnn(samples, config: TrainConfig = TrainConfig(), *, record_history: bool = True):
    """Train the network with full-batch adaptive-moment gradient descent.

    One step per epoch; seeded and bit-reproducible.  Returns the trained
    parameters and the loss history as (epoch, mse, physics, total) rows.
    The history costs one infer-mode pass per epoch; record_history=False
    skips it, returns an empty history and trains the same bits.
    Raises ValueError when the loss becomes non-finite.
    """
    if len(samples) < 8:
        raise ValueError(f"need >= 8 training samples, got {len(samples)}")
    batch = training_batch(samples)
    params = init_params(config.seed)
    # One adaptive-moment state: every trainable array becomes a view into
    # one flat vector, in params.trainable() order.  The update is
    # elementwise, so it gives the same bits as one update per array.
    flat = np.concatenate(params.trainable(), axis=None)
    start = 0
    for group in (params.weights, params.biases, params.bn_gamma, params.bn_beta):
        for i, arr in enumerate(group):
            group[i] = flat[start:start + arr.size].reshape(arr.shape)
            start += arr.size

    beta1, beta2, eps = 0.9, 0.999, 1e-8
    # the moments, the gradient and two scratch vectors, allocated once
    m_state, v_state, grad, t1, t2 = (np.zeros_like(flat) for _ in range(5))
    history = []

    for epoch in range(config.epochs):
        loss, grads, batch_stats = pgnn_loss_grads(params, batch, config.lam)
        if not np.isfinite(loss):
            raise ValueError(f"loss became {loss} at epoch {epoch}")
        step = epoch + 1
        np.concatenate(grads, axis=None, out=grad)
        # In place, with the operations and operands of
        #   m = beta1*m + (1-beta1)*g;  v = beta2*v + (1-beta2)*g**2
        #   flat -= LR * (m/c1) / (sqrt(v/c2) + eps)
        # so the bits are the same: scalar products commute and g**2 is g*g.
        m_state *= beta1
        m_state += np.multiply(grad, 1 - beta1, out=t1)
        v_state *= beta2
        np.multiply(grad, grad, out=t1)
        t1 *= 1 - beta2
        v_state += t1
        np.divide(m_state, 1 - beta1**step, out=t1)
        np.divide(v_state, 1 - beta2**step, out=t2)
        np.sqrt(t2, out=t2)
        t2 += eps
        t1 *= LEARNING_RATE
        t1 /= t2
        flat -= t1
        for i, (mu, var) in enumerate(batch_stats):
            params.bn_mean[i] = BN_MOMENTUM * params.bn_mean[i] + (1 - BN_MOMENTUM) * mu
            params.bn_var[i] = BN_MOMENTUM * params.bn_var[i] + (1 - BN_MOMENTUM) * var

        if record_history:
            preds, _ = _forward(params, batch[0], "infer")
            history.append((epoch, *loss_terms(preds, batch, config.lam)))

    return params, history


def trajectory_time(v_pred: float, depth: float) -> float:
    """Planned flight duration: depth / predicted velocity."""
    if not 0 < v_pred < np.inf:
        raise ValueError(f"v_pred {v_pred} is not positive and finite")
    if not 0 < depth < np.inf:
        raise ValueError(f"depth {depth} is not positive and finite")
    return depth / v_pred


# npz key prefix of each MlpParams list, in file order
_NPZ_PREFIXES = {
    "weights": "w", "biases": "b", "bn_gamma": "g",
    "bn_beta": "s", "bn_mean": "rm", "bn_var": "rv",
}


def _npz_arrays(params: MlpParams) -> dict:
    """Each parameter array by its npz key, in file order."""
    return {
        f"{prefix}{i}": arr
        for name, prefix in _NPZ_PREFIXES.items()
        for i, arr in enumerate(getattr(params, name))
    }


def save_params(params: MlpParams, path) -> None:
    """Persist parameters as a flat npz: w0..w3, b0..b3, g0..g2, s0..s2,
    rm0..rm2 (running means), rv0..rv2 (running variances)."""
    with open(path, "wb") as f:  # np.savez appends ".npz" to a bare path
        np.savez(f, **_npz_arrays(params))


def load_params(path) -> MlpParams:
    """Load parameters written by save_params.  The file must hold exactly
    the arrays of init_params' HIDDEN_SIZES architecture, with their shapes;
    a missing, unexpected or misshapen array raises ValueError naming it."""
    params = init_params()
    expected = _npz_arrays(params)
    with np.load(path) as data:
        for key in data.files:
            if key not in expected:
                raise ValueError(f"unexpected array {key!r} in {path}")
        for key, arr in expected.items():
            if key not in data.files:
                raise ValueError(f"missing array {key!r} in {path}")
            stored = data[key]
            if stored.shape != arr.shape:
                raise ValueError(f"array {key!r} in {path} has shape {stored.shape}, "
                                 f"expected {arr.shape}")
            arr[...] = stored
    return params


def write_loss_curve_csv(history, path) -> None:
    """Export the loss history as CSV: epoch,mse,physics_term,total."""
    columns = {"epoch": "", **dict.fromkeys(("mse", "physics_term", "total"), ".12e")}
    write_csv(path, columns, history)
