"""Layered generative network with an exact, layer-wise log-likelihood.

A network is a chain of layers.  Layer l holds a tall linear map W_l,
a bias b_l, and the maximum-entropy prior of its input; it computes

    z_l = W_l' x_l + b_l ,      x_{l+1} = lambda_l(z_l)

where lambda_l is the mean-function activation of the layer's tag.  The
log density of the raw input then decomposes layer by layer:

    LL(x) = sum_l [ log p_l(x_l) - log p^_l(z~_l) + sum_i log lambda_l'(z_{l,i}) ]
            + log N(x_out) + log|d x_1 / d x_raw| ,

with z~_l = z_l - b_l the bias-free feature (the saddle point target)
and p^_l its approximate density under (W_l, p_l).  The last layer uses
a label-dependent monotone output shift instead of a mean activation,
which is what couples the generative likelihood to class labels; with
no output prior configured the last layer is linear and log N applies
to z_L directly.

Every term is exposed separately in LikelihoodTerms so experiments can
report or recombine them without re-deriving the decomposition.

Every pass takes a (B, n_in) batch of raw inputs, one row per sample,
and runs each layer on the whole batch at once.  A sample whose
likelihood is undefined is marked with its layer and reason and drops
out of the later layers; it never fails the batch, and the other
samples' results do not depend on it.  Only ``log_likelihood`` also
takes one raw input, as a one-row batch, and raises its
LikelihoodUndefinedError.
"""

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import (
    ConfigError,
    DomainError,
    LikelihoodUndefinedError,
    ReconstructionError,
    ShapeMismatchError,
    SingularityError,
)
from .linops import ConvMap, DenseMap
from .priors import LOG_2PI, activation_prior, get_prior
from .saddlepoint import solve_saddle

SIGMA_FLOOR = 1e-12
INNER_ACTIVATIONS = ("linear", "tg", "ted")

# Rows per batch when a whole archive or dataset is scored: it bounds
# the memory a batched pass holds (about 50 kB per word-pair row).
BATCH_ROWS = 64


def row_chunks(n):
    """Consecutive index arrays of at most BATCH_ROWS rows covering range(n)."""
    return [np.arange(start, min(start + BATCH_ROWS, n)) for start in range(0, n, BATCH_ROWS)]


# ---------------------------------------------------------------------------
# label-dependent output shift


def check_labels(labels, n_classes):
    """Raise DomainError naming the first label of an array outside 0..n_classes-1."""
    outside = labels[(labels < 0) | (labels >= n_classes)]
    if outside.size:
        raise DomainError(f"label {outside.flat[0]} outside 0..{n_classes - 1}")


def label_signal(label, n_classes, level):
    """The +/-level target vector for a class label: +level at the label.

    An array of labels gives one row per label.
    """
    labels = np.asarray(label).astype(int)
    check_labels(labels, n_classes)
    return np.where(np.arange(n_classes) == labels[..., None], float(level), -float(level))


def output_shift(z, signal, c, level):
    """Monotone shift x = z + C (sigma(3z) - 1/2) - s (level + C/2)/level.

    Returns x, its slope 1 + 3C sigma'(3z) and the slope's derivative
    (the curvature the training sweep needs), all from one sigma.  Under
    the hypothesis encoded by ``signal`` the shifted output is pulled
    toward zero exactly when z sits near its target level, so a standard
    normal prior on x rewards the matching hypothesis.  The slope is at
    least 1, hence the map is invertible for any C >= 0.
    """
    z = np.asarray(z, dtype=np.float64)
    s = np.asarray(signal, dtype=np.float64)
    sig = expit(3.0 * z)
    return (
        z + c * (sig - 0.5) - s * (level + 0.5 * c) / level,
        1.0 + 3.0 * c * sig * (1.0 - sig),
        9.0 * c * sig * (1.0 - sig) * (1.0 - 2.0 * sig),
    )


# ---------------------------------------------------------------------------
# structure


@dataclass(frozen=True)
class OutputPriorConfig:
    c: float
    level: float
    n_classes: int

    def __post_init__(self):
        for key in ("c", "level"):
            if not math.isfinite(getattr(self, key)):
                raise ConfigError(f"output prior {key} must be finite")
        if self.c < 0.0:
            raise ConfigError("output shift scale C must be nonnegative")
        if self.level <= 0.0:
            raise ConfigError("output level must be positive")
        if self.n_classes < 2:
            raise ConfigError("need at least two classes")


class LayerSpec:
    """One layer: a tall map, a bias, the input prior, and an activation tag."""

    def __init__(self, map_, bias, input_prior, activation):
        bias = np.asarray(bias, dtype=np.float64)
        if bias.shape != (map_.n_out,):
            raise ShapeMismatchError(f"bias shape {bias.shape} != ({map_.n_out},)")
        if isinstance(input_prior, str):
            input_prior = get_prior(input_prior)
        if activation not in INNER_ACTIVATIONS + ("shift",):
            raise ConfigError(f"unknown activation tag {activation!r}")
        self.map = map_
        self.bias = bias.copy()
        self.bias.flags.writeable = False
        self.input_prior = input_prior
        self.activation = activation

    def with_params(self, params, bias):
        return LayerSpec(self.map.with_params(params), bias, self.input_prior, self.activation)

    def __repr__(self):
        return (
            f"<LayerSpec {self.map.n_in}->{self.map.n_out} "
            f"prior={self.input_prior.kind} act={self.activation}>"
        )


@dataclass(frozen=True)
class InteriorTrace:
    """Label-independent forward state of a batch: layer inputs, preactivations, saddles.

    ``xs`` and ``zs`` hold every layer's (B, n) inputs and preactivations,
    ``slopes`` the activation slopes k''(z) of the forward pass (None for
    the output layer).  ``solutions[l]`` is the saddle solution of layer
    l + 1 for the rows ``rows[l]`` that reached it (None when no row
    did), failed columns included.  ``undefined`` holds, per row, None
    or the LikelihoodUndefinedError of the layer that ended it.
    """

    xs: list
    zs: list
    slopes: list
    solutions: list
    rows: list
    undefined: list

    @property
    def defined(self):
        """Row mask of the samples whose likelihood is defined."""
        return np.array([u is None for u in self.undefined], dtype=bool)

    def solution(self, layer, idx):
        """The saddle solution of a 1-based layer for the rows ``idx``, all of which reached it."""
        rows, sol = self.rows[layer - 1], self.solutions[layer - 1]
        if len(idx) == len(rows):
            return sol
        return sol.take(np.searchsorted(rows, idx))


@dataclass(frozen=True)
class LikelihoodTerms:
    """The decomposed log-likelihood; ``total`` adds every piece.

    Each term is a float for one sample, or an array with one entry per
    sample for a batch.
    """

    log_priors: list
    neg_log_features: list
    log_jacobians: list
    log_output_prior: float
    log_standardize: float

    @property
    def total(self):
        return (
            sum(self.log_priors)
            + sum(self.neg_log_features)
            + sum(self.log_jacobians)
            + self.log_output_prior
            + self.log_standardize
        )

    def row(self, i):
        """The terms of one sample of a batch."""
        return LikelihoodTerms(
            log_priors=[float(v[i]) for v in self.log_priors],
            neg_log_features=[float(v[i]) for v in self.neg_log_features],
            log_jacobians=[float(v[i]) for v in self.log_jacobians],
            log_output_prior=float(self.log_output_prior[i]),
            log_standardize=self.log_standardize,
        )


class Network:
    """A validated chain of layers plus optional standardization and output prior."""

    def __init__(self, layers, output_prior=None, standardize=None):
        if not layers:
            raise ConfigError("network needs at least one layer")
        for l in range(len(layers) - 1):
            lo, hi = layers[l], layers[l + 1]
            if lo.map.n_out != hi.map.n_in:
                raise ShapeMismatchError(
                    f"layer {l + 1} emits {lo.map.n_out} values, "
                    f"layer {l + 2} expects {hi.map.n_in}"
                )
            if lo.activation == "shift":
                raise ConfigError("the output shift is only valid on the last layer")
            if hi.input_prior is not activation_prior(lo.activation):
                raise ConfigError(
                    f"layer {l + 2} input prior {hi.input_prior.kind!r} does not match "
                    f"the {lo.activation!r} activation of layer {l + 1}"
                )
        last = layers[-1]
        if output_prior is not None:
            if last.activation != "shift":
                raise ConfigError("an output prior requires the last activation to be 'shift'")
            if output_prior.n_classes != last.map.n_out:
                raise ConfigError(
                    f"output prior has {output_prior.n_classes} classes, "
                    f"last layer emits {last.map.n_out}"
                )
        elif last.activation == "shift":
            raise ConfigError("the shift activation requires an output prior")
        self.layers = list(layers)
        self.output_prior = output_prior
        if standardize is not None:
            mu = np.asarray(standardize[0], dtype=np.float64)
            sigma = np.maximum(np.asarray(standardize[1], dtype=np.float64), SIGMA_FLOOR)
            if mu.shape != (self.n_in,) or sigma.shape != (self.n_in,):
                raise ShapeMismatchError("standardization shape does not match the input")
            standardize = (mu, sigma)
        self.standardize = standardize

    # -- basic geometry ---------------------------------------------------
    @property
    def n_in(self):
        return self.layers[0].map.n_in

    @property
    def n_out(self):
        return self.layers[-1].map.n_out

    @property
    def depth(self):
        return len(self.layers)

    @property
    def n_classes(self):
        if self.output_prior is None:
            raise ConfigError("network has no output prior, so no classes")
        return self.output_prior.n_classes

    def with_layer_params(self, params_list, bias_list):
        layers = [
            spec.with_params(p, b) for spec, p, b in zip(self.layers, params_list, bias_list)
        ]
        return Network(layers, self.output_prior, self.standardize)

    # -- forward passes -----------------------------------------------------
    def standardized(self, x_raw):
        x = np.asarray(x_raw, dtype=np.float64)
        if x.ndim not in (1, 2) or x.shape[-1] != self.n_in:
            raise ShapeMismatchError(f"input shape {x.shape} != ({self.n_in},) or (B, {self.n_in})")
        if not np.all(np.isfinite(x)):
            raise DomainError("input must be finite")
        if self.standardize is None:
            return x.copy()
        mu, sigma = self.standardize
        return (x - mu) / sigma

    def destandardize(self, x1):
        if self.standardize is None:
            return np.asarray(x1, dtype=np.float64).copy()
        mu, sigma = self.standardize
        return np.asarray(x1, dtype=np.float64) * sigma + mu

    @property
    def log_standardize(self):
        """Jacobian of raw -> standardized input, a per-network constant."""
        if self.standardize is None:
            return 0.0
        return float(-np.sum(np.log(self.standardize[1])))

    def forward_pass(self, x_raw, masks=None):
        """Propagate without saddle solves; returns (layer inputs, preactivations, slopes).

        ``slopes[l]`` is lambda'(z_l) = k''(z_l), the activation slope
        of layer l + 1, from the same pass as its activation (None for
        the output layer).  ``masks``, when given, holds one multiplier
        per layer (None for none) that scales the layer input before its
        map: the dropout of the discriminative warm start.  ``xs`` holds
        the inputs before their masks.
        """
        x = self.standardized(x_raw)
        xs, zs, slopes = [], [], []
        for l, spec in enumerate(self.layers):
            xs.append(x)
            if masks is not None and masks[l] is not None:
                x = x * masks[l]
            z = spec.map.forward(x) + spec.bias
            zs.append(z)
            slope = None
            if spec.activation in INNER_ACTIVATIONS:
                _, x, slope = activation_prior(spec.activation).cgf_derivs(z)
            slopes.append(slope)
        return xs, zs, slopes

    def logits(self, x_raw):
        """The last preactivation z_L, the discriminative output."""
        return self.forward_pass(x_raw)[1][-1]

    def interior_trace(self, x_raw):
        """Forward pass plus the per-layer saddle solutions of a (B, n_in) batch.

        A row whose layer input leaves its prior support, or whose
        feature target has no saddle point, is marked undefined with a
        LikelihoodUndefinedError tagged with the 1-based layer, and
        drops out of the later layers.
        """
        if np.ndim(x_raw) != 2:
            raise ShapeMismatchError(f"input shape {np.shape(x_raw)} != (B, {self.n_in})")
        xs, zs, slopes = self.forward_pass(x_raw)
        undefined = [None] * len(xs[0])
        live = np.arange(len(xs[0]))
        solutions, rows = [], []
        for l, spec in enumerate(self.layers, start=1):
            inside = spec.input_prior.in_support(xs[l - 1][live])
            for r in live[~inside]:
                undefined[r] = LikelihoodUndefinedError(l, "layer input outside the prior support")
            live = live[inside]
            rows.append(live)
            if not live.size:
                solutions.append(None)
                continue
            z_tilde = zs[l - 1][live] - spec.bias
            try:
                sol = solve_saddle(spec.map, spec.input_prior, z_tilde, label=f"layer {l}")
                failures = sol.errors
            except (DomainError, ReconstructionError, SingularityError) as exc:
                sol, failures = None, [exc] * live.size
            solutions.append(sol)
            for r, exc in zip(live, failures):
                if exc is not None:
                    reason = f"feature density unavailable ({exc})"
                    undefined[r] = LikelihoodUndefinedError(l, reason)
                    undefined[r].__cause__ = exc
            live = live[[exc is None for exc in failures]]
        return InteriorTrace(xs, zs, slopes, solutions, rows, undefined)

    # -- likelihood ---------------------------------------------------------
    def _interior_terms(self, trace, idx):
        """The label-independent (log priors, -log p^, log jacobians) of the rows ``idx``."""
        if not idx.size:
            return ([np.zeros(0)] * self.depth,) * 3
        log_priors, neg_log_features, log_jacobians = [], [], []
        for l, spec in enumerate(self.layers, start=1):
            log_priors.append(spec.input_prior.log_density(trace.xs[l - 1][idx]))
            neg_log_features.append(-trace.solution(l, idx).log_density)
            if spec.activation in INNER_ACTIVATIONS:
                log_jacobians.append(np.sum(np.log(trace.slopes[l - 1][idx]), axis=1))
            else:
                log_jacobians.append(np.zeros(len(idx)))
        return log_priors, neg_log_features, log_jacobians

    def _likelihood_terms(self, interior, z_last, labels):
        """Complete the interior terms with the output terms of one label hypothesis per row."""
        log_priors, neg_log_features, log_jacobians = interior
        if self.output_prior is None:
            if labels is not None:
                raise ConfigError("network has no output prior; drop the label")
            x_out = z_last
        else:
            if labels is None:
                raise ConfigError("network has an output prior; a label hypothesis is required")
            cfg = self.output_prior
            signal = label_signal(labels, cfg.n_classes, cfg.level)
            x_out, slope, _ = output_shift(z_last, signal, cfg.c, cfg.level)
            # An output prior comes with a shift on the last layer (see __init__).
            shift_jac = np.sum(np.log(slope), axis=1)
            log_jacobians = log_jacobians[:-1] + [shift_jac]
        return LikelihoodTerms(
            log_priors=log_priors,
            neg_log_features=neg_log_features,
            log_jacobians=log_jacobians,
            log_output_prior=-0.5 * x_out.shape[1] * LOG_2PI - 0.5 * np.vecdot(x_out, x_out),
            log_standardize=self.log_standardize,
        )

    def log_likelihood(self, x_raw, label=None, trace=None):
        """Exact decomposed log-likelihood of a batch, one label per row.

        The terms cover the rows whose likelihood is defined
        (``trace.defined``), in order.  One raw input (n_in,) with one
        label is the one-row batch: its terms are floats, and an
        undefined likelihood raises its LikelihoodUndefinedError.
        """
        single = np.ndim(x_raw) == 1
        if trace is None:
            trace = self.interior_trace(np.atleast_2d(x_raw))
        if single and trace.undefined[0] is not None:
            raise trace.undefined[0]
        idx = np.flatnonzero(trace.defined)
        labels = None if label is None else np.atleast_1d(label)[idx]
        terms = self._likelihood_terms(
            self._interior_terms(trace, idx), trace.zs[-1][idx], labels
        )
        return terms.row(0) if single else terms

    def class_scores(self, x_raw, trace=None):
        """Total log-likelihood of a batch under every label hypothesis: (B, n_classes).

        The interior is label-independent, so all hypotheses share one
        trace and one set of interior terms; ``class_scores(x)[:, y]`` is
        exactly ``log_likelihood(x, label=[y] * B).total`` on the defined
        rows.  The rows of undefined samples are NaN.
        """
        if self.output_prior is None:
            raise ConfigError("classification needs an output prior")
        if trace is None:
            trace = self.interior_trace(x_raw)
        idx = np.flatnonzero(trace.defined)
        interior = self._interior_terms(trace, idx)
        scores = np.full((len(trace.undefined), self.n_classes), np.nan)
        for y in range(self.n_classes):
            labels = np.full(idx.size, y)
            scores[idx, y] = self._likelihood_terms(interior, trace.zs[-1][idx], labels).total
        return scores


# ---------------------------------------------------------------------------
# builders


def scaled_uniform_init(rng, map_):
    """LeCun-style U(-a, a) with a = sqrt(3/fan_in), one draw per parameter of ``map_``."""
    a = math.sqrt(3.0 / map_.fan_in)
    return rng.uniform(-a, a, map_.params.shape)


def build_network(input_shape, layer_cfgs, rng, output_prior=None, standardize=None):
    """Assemble and initialize a network from structured layer configs.

    ``input_shape`` is an int for flat inputs or (channels, h, w).  Each
    layer config is a dict: dense layers {"type": "dense", "units": n,
    "activation": tag}, conv layers {"type": "conv", "channels": c,
    "kernel": (kh, kw), "strides": (sy, sx), "activation": tag}.  Conv
    layers require the running shape to still be spatial.  A size below 1
    raises ConfigError before any array is built.  Weights are drawn
    U(-a, a) with a = sqrt(3/fan_in); biases start at zero.
    """
    if isinstance(input_shape, int):
        shape = None
        n_in = input_shape
    else:
        shape = tuple(int(v) for v in input_shape)
        if len(shape) != 3:
            raise ConfigError("spatial input shape must be (channels, h, w)")
        n_in = int(np.prod(shape))
    if min(shape or (n_in,)) < 1:
        raise ConfigError(f"input shape sizes must be positive, got {input_shape}")

    layers = []
    prior_kind = "gaussian"
    for cfg in layer_cfgs:
        kind = cfg["type"]
        if kind == "conv":
            if shape is None:
                raise ConfigError("conv layer after the spatial structure was flattened")
            dims = (int(cfg["channels"]), shape[0], *(int(v) for v in cfg["kernel"]))
            if min(dims) < 1:
                raise ConfigError(f"conv kernel dimensions must be positive, got {dims}")
            probe = ConvMap(np.zeros(dims), shape, cfg["strides"])
            map_ = probe.with_params(scaled_uniform_init(rng, probe))
            shape = map_.out_shape
        elif kind == "dense":
            units = int(cfg["units"])
            if units < 1:
                raise ConfigError(f"dense layer units must be positive, got {units}")
            probe = DenseMap(np.zeros((n_in, units)))
            map_ = DenseMap(scaled_uniform_init(rng, probe))
            shape = None
        else:
            raise ConfigError(f"unknown layer type {cfg['type']!r}")
        layers.append(LayerSpec(map_, np.zeros(map_.n_out), prior_kind, cfg["activation"]))
        n_in = map_.n_out
        if cfg["activation"] in INNER_ACTIVATIONS:
            prior_kind = activation_prior(cfg["activation"]).kind
    return Network(layers, output_prior=output_prior, standardize=standardize)


def wordpair_network(rng, c=200.0, level=1.0, standardize=None):
    """The stock two-class spectrogram-pair architecture (900 inputs)."""
    cfgs = [
        dict(type="conv", channels=9, kernel=(21, 17), strides=(5, 4), activation="linear"),
        dict(type="conv", channels=24, kernel=(5, 3), strides=(3, 2), activation="linear"),
        dict(type="dense", units=64, activation="tg"),
        dict(type="dense", units=24, activation="tg"),
        dict(type="dense", units=2, activation="shift"),
    ]
    prior = OutputPriorConfig(c=c, level=level, n_classes=2)
    return build_network((1, 45, 20), cfgs, rng, output_prior=prior, standardize=standardize)


# ---------------------------------------------------------------------------
# serialization


def _map_to_dict(map_):
    if isinstance(map_, DenseMap):
        return {"type": "dense", "weights": map_.params.tolist()}
    if isinstance(map_, ConvMap):
        return {
            "type": "conv",
            "weights": map_.params.tolist(),
            "in_shape": list(map_.in_shape),
            "strides": list(map_.strides),
        }
    raise ConfigError(f"cannot serialize map type {type(map_).__name__}")


def _finite(values, what):
    """``values`` as a float64 array; a NaN or infinite entry raises ConfigError naming ``what``."""
    a = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise ConfigError(f"{what} must be finite")
    return a


def _map_from_dict(d, what):
    if d["type"] == "dense":
        return DenseMap(_finite(d["weights"], what))
    if d["type"] == "conv":
        return ConvMap(_finite(d["weights"], what), tuple(d["in_shape"]), tuple(d["strides"]))
    raise ConfigError(f"unknown map type {d['type']!r}")


def network_to_dict(net):
    doc = {
        "format": "pbn-model",
        "version": 1,
        "layers": [
            {
                "map": _map_to_dict(spec.map),
                "bias": spec.bias.tolist(),
                "input_prior": spec.input_prior.kind,
                "activation": spec.activation,
            }
            for spec in net.layers
        ],
        "output_prior": None,
        "standardize": None,
    }
    if net.output_prior is not None:
        cfg = net.output_prior
        doc["output_prior"] = {"c": cfg.c, "level": cfg.level, "n_classes": cfg.n_classes}
    if net.standardize is not None:
        mu, sigma = net.standardize
        doc["standardize"] = {"mu": mu.tolist(), "sigma": sigma.tolist()}
    return doc


def network_from_dict(doc):
    if doc.get("format") != "pbn-model":
        raise ConfigError("not a model file")
    layers = [
        LayerSpec(
            _map_from_dict(d["map"], f"layer {l} weights"),
            _finite(d["bias"], f"layer {l} bias"),
            d["input_prior"],
            d["activation"],
        )
        for l, d in enumerate(doc["layers"], 1)
    ]
    output_prior = None
    if doc.get("output_prior") is not None:
        p = doc["output_prior"]
        output_prior = OutputPriorConfig(c=p["c"], level=p["level"], n_classes=p["n_classes"])
    standardize = None
    if doc.get("standardize") is not None:
        s = doc["standardize"]
        standardize = tuple(_finite(s[key], f"standardization {key}") for key in ("mu", "sigma"))
    return Network(layers, output_prior=output_prior, standardize=standardize)


def save_model(net, path, meta=None):
    """Write the canonical JSON form; identical networks and ``meta`` give identical bytes.

    ``meta``, when given, is stored under the "meta" key; loading ignores it.
    """
    doc = network_to_dict(net)
    if meta is not None:
        doc["meta"] = meta
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    with open(path, "w") as fh:
        fh.write(text + "\n")


def load_model(path):
    """The network of a model file; a ConfigError, ValueError, KeyError, TypeError
    or AttributeError from the loader (a damaged document) raises ConfigError naming the file."""
    with open(path) as fh:
        try:
            return network_from_dict(json.load(fh))
        except (ConfigError, ValueError, KeyError, TypeError, AttributeError) as exc:
            raise ConfigError(f"{path}: not a pbn model ({type(exc).__name__}: {exc})") from exc
