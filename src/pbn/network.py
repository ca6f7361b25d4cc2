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
from .priors import activation_prior, get_prior
from .saddlepoint import log_feature_density, solve_saddle

LOG_2PI = math.log(2.0 * math.pi)
SIGMA_FLOOR = 1e-12
INNER_ACTIVATIONS = ("linear", "tg", "ted")


# ---------------------------------------------------------------------------
# label-dependent output shift


def label_signal(label, n_classes, level):
    """The +/-level target vector for a class label: +level at the label."""
    label = int(label)
    if not 0 <= label < n_classes:
        raise DomainError(f"label {label} outside 0..{n_classes - 1}")
    s = np.full(n_classes, -float(level))
    s[label] = float(level)
    return s


def output_shift(z, signal, c, level):
    """Monotone shift x = z + C (sigma(3z) - 1/2) - s (level + C/2)/level.

    Under the hypothesis encoded by ``signal`` the shifted output is
    pulled toward zero exactly when z sits near its target level, so a
    standard normal prior on x rewards the matching hypothesis.  The
    slope 1 + 3C sigma'(3z) is at least 1, hence the map is invertible
    for any C >= 0.
    """
    z = np.asarray(z, dtype=np.float64)
    s = np.asarray(signal, dtype=np.float64)
    return z + c * (expit(3.0 * z) - 0.5) - s * (level + 0.5 * c) / level


def output_shift_slope(z, c):
    sig = expit(3.0 * np.asarray(z, dtype=np.float64))
    return 1.0 + 3.0 * c * sig * (1.0 - sig)


def output_shift_curvature(z, c):
    """d slope / d z, needed by the training sweep."""
    sig = expit(3.0 * np.asarray(z, dtype=np.float64))
    return 9.0 * c * sig * (1.0 - sig) * (1.0 - 2.0 * sig)


# ---------------------------------------------------------------------------
# structure


@dataclass(frozen=True)
class OutputPriorConfig:
    c: float
    level: float
    n_classes: int

    def __post_init__(self):
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
    """Label-independent forward state: layer inputs, preactivations, saddles."""

    xs: list
    zs: list
    solutions: list


@dataclass(frozen=True)
class LikelihoodTerms:
    """The decomposed log-likelihood; ``total`` adds every piece."""

    log_priors: list
    neg_log_features: list
    log_jacobians: list
    log_output_prior: float
    log_standardize: float

    @property
    def total(self):
        return float(
            sum(self.log_priors)
            + sum(self.neg_log_features)
            + sum(self.log_jacobians)
            + self.log_output_prior
            + self.log_standardize
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
        if x.shape != (self.n_in,):
            raise ShapeMismatchError(f"input shape {x.shape} != ({self.n_in},)")
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

    def forward_pass(self, x_raw):
        """Propagate without saddle solves; returns (layer inputs, preactivations)."""
        x = self.standardized(x_raw)
        xs, zs = [], []
        for spec in self.layers:
            xs.append(x)
            z = spec.map.forward(x) + spec.bias
            zs.append(z)
            if spec.activation in INNER_ACTIVATIONS:
                x = activation_prior(spec.activation).activation(z)
        return xs, zs

    def logits(self, x_raw):
        """The last preactivation z_L, the discriminative output."""
        _, zs = self.forward_pass(x_raw)
        return zs[-1]

    def interior_trace(self, x_raw):
        """Forward pass plus the per-layer saddle solutions.

        Raises LikelihoodUndefinedError, tagged with the 1-based layer,
        when an input leaves its prior support or a feature target has
        no saddle point.
        """
        xs, zs = self.forward_pass(x_raw)
        solutions = []
        for l, spec in enumerate(self.layers, start=1):
            x = xs[l - 1]
            if not spec.input_prior.in_support(x):
                raise LikelihoodUndefinedError(l, "layer input outside the prior support")
            z_tilde = zs[l - 1] - spec.bias
            try:
                solutions.append(
                    solve_saddle(spec.map, spec.input_prior, z_tilde, label=f"layer {l}")
                )
            except (DomainError, ReconstructionError, SingularityError) as exc:
                raise LikelihoodUndefinedError(l, f"feature density unavailable ({exc})") from exc
        return InteriorTrace(xs, zs, solutions)

    # -- likelihood ---------------------------------------------------------
    def _interior_terms(self, trace):
        log_priors, neg_log_features, log_jacobians = [], [], []
        for l, spec in enumerate(self.layers, start=1):
            x, z, sol = trace.xs[l - 1], trace.zs[l - 1], trace.solutions[l - 1]
            log_priors.append(float(spec.input_prior.log_density(x)))
            z_tilde = z - spec.bias
            neg_log_features.append(
                -log_feature_density(spec.map, spec.input_prior, z_tilde, sol)
            )
            if spec.activation in INNER_ACTIVATIONS:
                deriv = activation_prior(spec.activation).activation_deriv(z)
                log_jacobians.append(float(np.sum(np.log(deriv))))
            else:
                log_jacobians.append(0.0)
        return log_priors, neg_log_features, log_jacobians

    def _output_terms(self, z_last, label):
        """(log N(x_out), shift log-jacobian) for one label hypothesis."""
        if self.output_prior is None:
            if label is not None:
                raise ConfigError("network has no output prior; drop the label")
            x_out = z_last
            return (
                float(-0.5 * x_out.size * LOG_2PI - 0.5 * np.dot(x_out, x_out)),
                0.0,
            )
        if label is None:
            raise ConfigError("network has an output prior; a label hypothesis is required")
        cfg = self.output_prior
        signal = label_signal(label, cfg.n_classes, cfg.level)
        x_out = output_shift(z_last, signal, cfg.c, cfg.level)
        jac = float(np.sum(np.log(output_shift_slope(z_last, cfg.c))))
        log_out = float(-0.5 * x_out.size * LOG_2PI - 0.5 * np.dot(x_out, x_out))
        return log_out, jac

    def log_likelihood(self, x_raw, label=None, trace=None):
        """Exact decomposed log-likelihood of one raw input under a label."""
        if trace is None:
            trace = self.interior_trace(x_raw)
        log_priors, neg_log_features, log_jacobians = self._interior_terms(trace)
        log_out, shift_jac = self._output_terms(trace.zs[-1], label)
        if self.layers[-1].activation == "shift":
            log_jacobians[-1] = shift_jac
        return LikelihoodTerms(
            log_priors=log_priors,
            neg_log_features=neg_log_features,
            log_jacobians=log_jacobians,
            log_output_prior=log_out,
            log_standardize=self.log_standardize,
        )

    def class_scores(self, x_raw, trace=None):
        """Total log-likelihood under every label hypothesis.

        The interior is label-independent, so all hypotheses share one
        trace and differ only in the output terms.
        """
        if self.output_prior is None:
            raise ConfigError("classification needs an output prior")
        if trace is None:
            trace = self.interior_trace(x_raw)
        interior = self._interior_terms(trace)
        base = sum(interior[0]) + sum(interior[1]) + sum(interior[2][:-1])
        scores = np.empty(self.n_classes)
        for y in range(self.n_classes):
            log_out, shift_jac = self._output_terms(trace.zs[-1], y)
            scores[y] = base + shift_jac + log_out + self.log_standardize
        return scores

    def classify(self, x_raw):
        """Most likely label; ties resolve to the lowest index."""
        from .errors import UnclassifiableError

        try:
            scores = self.class_scores(x_raw)
        except LikelihoodUndefinedError as exc:
            raise UnclassifiableError(f"every hypothesis is undefined: {exc}") from exc
        return int(np.argmax(scores))


# ---------------------------------------------------------------------------
# builders


def scaled_uniform_init(rng, map_, shape=None):
    """LeCun-style U(-a, a) with a = sqrt(3/fan_in)."""
    a = math.sqrt(3.0 / map_.fan_in)
    return rng.uniform(-a, a, map_.params.shape if shape is None else shape)


def build_network(input_shape, layer_cfgs, rng, output_prior=None, standardize=None):
    """Assemble and initialize a network from structured layer configs.

    ``input_shape`` is an int for flat inputs or (channels, h, w).  Each
    layer config is a dict: dense layers {"type": "dense", "units": n,
    "activation": tag}, conv layers {"type": "conv", "channels": c,
    "kernel": (kh, kw), "strides": (sy, sx), "activation": tag}.  Conv
    layers require the running shape to still be spatial.  Weights are
    drawn U(-a, a) with a = sqrt(3/fan_in); biases start at zero.
    """
    if isinstance(input_shape, int):
        shape = None
        n_in = input_shape
    else:
        shape = tuple(int(v) for v in input_shape)
        if len(shape) != 3:
            raise ConfigError("spatial input shape must be (channels, h, w)")
        n_in = int(np.prod(shape))

    layers = []
    prior_kind = "gaussian"
    for cfg in layer_cfgs:
        kind = cfg["type"]
        if kind == "conv":
            if shape is None:
                raise ConfigError("conv layer after the spatial structure was flattened")
            c_out = int(cfg["channels"])
            kh, kw = (int(v) for v in cfg["kernel"])
            zeros = np.zeros((c_out, shape[0], kh, kw))
            probe = ConvMap(zeros, shape, cfg["strides"])
            map_ = ConvMap(scaled_uniform_init(rng, probe), shape, cfg["strides"])
            shape = map_.out_shape
        elif kind == "dense":
            units = int(cfg["units"])
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


def _map_from_dict(d):
    if d["type"] == "dense":
        return DenseMap(np.asarray(d["weights"], dtype=np.float64))
    if d["type"] == "conv":
        return ConvMap(
            np.asarray(d["weights"], dtype=np.float64),
            tuple(d["in_shape"]),
            tuple(d["strides"]),
        )
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
            _map_from_dict(d["map"]),
            np.asarray(d["bias"], dtype=np.float64),
            d["input_prior"],
            d["activation"],
        )
        for d in doc["layers"]
    ]
    output_prior = None
    if doc.get("output_prior") is not None:
        p = doc["output_prior"]
        output_prior = OutputPriorConfig(c=p["c"], level=p["level"], n_classes=p["n_classes"])
    standardize = None
    if doc.get("standardize") is not None:
        s = doc["standardize"]
        standardize = (np.asarray(s["mu"]), np.asarray(s["sigma"]))
    return Network(layers, output_prior=output_prior, standardize=standardize)


def save_model(net, path):
    """Write the canonical JSON form; identical networks give identical bytes."""
    text = json.dumps(network_to_dict(net), sort_keys=True, separators=(",", ":"))
    with open(path, "w") as fh:
        fh.write(text + "\n")


def load_model(path):
    with open(path) as fh:
        return network_from_dict(json.load(fh))
