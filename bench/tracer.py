"""Spans around the public functions of ``pbn``, installed from outside.

``Tracer.install`` replaces each traced function or method with a
wrapper that records one span per call: a name, start and end times,
the enclosing span, and two integer attributes (the saddle layer and
iteration count of a solve, the map shape of a Gram factor, the layer
that made a sample undefined).  A function is replaced under every name
a ``pbn`` module holds it by, so ``pbn.network.solve_saddle`` is traced
as well as ``pbn.saddlepoint.solve_saddle``; methods are replaced on
their class, which covers every reference at once.

Spans stay in memory and are written as one ``.npz`` file when the
traced command ends; ``perlayer.metrics`` turns the files of a run into
per-layer counts and timings.
"""

import functools
import re
import sys
import time

import numpy as np

_LAYER = re.compile(r"layer (\d+)")


def _layer_of(label):
    match = _LAYER.fullmatch(str(label))
    return int(match.group(1)) if match else -1


def _saddle_attrs(args, kwargs, out, exc):
    iterations = getattr(exc if exc is not None else out, "iterations", None)
    return _layer_of(kwargs.get("label", "")), -1 if iterations is None else int(iterations)


def _gram_attrs(args, kwargs, out, exc):
    map_ = args[1] if len(args) > 1 else kwargs["map_"]
    return map_.n_in, map_.n_out


def _undefined_attrs(args, kwargs, out, exc):
    return getattr(exc, "layer", -1), -1


def _targets():
    """(span name, owner object, attribute, attribute-extractor) to trace."""
    from pbn import features, linops, network, priors, reconstruct, saddlepoint, training

    inverse_owners = [
        cls
        for cls in vars(priors).values()
        if isinstance(cls, type)
        and issubclass(cls, priors.ScalarPrior)
        and "activation_inverse" in vars(cls)
    ]
    return [
        ("features.logmel", features, "logmel", None),
        ("features.extract_directory", features, "extract_directory", None),
        ("features.write_archive", features, "write_archive_text", None),
        ("features.write_archive", features, "write_archive_binary", None),
        ("features.read_archive", features, "read_archive", None),
        ("training.pretrain_discriminative", training, "pretrain_discriminative", None),
        ("training.gradient", training, "gradient", None),
        ("training.evaluate", training, "evaluate", None),
        ("network.forward_pass", network.Network, "forward_pass", None),
        ("network.interior_trace", network.Network, "interior_trace", _undefined_attrs),
        ("network.log_likelihood", network.Network, "log_likelihood", None),
        ("network.class_scores", network.Network, "class_scores", None),
        ("saddlepoint.solve_saddle", saddlepoint, "solve_saddle", _saddle_attrs),
        ("linops.gram_factor", linops.GramFactor, "__init__", _gram_attrs),
        ("linops.gram_solve", linops.GramFactor, "solve", None),
        ("reconstruct.reconstruction_statistic", reconstruct, "reconstruction_statistic", None),
        ("reconstruct.reconstruct_from_layer", reconstruct, "reconstruct_from_layer", None),
    ] + [("priors.activation_inverse", cls, "activation_inverse", None) for cls in inverse_owners]


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self.a = []
        self.b = []
        self.failed = []
        self._stack = [-1]
        self.missing = []

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn, attrs=None):
        nid = self._name_id(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.end.append(0.0)
            self.a.append(-1)
            self.b.append(-1)
            self.failed.append(False)
            self._stack.append(i)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self.end[i] = clock()
                self._stack.pop()
                self.failed[i] = True
                if attrs is not None:
                    self.a[i], self.b[i] = attrs(args, kwargs, None, exc)
                raise
            self.end[i] = clock()
            self._stack.pop()
            if attrs is not None:
                self.a[i], self.b[i] = attrs(args, kwargs, out, None)
            return out

        return traced

    def install(self):
        """Wrap every target; a target the package no longer has is listed in ``missing``."""
        modules = [m for n, m in list(sys.modules.items()) if n == "pbn" or n.startswith("pbn.")]
        for name, owner, attr, attrs in _targets():
            original = vars(owner).get(attr)
            if original is None:
                self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            wrapped = self.wrap(name, original, attrs)
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def save(self, path):
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.array(self.name, dtype=np.int32),
            start=np.array(self.start),
            end=np.array(self.end),
            parent=np.array(self.parent, dtype=np.int64),
            a=np.array(self.a, dtype=np.int64),
            b=np.array(self.b, dtype=np.int64),
            failed=np.array(self.failed, dtype=bool),
            missing=np.array(self.missing, dtype=str),
        )


class Spans:
    """The spans of one traced command, loaded from ``Tracer.save``."""

    def __init__(self, path):
        with np.load(path) as f:
            self.names = list(f["names"])
            self.name = f["name"]
            self.dur = f["end"] - f["start"]
            self.parent = f["parent"]
            self.a = f["a"]
            self.b = f["b"]
            self.failed = f["failed"]
            self.missing = list(f["missing"])
        has_parent = self.parent >= 0
        self.child_time = np.zeros(self.dur.size)
        np.add.at(self.child_time, self.parent[has_parent], self.dur[has_parent])

    def mask(self, name):
        if name not in self.names:
            return np.zeros(self.dur.size, dtype=bool)
        return self.name == self.names.index(name)

    def child_time_of(self, names):
        """Per span: summed duration of its direct children with one of these names."""
        out = np.zeros(self.dur.size)
        sel = np.zeros(self.dur.size, dtype=bool)
        for n in names:
            sel |= self.mask(n)
        sel &= self.parent >= 0
        np.add.at(out, self.parent[sel], self.dur[sel])
        return out
