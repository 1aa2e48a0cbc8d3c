"""Span tracer that wraps rstcnn's public functions from outside the package.

`Tracer.install` replaces each function in `TARGETS` by a wrapper in every
`rstcnn` module that binds it (so `from .net import forward` in another
module is traced too); `uninstall` puts the originals back.  Each call
records a span ``[name, start, end, parent, counts]`` in memory.  Counts are
computed from argument and result shapes, never measured, so they repeat
exactly: flop of the two convolutions, minimum bytes of the joint one,
points evaluated, infinite equivariance errors.
"""

from __future__ import annotations

import json
import math
import sys
import time
from contextlib import contextmanager

import numpy as np


def _lifting_counts(args, kwargs, out):
    # x^(1)[o, r, s, y, x] = sum over (in, L, L): one multiply-add per term
    x, filters = args[0], args[1]
    m_in, m_out, n_r, n_s, L, _ = filters.shape
    H, W = x.values.shape[-2:]
    return {"flop": 2 * m_in * m_out * n_r * n_s * L * L * H * W}


def _joint_counts(args, kwargs, out):
    # x^(l)[o, r, s, y, x] = sum over (in, l_theta, l_alpha with s + l_alpha
    # inside the scale axis, L, L); reads beyond the axis are zero, not terms
    x, filters = args[0], args[1]
    m_in, m_out, n_r, l_th, n_s, l_al, L, _ = filters.shape
    H, W = x.values.shape[-2:]
    taps = l_th * sum(max(n_s - q, 0) for q in range(l_al))
    return {
        "flop": 2 * m_out * n_r * H * W * m_in * L * L * taps,
        "bytes_min": x.values.nbytes + filters.nbytes + out.values.nbytes,
    }


def _bessel_points(args, kwargs, out):
    x = args[1] if len(args) > 1 else kwargs["x"]
    return {"points": int(np.size(x))}


def _spatial_points(args, kwargs, out):
    pts = args[1] if len(args) > 1 else kwargs["points"]
    return {"points": int(np.size(pts)) // 2}


def _inf_errors(args, kwargs, out):
    return {"inf_errors": sum(1 for e in out.errors if math.isinf(e))}


# (module, function, counter, stats reported as per-layer metrics
# "<module>.<function>.<stat>"); spans are named "<module>.<function>"
TARGETS = (
    ("net", "forward", None, ("self_s", "calls")),
    ("net", "lifting_conv", _lifting_counts, ("self_s", "calls", "flop")),
    ("net", "joint_conv", _joint_counts, ("self_s", "calls", "flop", "bytes_min")),
    ("net", "synthesize_filters", None, ("self_s", "calls")),
    ("net", "init_coeffs", None, ("self_s",)),
    ("net", "layer_bank", None, ("calls",)),
    ("bank", "sample_filter_bank", None, ("s", "calls")),
    ("bessel", "bessel_zero", None, ("s", "calls")),
    ("bessel", "bessel_j", _bessel_points, ("s", "calls", "points")),
    ("basis", "build_basis", None, ("self_s", "calls")),
    ("basis", "eval_spatial", _spatial_points, ("s", "points")),
    ("basis", "eval_spatial_grad", _spatial_points, ("s", "points")),
    ("analysis", "filter_bound_report", None, ("self_s", "calls")),
    ("analysis", "equivariance_curve", _inf_errors, ("self_s", "inf_errors")),
    ("analysis", "nonexpansiveness_report", None, ("self_s",)),
    ("group", "act_on_image", None, ("s", "calls")),
    ("group", "act_on_feature", None, ("s", "calls")),
    ("norms", "feature_norm", None, ("s", "calls")),
)
STAT_UNITS = {"s": "s", "self_s": "s", "calls": "count", "flop": "flop", "bytes_min": "B",
              "points": "count", "inf_errors": "count"}

SETUP_SPAN = "bench.setup"
ROUND_SPAN = "bench.round"


class Tracer:
    """In-memory spans around rstcnn's public functions."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self._t0 = time.perf_counter()

    def _open(self, name):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                span[4] = counter(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Bind a tracing wrapper wherever an rstcnn module holds a target."""
        if self._patches:
            return
        modules = [m for n, m in list(sys.modules.items()) if n == "rstcnn" or n.startswith("rstcnn.")]
        for mod_name, fn_name, counter, _stats in TARGETS:
            original = getattr(sys.modules[f"rstcnn.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def totals(self, n_rounds):
        """Per-name stats for one set-up plus the mean traced round.

        Returns {name: {"calls", "s", "self_s", <counts>...}}.  Spans outside
        a set-up or round span (none, when the caller keeps checks
        untraced) are ignored.  Self time is a span's duration minus the
        durations of its direct children; spans nest strictly, so that is
        the part of the interval no child covers.
        """
        child = [0.0] * len(self.spans)
        root = [0] * len(self.spans)
        for i, (_name, t0, t1, parent, _counts) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += t1 - t0
                root[i] = root[parent]
            else:
                root[i] = i
        per_phase = {SETUP_SPAN: {}, ROUND_SPAN: {}}
        for i, (name, t0, t1, _parent, counts) in enumerate(self.spans):
            phase = per_phase.get(self.spans[root[i]][0])
            if phase is None or i == root[i]:
                continue
            stats = phase.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            stats["calls"] += 1
            stats["s"] += t1 - t0
            stats["self_s"] += t1 - t0 - child[i]
            for key, value in (counts or {}).items():
                stats[key] = stats.get(key, 0) + value
        out = {}
        for phase, divisor in ((SETUP_SPAN, 1), (ROUND_SPAN, max(n_rounds, 1))):
            for name, stats in per_phase[phase].items():
                agg = out.setdefault(name, {})
                for key, value in stats.items():
                    agg[key] = agg.get(key, 0) + value / divisor
        return out

    def write_jsonl(self, path):
        """One line per span: name, start and end (s since the tracer began), parent index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name, t0, t1, parent, counts in self.spans:
                rec = {"name": name, "start": t0 - self._t0, "end": t1 - self._t0, "parent": parent}
                if counts:
                    rec.update(counts)
                fh.write(json.dumps(rec) + "\n")
