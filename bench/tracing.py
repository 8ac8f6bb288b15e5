"""Spans around permest's layers, recorded from outside the package.

``Tracer.install`` wraps each public function or method named in
``TARGETS`` and rebinds the wrapper wherever the original is looked up: on
its class, or under every name in every loaded ``permest`` module that holds
it (so ``permest.exact.gengly_batch`` is rebound as well as
``permest.estimators.gengly_batch``). ``uninstall`` restores the originals.
No file of the package is edited.

A span records its name, start, end, parent span and job id; spans stay in
memory and are written out when the run ends. Counts attached to a span
(Gray steps, batch rows, seeds, cells, ...) are computed from the call's
arguments and result after the span has ended, not measured by the program.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

import numpy as np


def _kind(a) -> str:
    a = np.asarray(a)
    return "complex" if np.iscomplexobj(a) and np.any(a.imag) else "real"


def _glynn(args, kwargs, result, cached):
    n = np.asarray(args[0]).shape[0]
    steps = 1 << (n - 1)
    # each sign vector reads one complex128 row-sum vector of length n
    return {"kind": _kind(args[0]), "steps": steps, "bytes_computed": steps * n * 16}


def _ryser(args, kwargs, result, cached):
    return {"kind": _kind(args[0]), "steps": 1 << np.asarray(args[0]).shape[0]}


def _gengly_exact(args, kwargs, result, cached):
    return {"points": math.prod(s + 1 for s in args[0].mults)}


def _rows(args, kwargs, result, cached):
    return {"rows": len(args[1])}


def _samples(args, kwargs, result, cached):
    return {"samples": result.samples_used}


def _iterations(args, kwargs, result, cached):
    return {"iterations": result.iterations}


def _text_bytes(args, kwargs, result, cached):
    return {"bytes": len(args[0])}


def _hist_cached(args, kwargs):
    # a space caches its histogram; a repeat call does no work
    return getattr(args[0], "_hist", None) is not None


def _binary_hist(args, kwargs, result, cached):
    if cached:
        return {"cached": 1}
    space = args[0]
    return {
        "seeds": 0 if space.exhaustive else space.seed_count,
        "cells": result.size,
        "occupied": int(np.count_nonzero(result)),
    }


def _complex_hist(args, kwargs, result, cached):
    if cached:
        return {"cached": 1}
    space = args[0]
    return {"seeds": 0 if space.exhaustive else space.seed_count}


def _audit_cells(args, kwargs, result, cached):
    return {"cells": 1 << args[0].n}


# (module, function or Class.method, span name, counts hook, cache probe)
TARGETS = [
    ("exact", "permanent_glynn_exact", "exact.permanent_glynn_exact", _glynn, None),
    ("exact", "permanent_ryser", "exact.permanent_ryser", _ryser, None),
    ("exact", "permanent_gengly_exact", "exact.permanent_gengly_exact", _gengly_exact, None),
    ("estimators", "gly_batch", "estimators.gly_batch", _rows, None),
    ("estimators", "gengly_batch", "estimators.gengly_batch", _rows, None),
    ("estimators", "estimate_random", "estimators.estimate_random", _samples, None),
    ("estimators", "estimate_random_multi", "estimators.estimate_random_multi", _samples, None),
    ("estimators", "estimate_derandomized", "estimators.estimate_derandomized", None, None),
    ("estimators", "estimate_derandomized_multi", "estimators.estimate_derandomized_multi", None, None),
    ("matrices", "spectral_norm", "matrices.spectral_norm", _iterations, None),
    ("matrices", "parse_matrix", "matrices.parse_matrix", _text_bytes, None),
    ("binary_bias", "SampleSpace.support_histogram", "binary_bias.support_histogram", _binary_hist, _hist_cached),
    ("binary_bias", "measure_bias", "binary_bias.measure_bias", _audit_cells, None),
    ("complex_bias", "build_complex_space", "complex_bias.build_complex_space", None, None),
    ("complex_bias", "measure_complex_bias", "complex_bias.measure_complex_bias", None, None),
    ("complex_bias", "strong_fraction", "complex_bias.strong_fraction", None, None),
    (
        "complex_bias",
        "ComplexSampleSpace.support_histogram",
        "complex_bias.ComplexSampleSpace.support_histogram",
        _complex_hist,
        _hist_cached,
    ),
    ("complex_bias", "walk_batch", "complex_bias.walk_batch", _rows, None),
    ("complex_bias", "cwise_batch", "complex_bias.cwise_batch", _rows, None),
    ("optics", "amplitude_estimate", "optics.amplitude_estimate", None, None),
    ("optics", "amplitude_exact", "optics.amplitude_exact", None, None),
    ("cli", "main", "cli.main", None, None),
]

# spans whose support-cell count is the number of rows their batch calls took
_SUPPORT_SPANS = ("estimators.estimate_derandomized", "estimators.estimate_derandomized_multi")
_BATCH_SPANS = ("estimators.gly_batch", "estimators.gengly_batch")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    job: int
    counts: dict


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.job = 0
        self._next_id = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, counts, probe):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cached = probe(args, kwargs) if probe else False
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append(Span(span_id, name, start, end, parent, tracer.job, {"raised": 1}))
                raise
            end = time.perf_counter()
            tracer._stack.pop()
            try:
                attached = counts(args, kwargs, result, cached) if counts else {}
            except Exception:  # an API change must not break the traced call
                attached = {"uncounted": 1}
            tracer.spans.append(Span(span_id, name, start, end, parent, tracer.job, attached))
            return result

        return wrapper

    def install(self) -> None:
        namespaces = [vars(m) for key, m in sys.modules.items() if key == "permest" or key.startswith("permest.")]
        # dispatch tables such as cli._EXACT_METHODS hold functions too
        namespaces += [v for ns in namespaces for v in ns.values() if isinstance(v, dict)]
        for module_name, qualname, name, counts, probe in TARGETS:
            module = sys.modules[f"permest.{module_name}"]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                original = vars(getattr(module, cls_name, object)).get(attr)
                if original is None:
                    continue  # a layer the package no longer has reports zero
                cls = getattr(module, cls_name)
                self._saved.append((cls, attr, original))
                setattr(cls, attr, self._wrap(original, name, counts, probe))
                continue
            original = getattr(module, qualname, None)
            if original is None:
                continue
            wrapper = self._wrap(original, name, counts, probe)
            for ns in namespaces:
                for key, value in list(ns.items()):
                    if value is original:
                        self._saved.append((ns, key, original))
                        ns[key] = wrapper

    def uninstall(self) -> None:
        while self._saved:
            owner, key, original = self._saved.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def layer_metrics(spans: list[Span], passes: int) -> dict[str, float]:
    """Per-pass self time and counts, and throughput, for every span name.

    For a span name (suffixed by ``.real``/``.complex`` when the span records
    the input kind) this yields ``.self_s`` (duration minus the part covered
    by child spans), ``.calls``, each count ``c`` per pass, and ``c_per_s``:
    the count over the summed duration of the calls that did work (calls
    answered from a cache are excluded).
    """
    child_time: dict[int, float] = defaultdict(float)
    child_rows: dict[int, int] = defaultdict(int)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
            if s.name in _BATCH_SPANS:
                child_rows[s.parent] += s.counts.get("rows", 0)
    totals: dict[str, float] = defaultdict(float)
    work_s: dict[str, float] = defaultdict(float)
    count_names: dict[str, set] = defaultdict(set)
    for s in spans:
        counts = dict(s.counts)
        key = s.name + (f".{counts.pop('kind')}" if "kind" in counts else "")
        if s.name in _SUPPORT_SPANS:
            counts["support_cells"] = child_rows[s.id]
        duration = s.end - s.start
        totals[f"{key}.self_s"] += duration - child_time[s.id]
        totals[f"{key}.calls"] += 1
        if not counts.get("cached"):
            work_s[key] += duration
        for c, v in counts.items():
            totals[f"{key}.{c}"] += v
            count_names[key].add(c)
    metrics = {name: value / passes for name, value in totals.items()}
    for key, names in count_names.items():
        for c in names:
            metrics[f"{key}.{c}_per_s"] = totals[f"{key}.{c}"] / work_s[key] if work_s[key] else 0.0
    hist = "binary_bias.support_histogram"
    if totals[f"{hist}.cells"]:
        metrics[f"{hist}.occupied_ratio"] = totals[f"{hist}.occupied"] / totals[f"{hist}.cells"]
    return metrics
