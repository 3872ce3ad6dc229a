"""In-memory span tracer that wraps cqforest's public functions from outside.

A probe replaces a public function with a wrapper that records one span
per call: (id, name, start, end, parent id, region, info). The wrapper
is installed on the module that defines the function and on every other
cqforest module that imported the same object by name, so calls between
modules are seen too; nothing inside cqforest is edited, and
``installed()`` puts the original objects back on exit.

A probe whose function no longer exists is skipped, and the metrics
built on it are absent. Spans are kept in a list and written out by the
caller when the run ends. Parents are tracked per thread, so a call made
on a worker thread of a pool is recorded with no parent.
"""

import itertools
import os
import sys
import threading
import time
from contextlib import contextmanager


def _forest_shape(forest):
    """Node and leaf totals and the deepest leaf of a fitted forest."""
    nodes = leaves = depth = 0
    for tree in forest.trees:
        feature, left, right = tree.feature, tree.left, tree.right
        nodes += len(feature)
        level = [0]
        d = 0
        while level:
            d += 1
            nxt = []
            for nid in level:
                if feature[nid] < 0:
                    leaves += 1
                else:
                    nxt.append(int(left[nid]))
                    nxt.append(int(right[nid]))
            level = nxt
        depth = max(depth, d - 1)
    return {"nodes": nodes, "leaves": leaves, "max_depth": depth}


def _predictions_info(result):
    """Counts read from the QuantilePrediction fields of a result."""
    if result and isinstance(result[0], list):
        preds = [p for per_point in result for p in per_point]
    else:
        preds = list(result)
    return {
        "predictions": len(preds),
        "candidates": sum(p.candidate_count for p in preds),
        "degenerate": sum(bool(p.degenerate_tail) for p in preds),
    }


def _cli_info(args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv")
    return {"command": argv[0] if argv else None}


# (module, public name, hook(args, kwargs, result) -> info dict or None)
PROBES = (
    ("data", "simulate", None),
    ("data", "detect_schema", None),
    ("data", "load_csv", None),
    ("data", "load_features_csv", None),
    ("forest", "fit", lambda a, k, r: _forest_shape(r)),
    ("forest", "save_forest", lambda a, k, r: {"bytes": os.path.getsize(a[1] if len(a) > 1 else k["path"])}),
    ("forest", "load_forest", None),
    ("forest", "apply", None),
    ("forest", "weight_matrix", None),
    ("forest", "forest_weights", None),
    ("forest", "WeightVector.from_dense", lambda a, k, r: {"nnz": int(r.index.size)}),
    ("forest", "quantile_from_weights", None),
    ("survival", "beran_rf", None),
    ("survival", "km_knn", None),
    ("estimator", "predict_batch", lambda a, k, r: _predictions_info(r)),
    ("estimator", "predict_quantiles", lambda a, k, r: _predictions_info(r)),
    ("estimator", "predict_with_weights", lambda a, k, r: _predictions_info(r)),
    ("metrics", "c_index", None),
    ("metrics", "quantile_losses", None),
    ("bench", "run", None),
    ("cli", "main", _cli_info),
)


FIELDS = ("id", "name", "start", "end", "parent", "run", "info")


class Tracer:
    """Records spans while installed; ``region`` labels what is being run."""

    def __init__(self):
        self.spans = []
        self.region = None
        self.missing = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches = self._plan("cqforest")

    def _wrap(self, name, fn, hook):
        tracer = self

        def probe(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            info = None
            if hook is not None:
                try:
                    info = hook(args, kwargs, result)
                except (AttributeError, TypeError, IndexError, KeyError, OSError):
                    info = None  # the object no longer has the shape the hook reads
            tracer.spans.append((sid, name, start, end, parent, tracer.region, info))
            return result

        probe.__wrapped__ = fn
        return probe

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _plan(self, package):
        modules = [m for n, m in sys.modules.items() if m is not None and (n == package or n.startswith(package + "."))]
        patches = []
        for modname, qual, hook in PROBES:
            mod = sys.modules.get(f"{package}.{modname}")
            name = f"{modname}.{qual}"
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name, None)
                desc = vars(cls).get(meth) if isinstance(cls, type) else None
                if not isinstance(desc, classmethod):
                    self.missing.append(name)
                    continue
                patches.append((cls, meth, desc, classmethod(self._wrap(name, desc.__func__, hook))))
                continue
            fn = getattr(mod, qual, None)
            if not callable(fn):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, fn, hook)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        patches.append((m, attr, fn, wrapper))
        return patches

    @contextmanager
    def installed(self, region):
        """Probe every planned function while running ``region``."""
        self.region = region
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)
            self.region = None

    def select(self, name, regions):
        return [s for s in self.spans if s[1] == name and s[5] in regions]

    def total(self, name, regions):
        """Inclusive seconds spent in ``name`` within ``regions``."""
        return sum(s[3] - s[2] for s in self.select(name, regions))

    def has(self, name):
        return name not in self.missing

    def info_values(self, name, key, regions):
        return [s[6][key] for s in self.select(name, regions) if s[6] and s[6].get(key) is not None]

    def self_time(self, name, regions):
        """``name``'s inclusive time minus the time of its direct children."""
        own = {s[0]: s[3] - s[2] for s in self.select(name, regions)}
        children = sum(s[3] - s[2] for s in self.spans if s[4] in own)
        return sum(own.values()) - children

    def records(self):
        """Spans as JSON-ready rows of FIELDS, in end-time order."""
        return {"fields": FIELDS, "rows": self.spans}
