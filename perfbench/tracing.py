"""Span recorder for the traced benchmark run.

Spans are recorded from outside the library: each public function is
replaced, for the length of the traced pass, by a wrapper installed under
the name its caller looks it up by (``mvcca.affinity.knn_search`` is what
``gaussian_affinity`` and ``affinity_rows`` call, ``mvcca.plcca.knn_search``
what ``nw_regress`` calls). A span holds its name, the lookup site, start,
end and the index of its parent span. Spans stay in memory until the run
writes them out. A function that a later version of the library no longer
has is listed as absent; its layer metrics then read zero.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# (module, attribute, span name). The mvcca.* attributes are what the
# benchmark itself calls; the rest are lookups inside the library.
PATCH_POINTS = (
    ("mvcca", "ncca_fit", "ncca.fit"),
    ("mvcca", "ncca_project_x", "ncca.project"),
    ("mvcca", "ncca_project_y", "ncca.project"),
    ("mvcca", "plcca_fit", "plcca.fit"),
    ("mvcca", "plcca_project_x", "plcca.project"),
    ("mvcca", "plcca_project_y", "plcca.project"),
    ("mvcca", "cca_fit", "cca.fit"),
    ("mvcca", "total_correlation", "metrics.total_correlation"),
    ("mvcca", "save_model", "dataio.save_model"),
    ("mvcca", "load_model", "dataio.load_model"),
    ("mvcca.affinity", "knn_search", "neighbors.knn_search"),
    ("mvcca.plcca", "knn_search", "neighbors.knn_search"),
    ("mvcca.ncca", "gaussian_affinity", "affinity.gaussian_affinity"),
    ("mvcca.ncca", "normalize_right_stochastic", "affinity.normalize"),
    ("mvcca.ncca", "normalize_left_stochastic", "affinity.normalize"),
    ("mvcca.ncca", "affinity_rows", "affinity.affinity_rows"),
    ("mvcca.ncca", "spgemm", "linalg.spgemm"),
    ("mvcca.ncca", "truncated_svd", "linalg.truncated_svd"),
    ("mvcca.ncca", "dense_svd", "linalg.dense_svd"),
    ("mvcca.ncca", "pca_fit", "linalg.pca"),
    ("mvcca.ncca", "pca_apply", "linalg.pca"),
    ("mvcca.plcca", "nw_regress", "plcca.nw_regress"),
    ("mvcca.plcca", "inv_sqrt_psd", "linalg.inv_sqrt_psd"),
    ("mvcca.plcca", "sym_eig", "linalg.sym_eig"),
    ("mvcca.plcca", "pca_apply", "linalg.pca"),
    ("mvcca.cca", "inv_sqrt_psd", "linalg.inv_sqrt_psd"),
    ("mvcca.cca", "dense_svd", "linalg.dense_svd"),
    ("mvcca.metrics", "cca_fit", "cca.fit"),
)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# Per span name: metric counts computed from a call's arguments or result
# (not read from library internals), summed over calls.
COUNTERS = {
    "neighbors.knn_search": lambda a, k, r: {
        "neighbors.knn_search.pairs": len(_arg(a, k, 0, "reference")) * len(_arg(a, k, 1, "queries"))
    },
    "affinity.gaussian_affinity": lambda a, k, r: {"affinity.nnz": r.nnz},
    "linalg.spgemm": lambda a, k, r: {"linalg.spgemm.nnz_out": r.nnz},
}


class Tracer:
    """Context manager: wraps the patch points on entry and restores them on exit."""

    def __init__(self):
        self.spans = []  # [name, site, start, end, parent index or -1]
        self.counts = defaultdict(int)
        self.absent = []
        self._stack = []
        self._saved = []

    def __enter__(self):
        self.absent = []
        for modname, attr, name in PATCH_POINTS:
            module = importlib.import_module(modname)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{modname}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, f"{modname}.{attr}"))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved = []
        return False

    def _wrap(self, fn, name, site):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, site, time.perf_counter(), None, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if count:
                for key, value in count(args, kwargs, result).items():
                    self.counts[key] += value
            return result

        return traced

    def totals(self):
        """Per span name: calls, busy seconds (outermost spans) and self seconds."""
        child = [0.0] * len(self.spans)
        for name, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for i, (name, _, start, end, parent) in enumerate(self.spans):
            t = out[name]
            t["calls"] += 1
            t["self_s"] += end - start - child[i]
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][4]
            if parent < 0:
                t["busy_s"] += end - start
        return out

    def root_seconds(self):
        return sum(end - start for _, _, start, end, parent in self.spans if parent < 0)

    def dump(self):
        """Spans as JSON-ready records, times relative to the first span."""
        t0 = self.spans[0][2] if self.spans else 0.0
        return [
            {"name": n, "site": s, "start": a - t0, "end": b - t0, "parent": p}
            for n, s, a, b, p in self.spans
        ]
