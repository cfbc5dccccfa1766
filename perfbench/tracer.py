"""Outside-in tracer: per-layer self time and counts for lowrank-rep.

The layers are the package's modules.  `Tracer.install` wraps every public
function of each layer (the non-underscore functions defined in the module)
and rebinds the wrapper in every `lowrank_rep` module namespace that holds
the original, because `from .x import f` binds `f` in the caller as well.
Nothing in the program changes; `uninstall` restores the originals.

Each call is a span (name, start, end, parent).  Self time is a span's
duration minus the time its child spans cover; it is accumulated as spans
close, so a long run keeps only the aggregates.  The spans of the first
traced job are kept in memory and written out with `write_spans`.

Named functions that the per-layer metrics refer to but that the program no
longer defines are reported in `lost`, and their metrics read -1 rather
than 0, so a refactor shows up as lost coverage.
"""

import functools
import inspect
import json
import sys
import time
from collections import Counter

PACKAGE = "lowrank_rep"
LAYERS = (
    "rngs",
    "matkit",
    "cayley",
    "symrep",
    "rectrep",
    "cluster",
    "sbm",
    "gaussnewton",
    "bicluster",
    "mc",
    "spiked",
    "cli",
)
# functions whose self time is a per-layer metric; their layer's share of
# a workload is noted in README.md
NAMED = {
    "sbm": (
        "block_counts",
        "sample_adjacency",
        "spectral_cluster_sbm",
        "sbm_fisher",
        "block_mean_estimator",
    ),
    "cluster": ("kmeans",),
    "rngs": ("substream",),
    "bicluster": ("sample_data", "spectral_cocluster", "block_means"),
    "gaussnewton": ("refine_least_squares",),
    "rectrep": ("dsigma_rect", "theta_of_sigma_rect", "regularity_bound_rect"),
    "symrep": ("dsigma", "theta_of_sigma", "regularity_bounds"),
    "cayley": ("cayley_map", "cayley_jacobian", "gamma_matrix"),
    "matkit": ("kron", "commutation_matrix", "spectral_norm"),
    "spiked": ("fisher_spiked", "limit_posterior", "gamma_mc"),
    "mc": ("summarize_replicates", "sqrt_psd"),
    "cli": ("run",),
}
# functions whose call count is also a per-layer metric
COUNTED = (
    "cluster.kmeans",
    "rngs.substream",
    "gaussnewton.refine_least_squares",
    "cayley.cayley_map",
)
# dense matrix constructors whose result bytes are summed into dense_bytes
DENSE = (
    "matkit.kron",
    "matkit.commutation_matrix",
    "matkit.duplication_matrix",
    "matkit.duplication_pinv",
)
# exception classes counted by name; the rest go to errors.other.count
ERROR_CLASSES = (
    "NumericsError",
    "DomainViolation",
    "TopBlockNotPD",
    "RankMismatch",
    "DegenerateTopBlock",
    "NotPositiveDefinite",
    "SingularGram",
    "SingularFisher",
    "ProjectionFailed",
    "EmptyBlock",
    "ConfigError",
)
SPAN_CAP = 200_000
LOST = -1.0


def per_layer_metrics():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for layer in LAYERS:
        out.append((f"{layer}.self_ms", "ms/unit"))
        for fn in NAMED.get(layer, ()):
            out.append((f"{layer}.{fn}.self_ms", "ms/unit"))
            if f"{layer}.{fn}" in COUNTED:
                out.append((f"{layer}.{fn}.calls", "count/unit"))
    out += [
        ("cluster.exact_recovery", "ratio"),
        ("gaussnewton.iterations", "count/unit"),
        ("gaussnewton.converged_ratio", "ratio"),
        ("matkit.dense_bytes", "bytes/unit"),
        ("spiked.gamma_mc.hit_ratio", "ratio"),
        ("cli.csv_bytes", "bytes/unit"),
    ]
    out += [(f"errors.{name}.count", "count/unit") for name in ERROR_CLASSES]
    out += [("errors.other.count", "count/unit"), ("trace.overhead_pct", "%")]
    return out


class Tracer:
    """Wraps the program's public functions and aggregates their spans."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.total_s = Counter()
        self.errors = Counter()
        self.counters = Counter()  # facts read from arguments and results
        self.spans = []
        self.keep_spans = False
        self.lost = []
        self._stack = []  # per open span: [child seconds, span index]
        self._seen_errors = []
        self._patches = []
        self._wrappers = {}

    # -----------------------------------------------------------------
    # installing and removing the wrappers
    # -----------------------------------------------------------------

    def discover(self):
        """Map each layer's public functions to their qualified names."""
        found = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == module.__name__
                ):
                    found[obj] = f"{layer}.{attr}"
        names = set(found.values())
        self.lost = sorted(
            f"{layer}.{fn}"
            for layer, fns in NAMED.items()
            for fn in fns
            if f"{layer}.{fn}" not in names
        )
        return found

    def install(self):
        if not self._wrappers:
            self._wrappers = {
                fn: self._wrap(name, fn) for fn, name in self.discover().items()
            }
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = self._wrappers.get(obj) if callable(obj) else None
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, obj))

    def uninstall(self):
        while self._patches:
            module, attr, obj = self._patches.pop()
            setattr(module, attr, obj)

    def _wrap(self, name, fn):
        observe = _OBSERVERS.get(name)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = -1
            if self.keep_spans and len(spans) < SPAN_CAP:
                span = len(spans)
                spans.append([name, 0.0, 0.0, stack[-1][1] if stack else -1])
            frame = [0.0, span]
            stack.append(frame)
            before = observe.before() if observe else None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._count_error(exc)
                raise
            finally:
                t1 = clock()
                stack.pop()
                duration = t1 - t0
                self.calls[name] += 1
                self.self_s[name] += duration - frame[0]
                self.total_s[name] += duration
                if stack:
                    stack[-1][0] += duration
                if span >= 0:
                    spans[span][1:3] = [t0, t1]
            if observe:
                observe.after(self.counters, before, result)
            return result

        return traced

    def _count_error(self, exc):
        # count each exception once, where it first escapes a traced call
        if any(exc is seen for seen in self._seen_errors):
            return
        self._seen_errors.append(exc)
        cls = type(exc)
        key = cls.__name__
        if key not in ERROR_CLASSES or not cls.__module__.startswith(PACKAGE):
            key = "other"
        self.errors[key] += 1

    def end_job(self):
        """Forget per-job state: exceptions seen and span recording."""
        self._seen_errors.clear()
        self.keep_spans = False

    # -----------------------------------------------------------------
    # results
    # -----------------------------------------------------------------

    def metrics(self, units, extra):
        """Per-layer metrics per unit.  `extra` holds the values the
        benchmark measured outside the program (exact recovery, CSV bytes,
        tracing overhead)."""
        units = max(units, 1)
        layer_self = Counter()
        for name, seconds in self.self_s.items():
            layer_self[name.split(".", 1)[0]] += seconds
        lost = set(self.lost)
        values = {}
        for layer in LAYERS:
            values[f"{layer}.self_ms"] = 1e3 * layer_self[layer] / units
            for fn in NAMED.get(layer, ()):
                name = f"{layer}.{fn}"
                gone = name in lost
                values[f"{name}.self_ms"] = (
                    LOST if gone else 1e3 * self.self_s[name] / units
                )
                if name in COUNTED:
                    values[f"{name}.calls"] = (
                        LOST if gone else self.calls[name] / units
                    )
        gn_calls = self.calls["gaussnewton.refine_least_squares"]
        gamma_calls = self.counters["gamma_hits"] + self.counters["gamma_misses"]
        gn_lost = self.counters["gn_untracked"] > 0
        values["gaussnewton.iterations"] = (
            LOST if gn_lost else self.counters["gn_iterations"] / units
        )
        values["gaussnewton.converged_ratio"] = (
            LOST if gn_lost else _ratio(self.counters["gn_converged"], gn_calls)
        )
        values["matkit.dense_bytes"] = self.counters["dense_bytes"] / units
        values["spiked.gamma_mc.hit_ratio"] = (
            LOST
            if self.counters["gamma_untracked"]
            else _ratio(self.counters["gamma_hits"], gamma_calls)
        )
        for name in (*ERROR_CLASSES, "other"):
            values[f"errors.{name}.count"] = self.errors[name] / units
        values.update(extra)
        return values

    def write_spans(self, path):
        """Write the recorded spans as JSON: name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent"],
                    "spans": self.spans,
                },
                fh,
            )


def _ratio(num, den):
    # a ratio with nothing to count reads 0
    return num / den if den else 0.0


# ---------------------------------------------------------------------
# facts read at a traced call's boundary
# ---------------------------------------------------------------------


class _Observer:
    def before(self):
        return None

    def after(self, counters, before, result):
        raise NotImplementedError


class _GaussNewtonInfo(_Observer):
    """Iterations and convergence from refine_least_squares' info dict."""

    def after(self, counters, before, result):
        try:
            info = result[1]
            iterations = int(info["iterations"])
            converged = bool(info["converged"])
        except (LookupError, TypeError, ValueError):
            counters["gn_untracked"] += 1  # the result changed shape
            return
        counters["gn_iterations"] += iterations
        counters["gn_converged"] += int(converged)


class _DenseBytes(_Observer):
    """Bytes of a dense matrix a constructor returned."""

    def after(self, counters, before, result):
        counters["dense_bytes"] += int(getattr(result, "nbytes", 0))


class _GammaCache(_Observer):
    """Hit or miss of gamma_mc's cache, read from the cache's size."""

    @staticmethod
    def _cache():
        return getattr(sys.modules.get(f"{PACKAGE}.spiked"), "_GAMMA_CACHE", None)

    def before(self):
        cache = self._cache()
        return None if cache is None else len(cache)

    def after(self, counters, before, result):
        cache = self._cache()
        if before is None or cache is None:
            counters["gamma_untracked"] += 1
        elif len(cache) > before:
            counters["gamma_misses"] += 1
        else:
            counters["gamma_hits"] += 1


_OBSERVERS = {
    "gaussnewton.refine_least_squares": _GaussNewtonInfo(),
    "spiked.gamma_mc": _GammaCache(),
    **{name: _DenseBytes() for name in DENSE},
}
