"""In-process tracer for lrdistill, installed from the benchmark only.

The tracer replaces public entry points of each lrdistill module with
wrappers that record a span (name, start, end, parent). Every module
attribute that binds a wrapped function gets the wrapper, so a call through
``cli.classify`` or ``sampling._saturation_search`` is seen as well as one
through ``distill``. ``numpy.linalg`` eigensolvers and ``svd`` are wrapped
with counters instead of spans, so ``hermitian_eig`` keeps LAPACK time as
its own. Spans live in flat arrays until the run ends.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

#: Span name -> (module, attribute). Class methods name the class.
SPANS = {
    "cli.main": ("cli", "main"),
    "kernels.hermitian_eig": ("kernels", "hermitian_eig"),
    "states.validate": ("states", "DensityMatrix.__post_init__"),
    "states.tripartite_build": ("states", "TripartitePureState.density_matrix"),
    "states.partial_trace": ("states", "partial_trace"),
    "states.is_ppt": ("states", "is_ppt"),
    "states.purify": ("states", "purify"),
    "states.entropy": ("states", "von_neumann_entropy"),
    "states.conditional_marginal": ("states", "conditional_marginal"),
    "distill.classify": ("distill", "classify"),
    "distill.separability": ("distill", "separability_verdict"),
    "distill.local_filter": ("distill", "local_filter"),
    "distill.low_rank_rate_bound": ("distill", "low_rank_rate_bound"),
    "distill.filtered_hashing_rate": ("distill", "filtered_hashing_rate"),
    "distill.find_one_way_witness": ("distill", "find_one_way_witness"),
    "distill.saturation_search": ("distill", "_saturation_search"),
    "sampling.run_experiment": ("sampling", "run_experiment"),
    "sampling.sample_pure": ("sampling", "sample_pure"),
    "channels.load": ("channels", "channel_from_dict"),
}

#: ``numpy.linalg`` functions counted (not spanned) while the tracer is installed.
COUNTED = ("eigh", "eigvalsh", "svd")
EIGENSOLVERS = ("eigh", "eigvalsh")


class _JsonProxy:
    """Stands in for the ``json`` module inside ``lrdistill.cli``."""

    def __init__(self, real, **overrides):
        self._real = real
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    """Spans and counts for calls made while installed.

    ``counts[(fn, span_name)]`` counts ``numpy.linalg.<fn>`` calls made
    while a span of that name was open; ``counts[(fn, None)]`` counts all.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.eig_n3 = 0
        self.eig_max_n = 0
        self.validate_max_dim = 0
        self.searches = 0
        self.searches_found = 0
        self.search_trials = 0
        self._patches: list[tuple[object, str, object]] = []

    # --- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        wrapper.__traced__ = fn
        return wrapper

    def _counted(self, fname: str, fn):
        counts, stack, name_id, names = self.counts, self._stack, self.name_id, self.names

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            counts[(fname, None)] += 1
            for nid in {name_id[i] for i in stack}:
                counts[(fname, names[nid])] += 1
            if fname in EIGENSOLVERS:
                n = int(np.shape(a)[-1])
                self.eig_n3 += n**3
                self.eig_max_n = max(self.eig_max_n, n)
            return fn(a, *args, **kwargs)

        wrapper.__traced__ = fn
        return wrapper

    def _after_validate(self, args, _result):
        self.validate_max_dim = max(self.validate_max_dim, args[0].matrix.shape[0])

    def _after_search(self, _args, result):
        phi, trials = result
        self.searches += 1
        self.searches_found += phi is not None
        self.search_trials += trials

    # --- install / uninstall ------------------------------------------------

    def install(self, package) -> "Tracer":
        """Wrap every binding of the traced functions in ``package``'s modules."""
        modules = _package_modules(package)
        after = {"states.validate": self._after_validate,
                 "distill.saturation_search": self._after_search}
        replacements = {}
        for name, (module, attr) in SPANS.items():
            owner = modules[module]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                self._patch(owner, attr, self._span(name, getattr(owner, attr), after.get(name)))
            else:
                fn = getattr(owner, attr)
                replacements[id(fn)] = (fn, self._span(name, fn, after.get(name)))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in replacements and value is replacements[id(value)][0]:
                    self._patch(mod, attr, replacements[id(value)][1])
        cli = modules["cli"]
        real_json = cli.json
        self._patch(cli, "json", _JsonProxy(
            real_json,
            load=self._span("cli.decode", real_json.load),
            dumps=self._span("cli.encode", real_json.dumps),
        ))
        for fname in COUNTED:
            self._patch(np.linalg, fname, self._counted(fname, getattr(np.linalg, fname)))
        return self

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # --- analysis -----------------------------------------------------------

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.start, self.end)]

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        out = self.durations()
        for idx, par in enumerate(self.parent):
            if par >= 0:
                out[par] -= self.end[idx] - self.start[idx]
        return out

    def span_count(self, name: str) -> int:
        nid = self._name_ids.get(name)
        return 0 if nid is None else sum(1 for i in self.name_id if i == nid)

    def inclusive(self, *names: str) -> float:
        """Seconds inside spans named ``names``, counting nested ones once."""
        ids = {self._name_ids[n] for n in names if n in self._name_ids}
        total = 0.0
        for idx, nid in enumerate(self.name_id):
            if nid in ids and not self._has_ancestor(idx, ids):
                total += self.end[idx] - self.start[idx]
        return total

    def self_time(self, name: str) -> float:
        nid = self._name_ids.get(name)
        return sum(t for t, i in zip(self.self_times(), self.name_id) if i == nid)

    def _has_ancestor(self, idx: int, ids: set) -> bool:
        par = self.parent[idx]
        while par >= 0:
            if self.name_id[par] in ids:
                return True
            par = self.parent[par]
        return False


def _package_modules(package) -> dict:
    prefix = package.__name__ + "."
    modules = {name[len(prefix):]: mod for name, mod in sys.modules.items()
               if name.startswith(prefix) and mod is not None}
    modules[""] = package
    return modules


def per_layer_metrics(tracer: Tracer, n_ops: int, output_bytes: int) -> dict:
    """Per-op layer metrics from one traced run of ``n_ops`` CLI calls.

    ``*_ms`` values are inclusive span time per op, nested spans of the same
    group counted once; ``kernels.hermitian_eig_ms`` and ``cli.self_ms`` are
    self times.
    """
    t = tracer

    def ms(seconds):
        return 1000.0 * seconds / n_ops

    def per_op(count):
        return count / n_ops

    samples = t.span_count("sampling.sample_pure")
    metrics = {
        "kernels.eigh_calls": (per_op(t.counts[("eigh", None)]), "count"),
        "kernels.eigvalsh_calls": (per_op(t.counts[("eigvalsh", None)]), "count"),
        "kernels.svd_calls": (per_op(t.counts[("svd", None)]), "count"),
        "kernels.eig_n3": (per_op(t.eig_n3), "count"),
        "kernels.eig_max_n": (t.eig_max_n, "count"),
        "kernels.hermitian_eig_ms": (ms(t.self_time("kernels.hermitian_eig")), "ms"),
        "states.validate_calls": (per_op(t.span_count("states.validate")), "count"),
        "states.validate_ms": (ms(t.inclusive("states.validate")), "ms"),
        "states.validate_max_dim": (t.validate_max_dim, "count"),
        "states.tripartite_builds": (per_op(t.span_count("states.tripartite_build")), "count"),
        "states.partial_trace_ms": (ms(t.inclusive("states.partial_trace")), "ms"),
        "states.is_ppt_ms": (ms(t.inclusive("states.is_ppt")), "ms"),
        "states.purify_ms": (ms(t.inclusive("states.purify")), "ms"),
        "states.entropy_ms": (ms(t.inclusive("states.entropy")), "ms"),
        "states.conditional_marginal_calls": (
            per_op(t.span_count("states.conditional_marginal")), "count"),
        "distill.classify_ms": (ms(t.inclusive("distill.classify")), "ms"),
        "distill.separability_ms": (ms(t.inclusive("distill.separability")), "ms"),
        "distill.filter_ms": (ms(t.inclusive(
            "distill.local_filter", "distill.low_rank_rate_bound",
            "distill.filtered_hashing_rate")), "ms"),
        "distill.witness_ms": (ms(t.inclusive(
            "distill.find_one_way_witness", "distill.saturation_search")), "ms"),
        "distill.witness_trials": (t.search_trials / max(t.searches, 1), "count"),
        "distill.witness_hit_ratio": (t.searches_found / max(t.searches, 1), "ratio"),
        "sampling.run_experiment_ms": (ms(t.inclusive("sampling.run_experiment")), "ms"),
        "sampling.per_sample_ms": (
            1000.0 * t.inclusive("sampling.run_experiment") / max(samples, 1), "ms"),
        "sampling.sample_pure_ms": (ms(t.inclusive("sampling.sample_pure")), "ms"),
        "channels.load_ms": (ms(t.inclusive("channels.load")), "ms"),
        "cli.decode_ms": (ms(t.inclusive("cli.decode")), "ms"),
        "cli.encode_ms": (ms(t.inclusive("cli.encode")), "ms"),
        "cli.output_bytes": (per_op(output_bytes), "B"),
        "cli.self_ms": (ms(t.self_time("cli.main")), "ms"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}

