"""Spans around the calls into each package module, recorded from outside.

``Tracer.install`` wraps the public functions listed in ``SPANS`` and
``COUNTED`` at every import site (the defining module and every
``girthforge`` module that bound the same object with ``from .x import``).
A wrapped call records a span (name, start, end, parent span, operation
id) in memory; ``Tracer.dump`` returns them with the counters for writing
out at the end.  ``layer_metrics`` turns a dump into the per-layer
metrics, using self time: a span's duration minus its child spans.

A listed function that no longer exists is reported absent, never as 0 s.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# span name -> (module, attribute); "Graph.from_edges" is a static method
SPANS = {
    "graph.parse_edge_list": ("graph", "parse_edge_list"),
    "graph.Graph.from_edges": ("graph", "Graph.from_edges"),
    "graph.check_family_free": ("graph", "check_family_free"),
    "graph.girth": ("graph", "girth"),
    "graph.girth_with_witness": ("graph", "girth_with_witness"),
    "hosts.incidence_graph_pg2": ("hosts", "incidence_graph_pg2"),
    "hosts.polarity_graph": ("hosts", "polarity_graph"),
    "hosts.greedy_high_girth": ("hosts", "greedy_high_girth"),
    "hosts.dense_subhost": ("hosts", "dense_subhost"),
    "hosts.bipartite_trim": ("hosts", "bipartite_trim"),
    "partition.max_kpartite": ("partition", "max_kpartite"),
    "edge_extract.extract_even_cycle_free": ("edge_extract", "extract_even_cycle_free"),
    "edge_extract.greedy_family_free": ("edge_extract", "greedy_family_free"),
    "edge_extract.split_and_bucket": ("edge_extract", "split_and_bucket"),
    "edge_extract.case1_extract": ("edge_extract", "case1_extract"),
    "edge_extract.case2_extract": ("edge_extract", "case2_extract"),
    "edge_extract.spanning_forest": ("edge_extract", "spanning_forest"),
    "edge_extract.star_fallback": ("edge_extract", "star_fallback"),
    "edge_extract.matching_fallback": ("edge_extract", "matching_fallback"),
    "edge_extract.h_prime": ("edge_extract", "h_prime"),
    "degree_extract.extract_spanning_high_girth": (
        "degree_extract",
        "extract_spanning_high_girth",
    ),
    "degree_extract.resample_until_clear": ("degree_extract", "resample_until_clear"),
    "degree_extract.edge_retention": ("degree_extract", "edge_retention"),
    "cli.main": ("cli", "main"),
}

# counted but not spanned, so their time stays in the caller's self time:
# name -> (module, attribute, counter)
COUNTED = {
    "degree_extract.find_bad_events": (
        "degree_extract",
        "find_bad_events",
        "bad_event_scans",
    ),
}

# cached public host constructors: builds and hits come from cache_info()
# when the function has one; otherwise every call is a build
HOST_BUILDERS = (
    "hosts.polarity_graph",
    "hosts.incidence_graph_pg2",
    "hosts.greedy_high_girth",
)

# metric -> spans whose self times it sums
SELF_TIME = {
    "graph.parse_s": ("graph.parse_edge_list",),
    "graph.build_s": ("graph.Graph.from_edges",),
    "graph.verify_s": ("graph.check_family_free",),
    "graph.girth_s": ("graph.girth", "graph.girth_with_witness"),
    "hosts.incidence_s": ("hosts.incidence_graph_pg2",),
    "hosts.polarity_s": ("hosts.polarity_graph",),
    "hosts.greedy_s": ("hosts.greedy_high_girth",),
    "hosts.dense_subhost_s": ("hosts.dense_subhost",),
    "hosts.trim_s": ("hosts.bipartite_trim",),
    "partition.kpartite_s": ("partition.max_kpartite",),
    "edge_extract.greedy_s": ("edge_extract.greedy_family_free",),
    "edge_extract.case_s": (
        "edge_extract.split_and_bucket",
        "edge_extract.case1_extract",
        "edge_extract.case2_extract",
    ),
    "edge_extract.fallback_s": (
        "edge_extract.spanning_forest",
        "edge_extract.star_fallback",
        "edge_extract.matching_fallback",
    ),
    "degree_extract.resample_s": ("degree_extract.resample_until_clear",),
    "degree_extract.retention_s": (
        "edge_extract.h_prime",
        "degree_extract.edge_retention",
    ),
}

# metric -> spans counted; girth calls made by girth() itself are not recounted
CALLS = {
    "graph.build_calls": ("graph.Graph.from_edges",),
    "graph.verify_calls": ("graph.check_family_free",),
    "graph.girth_calls": ("graph.girth", "graph.girth_with_witness"),
    "partition.kpartite_calls": ("partition.max_kpartite",),
}

# ratio metric -> (numerator counter, denominator counter); the
# denominators are reported as metrics of their own
RATIOS = {
    "edge_extract.greedy_keep_ratio": ("greedy_kept", "greedy_tried"),
    "edge_extract.case_win_ratio": ("case_wins", "extract_runs"),
    "degree_extract.clear_ratio": ("clear_trials", "resample_trials"),
}

# count metric -> counter
COUNTS = {
    "edge_extract.greedy_tried": "greedy_tried",
    "edge_extract.runs": "extract_runs",
    "degree_extract.trials": "resample_trials",
    "degree_extract.rounds": "resample_rounds",
    "degree_extract.bad_event_scans": "bad_event_scans",
    "hosts.builds": "host_builds",
    "hosts.cache_hits": "host_cache_hits",
}

# counter -> the functions it is read from
COUNTER_SOURCES = {
    "greedy_kept": ("edge_extract.greedy_family_free",),
    "greedy_tried": ("edge_extract.greedy_family_free",),
    "case_wins": ("edge_extract.extract_even_cycle_free",),
    "extract_runs": ("edge_extract.extract_even_cycle_free",),
    "clear_trials": ("degree_extract.resample_until_clear",),
    "resample_trials": ("degree_extract.resample_until_clear",),
    "resample_rounds": ("degree_extract.resample_until_clear",),
    "bad_event_scans": ("degree_extract.find_bad_events",),
    "host_builds": HOST_BUILDERS,
    "host_cache_hits": ("hosts.polarity_graph", "hosts.incidence_graph_pg2"),
}


def _on_greedy(counters, args, kwargs, result):
    counters["greedy_tried"] += args[0].m
    counters["greedy_kept"] += result.m


def _on_extract_edges(counters, args, kwargs, result):
    counters["extract_runs"] += 1
    counters["case_wins"] += result[1].method in ("case1", "case2")


def _on_resample(counters, args, kwargs, result):
    counters["resample_trials"] += 1
    counters["resample_rounds"] += result.rounds
    counters["clear_trials"] += not result.degraded


_HOOKS = {
    "edge_extract.greedy_family_free": _on_greedy,
    "edge_extract.extract_even_cycle_free": _on_extract_edges,
    "degree_extract.resample_until_clear": _on_resample,
}


def _resolve(module, attr):
    """(owner, attribute name, original callable) or None if absent."""
    if "." in attr:
        cls_name, meth = attr.split(".")
        owner = getattr(module, cls_name, None)
        raw = getattr(owner, "__dict__", {}).get(meth)
        if isinstance(raw, staticmethod):
            return owner, meth, raw.__func__
        return None
    fn = getattr(module, attr, None)
    return (module, attr, fn) if callable(fn) else None


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.op = 0
        self.counters = {name: 0 for name in COUNTER_SOURCES}
        self.calls = {name: 0 for name in HOST_BUILDERS}
        self.missing: dict[str, str] = {}
        self.broken: dict[str, str] = {}
        self.sites: dict[str, list[str]] = {}
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._cached: dict[str, object] = {}
        self._cache_start: dict[str, tuple[int, int]] = {}

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function at every import site."""
        targets = [(n, mod, attr, None) for n, (mod, attr) in SPANS.items()]
        targets += [(n, *t) for n, t in COUNTED.items()]
        for name, short, attr, counter in targets:
            try:
                module = importlib.import_module(f"girthforge.{short}")
            except ImportError:
                module = None
            found = _resolve(module, attr) if module is not None else None
            if found is None:
                self.missing[name] = f"girthforge.{short}.{attr} not found"
                continue
            owner, key, orig = found
            wrapper = self._wrap(name, orig, counter)
            if owner is not module:  # static method on a class
                self._restore.append((owner, key, owner.__dict__[key]))
                setattr(owner, key, staticmethod(wrapper))
                self.sites[name] = [f"{short}.{attr}"]
                continue
            self.sites[name] = []
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (
                    mod_name == "girthforge" or mod_name.startswith("girthforge.")
                ):
                    continue
                for bound, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, bound, orig))
                        setattr(mod, bound, wrapper)
                        self.sites[name].append(f"{mod_name}.{bound}")
            if name in HOST_BUILDERS and hasattr(orig, "cache_info"):
                self._cached[name] = orig
        self._cache_start = {
            name: tuple(fn.cache_info()[:2]) for name, fn in self._cached.items()
        }

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def _wrap(self, name, orig, counter):
        """A counting wrapper when ``counter`` is set, else a span wrapper."""
        hook = _HOOKS.get(name)
        spans, stack, counters = self.spans, self._stack, self.counters

        if counter is not None:

            @functools.wraps(orig)
            def counted(*args, **kwargs):
                counters[counter] += 1
                return orig(*args, **kwargs)

            return counted

        @functools.wraps(orig)
        def spanned_call(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1:3] = start, end
            if name in self.calls:
                self.calls[name] += 1
            if hook is not None and name not in self.broken:
                try:
                    hook(counters, args, kwargs, result)
                except (AttributeError, IndexError, TypeError) as exc:
                    self.broken[name] = f"cannot read the result: {exc!r}"
            return result

        return spanned_call

    # -- output ------------------------------------------------------------

    def dump(self) -> dict:
        """Spans and counters as plain JSON-ready data."""
        counters = dict(self.counters)
        builds = hits = 0
        for name in HOST_BUILDERS:
            fn = self._cached.get(name)
            if fn is None:
                builds += self.calls[name]
                continue
            h0, m0 = self._cache_start[name]
            h1, m1 = fn.cache_info()[:2]
            hits += h1 - h0
            builds += m1 - m0
        counters["host_builds"] = builds
        counters["host_cache_hits"] = hits
        return {
            "spans": self.spans,
            "counters": counters,
            "missing": self.missing,
            "broken": self.broken,
            "sites": self.sites,
        }


def self_times(spans) -> dict[str, tuple[float, int]]:
    """span name -> (total self time in s, call count)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, list] = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        entry = out.setdefault(name, [0.0, 0])
        entry[0] += end - start - child[i]
        entry[1] += 1
    return {k: (v[0], v[1]) for k, v in out.items()}


def _absent_reason(doc, functions):
    for fn in functions:
        if fn in doc["missing"]:
            return doc["missing"][fn]
        if fn in doc["broken"]:
            return f"{fn}: {doc['broken'][fn]}"
    return None


def layer_metrics(doc) -> dict[str, dict]:
    """Per-layer metrics from a ``Tracer.dump``; absent ones carry a reason."""
    times = self_times(doc["spans"])
    counters = doc["counters"]
    names = [s[0] for s in doc["spans"]]
    parents = [s[3] for s in doc["spans"]]
    metrics: dict[str, dict] = {}

    def put(metric, unit, functions, value):
        reason = _absent_reason(doc, functions)
        if reason is None:
            metrics[metric] = {"value": value, "unit": unit}
        else:
            metrics[metric] = {"value": None, "unit": unit, "absent": reason}

    for metric, fns in SELF_TIME.items():
        put(metric, "s", fns, sum(times.get(f, (0.0, 0))[0] for f in fns))
    for metric, fns in CALLS.items():
        count = sum(
            1
            for name, parent in zip(names, parents)
            if name in fns and not (parent >= 0 and names[parent] == "graph.girth")
        )
        put(metric, "count", fns, count)
    for metric, (num, den) in RATIOS.items():
        base = counters[den]
        put(
            metric,
            "ratio",
            COUNTER_SOURCES[num],
            counters[num] / base if base else 0.0,
        )
    for metric, counter in COUNTS.items():
        put(metric, "count", COUNTER_SOURCES[counter], counters[counter])
    return metrics
