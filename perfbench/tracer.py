"""Span recorder for the traced benchmark run.

The tracer wraps corrsync's public functions at the names their callers look
them up by, so no program code changes. Each call becomes a span with a name,
start, end, parent span, workload, shape pair and, when it raised, the
exception class. Calls too frequent for a span each (geodesic row lookups and
Dijkstra rows) only add counts and time to the innermost open span.

Single-threaded by design: the workloads run one client with threads=1, and
the open-span stack is not shared between threads.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import time
import types

import numpy as np


def count_chains(F: np.ndarray, i: int, j: int, D: np.ndarray) -> int:
    """Number of source->target chains of a flow graph, by a path-count DP.

    Every flow edge m -> n has D[i, m] < D[i, n], so visiting vertices by
    increasing distance from i is a topological order.
    """
    counts = [0] * F.shape[0]
    counts[i] = 1
    for v in np.argsort(D[i], kind="stable"):
        if counts[v]:
            for u in np.flatnonzero(F[v]):
                counts[u] += counts[v]
    return counts[j]


def _pair_from_args(args, kwargs):
    src = kwargs.get("source_id", args[1] if len(args) > 1 else None)
    tgt = kwargs.get("target_id", args[2] if len(args) > 2 else None)
    return None if src is None or tgt is None else f"{src}->{tgt}"


def _flow_counts(result, args, kwargs):
    return {"edges": int(result.F.sum())}


def _enumerate_counts(result, args, kwargs):
    flow = args[0]
    every = count_chains(flow.F, flow.source, flow.target, flow.D)
    return {"chains": len(result), "chains_pruned": every - len(result)}


def _propagate_counts(result, args, kwargs):
    rows = len(result.rows)
    return {"rows": rows, "row_pushes": rows * result.path_count}


def _score_counts(result, args, kwargs):
    return {"scored": int(np.asarray(result).size)}


def _load_counts(result, args, kwargs):
    rows = 0
    for m in result.maps.values():
        rows += m.n_source if m.kind == "discrete" else int(m.matrix.nnz)
    return {"map_rows": rows}


def _one_build(result, args, kwargs):
    return {"builds": 1}


_ROUTE = ("direct_propagate", "mst_propagate", "shortest_path_propagate")

# (module, attribute, span name, pair extractor, counter)
TARGETS = [
    ("corrsync.soft", "directed_flow_matrix", "flow.build", None, _flow_counts),
    ("corrsync.soft", "enumerate_paths", "flow.enumerate", None, _enumerate_counts),
    *[
        (mod, "propagate_soft", "soft.propagate", _pair_from_args, _propagate_counts)
        for mod in ("corrsync.soft", "corrsync.benchmark", "corrsync.cli")
    ],
    ("corrsync.soft", "mle", "soft.mle", None, None),
    ("corrsync.benchmark", "mle", "soft.mle", None, None),
    ("corrsync.soft", "frechet_mean", "soft.frechet", None, None),
    ("corrsync.benchmark", "frechet_mean", "soft.frechet", None, None),
    ("corrsync.collection", "intra_metric", "collection.oracle_build", None, _one_build),
    ("corrsync.collection", "save_collection", "collection.save", None, None),
    ("corrsync.cli", "load_collection", "collection.load", None, _load_counts),
    ("corrsync.benchmark", "synth_collection", "benchmark.synth", None, None),
    ("corrsync.benchmark", "corrupt_maps", "benchmark.corrupt", None, None),
    ("corrsync.benchmark", "geodesic_errors", "benchmark.score", None, _score_counts),
    *[
        (mod, name, "baselines.route", _pair_from_args, None)
        for mod in ("corrsync.benchmark", "corrsync.cli")
        for name in _ROUTE
    ],
]


class Tracer:
    """In-memory span recorder; spans are plain dicts, written out at the end."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self._open: list[dict] = []
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def start(self, name: str, pair: str | None = None) -> dict:
        parent = self._open[-1] if self._open else None
        if pair is None and parent is not None:
            pair = parent["pair"]
        span = {
            "id": self._next_id,
            "parent": None if parent is None else parent["id"],
            "name": name,
            "workload": self.workload,
            "pair": pair,
            "start": time.perf_counter(),
            "end": None,
            "exc": None,
            "counts": {},
        }
        self._next_id += 1
        self._open.append(span)
        return span

    def finish(self, span: dict, exc: BaseException | None = None) -> None:
        span["end"] = time.perf_counter()
        if exc is not None:
            span["exc"] = type(exc).__name__
        popped = self._open.pop()
        if popped is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str, pair: str | None = None):
        """Context manager around start/finish; yields the span dict."""
        span = self.start(name, pair)
        try:
            yield span
        except BaseException as exc:
            self.finish(span, exc)
            raise
        self.finish(span)

    def add(self, **counts) -> None:
        """Add counts to the innermost open span (dropped when none is open)."""
        if self._open:
            c = self._open[-1]["counts"]
            for k, v in counts.items():
                c[k] = c.get(k, 0) + v

    def adopt(self, spans: list[dict], parent: dict) -> None:
        """Attach spans recorded in a child process under an open span of ours."""
        remap = {s["id"]: self._next_id + n for n, s in enumerate(spans)}
        self._next_id += len(spans)
        for s in spans:
            s = dict(s, id=remap[s["id"]])
            s["parent"] = parent["id"] if s["parent"] is None else remap[s["parent"]]
            self.spans.append(s)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")

    # -- wrapping ---------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every target at its lookup site, plus the hot row counters."""
        # import everything first: a module imported after a patch would bind
        # the wrapper, and wrapping its name again would nest two spans
        mods = {m: importlib.import_module(m) for m, *_ in TARGETS}
        for mod_name, attr, name, pair_of, counter in TARGETS:
            mod = mods[mod_name]
            self._patch(mod, attr, self._wrap(getattr(mod, attr), name, pair_of, counter))

        collection = importlib.import_module("corrsync.collection")
        oracle_cls = collection.GeodesicOracle
        rows_from = oracle_cls.distances_from
        tracer = self

        @functools.wraps(rows_from)
        def distances_from(oracle, v):
            tracer.add(rows_requested=1)
            return rows_from(oracle, v)

        self._patch(oracle_cls, "distances_from", distances_from)

        # collection.py calls csgraph.dijkstra through its module reference;
        # give it a view of csgraph whose dijkstra counts and times rows
        real = collection.csgraph
        view = types.SimpleNamespace(**{k: getattr(real, k) for k in dir(real) if not k.startswith("__")})

        def dijkstra(*args, **kwargs):
            t0 = time.perf_counter()
            out = real.dijkstra(*args, **kwargs)
            rows = 1 if np.ndim(out) == 1 else int(np.shape(out)[0])
            tracer.add(rows_computed=rows, row_s=time.perf_counter() - t0)
            return out

        view.dijkstra = dijkstra
        self._patch(collection, "csgraph", view)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, pair_of, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name, pair_of(args, kwargs) if pair_of else None) as span:
                result = fn(*args, **kwargs)
            if counter is not None:
                for k, v in counter(result, args, kwargs).items():
                    span["counts"][k] = span["counts"].get(k, 0) + v
            return result

        return wrapper


# ---------------------------------------------------------------------------
# per-layer metrics

# name -> (unit, better); the benchmark's per_layer list mirrors this table
LAYER_METRICS = {
    "bench.cmd_s": ("s", "lower"),
    "cli.start_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.out_bytes": ("B", "lower"),
    "collection.load_s": ("s", "lower"),
    "collection.map_rows": ("count", "lower"),
    "collection.save_s": ("s", "lower"),
    "collection.oracle_build_s": ("s", "lower"),
    "collection.oracle_builds": ("count", "lower"),
    "collection.rows_requested": ("count", "lower"),
    "collection.rows_computed": ("count", "lower"),
    "collection.row_s": ("s", "lower"),
    "collection.row_hit_rate": ("ratio", "higher"),
    "flow.build_s": ("s", "lower"),
    "flow.edges": ("count", "lower"),
    "flow.enumerate_s": ("s", "lower"),
    "flow.chains": ("count", "lower"),
    "flow.chains_max": ("count", "lower"),
    "flow.chains_pruned": ("count", "higher"),
    "soft.propagate_self_s": ("s", "lower"),
    "soft.rows": ("count", "lower"),
    "soft.row_pushes": ("count", "lower"),
    "soft.mle_s": ("s", "lower"),
    "soft.frechet_s": ("s", "lower"),
    "baselines.route_s": ("s", "lower"),
    "benchmark.synth_s": ("s", "lower"),
    "benchmark.corrupt_s": ("s", "lower"),
    "benchmark.score_s": ("s", "lower"),
    "benchmark.scored": ("count", "lower"),
}

# span name -> metric that sums its inclusive duration
_DURATIONS = {
    "flow.build": "flow.build_s",
    "flow.enumerate": "flow.enumerate_s",
    "soft.mle": "soft.mle_s",
    "soft.frechet": "soft.frechet_s",
    "collection.oracle_build": "collection.oracle_build_s",
    "collection.load": "collection.load_s",
    "baselines.route": "baselines.route_s",
    "benchmark.score": "benchmark.score_s",
}
# span name -> metric that sums its self time
_SELF = {"soft.propagate": "soft.propagate_self_s", "cli.main": "cli.self_s"}
# count key -> metric that sums it
_COUNTS = {
    "edges": "flow.edges",
    "chains": "flow.chains",
    "chains_pruned": "flow.chains_pruned",
    "rows": "soft.rows",
    "row_pushes": "soft.row_pushes",
    "builds": "collection.oracle_builds",
    "map_rows": "collection.map_rows",
    "rows_requested": "collection.rows_requested",
    "rows_computed": "collection.rows_computed",
    "row_s": "collection.row_s",
    "scored": "benchmark.scored",
    "out_bytes": "cli.out_bytes",
}
_SETUP = {
    "benchmark.synth": "benchmark.synth_s",
    "benchmark.corrupt": "benchmark.corrupt_s",
    "collection.save": "collection.save_s",
}


def _duration(s: dict) -> float:
    return s["end"] - s["start"]


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics: per command (a `bench.cmd` span), averaged over commands.

    On cli20 half the commands are `propagate` and half `baseline`, so a layer
    only one of them reaches reads its per-pair total over two. Setup metrics
    average over `bench.setup` spans and cli.start_s over `cli.start` spans.
    A layer the workload never reaches reads 0.
    """
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def subtree(root: dict) -> list[dict]:
        out, todo = [], [root]
        while todo:
            s = todo.pop()
            out.append(s)
            todo.extend(children.get(s["id"], ()))
        return out

    per_cmd: list[dict[str, float]] = []
    per_setup: list[dict[str, float]] = []
    for root in spans:
        if root["parent"] is not None:
            continue
        if root["name"] == "bench.cmd":
            m = {name: 0.0 for name in LAYER_METRICS}
            m["bench.cmd_s"] = _duration(root)
            for s in subtree(root):
                if s["name"] in _DURATIONS:
                    m[_DURATIONS[s["name"]]] += _duration(s)
                if s["name"] in _SELF:
                    kids = sum(_duration(c) for c in children.get(s["id"], ()))
                    m[_SELF[s["name"]]] += _duration(s) - kids
                for key, value in s["counts"].items():
                    if key in _COUNTS:
                        m[_COUNTS[key]] += value
                if s["name"] == "flow.enumerate":
                    m["flow.chains_max"] = max(m["flow.chains_max"], s["counts"]["chains"])
            if m["collection.rows_requested"]:
                m["collection.row_hit_rate"] = 1.0 - (
                    m["collection.rows_computed"] / m["collection.rows_requested"]
                )
            per_cmd.append(m)
        elif root["name"] == "bench.setup":
            m = {name: 0.0 for name in _SETUP.values()}
            for s in subtree(root):
                if s["name"] in _SETUP:
                    m[_SETUP[s["name"]]] += _duration(s)
            per_setup.append(m)

    out = {name: 0.0 for name in LAYER_METRICS}
    for group in (per_cmd, per_setup):
        if group:
            for name in group[0]:
                out[name] = statistics.fmean(g[name] for g in group)
    starts = [_duration(s) for s in spans if s["name"] == "cli.start"]
    if starts:
        out["cli.start_s"] = statistics.fmean(starts)
    return out
