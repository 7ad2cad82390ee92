"""Layer spans for the traced benchmark run.

`Tracer.install()` replaces each traced function with a wrapper on the module
attribute its caller looks it up through, and `uninstall()` puts the
originals back. A span records name, start, end, parent span and cell id;
spans stay in memory until `dump()`. Self time is a span's duration minus
the durations of its direct children (one thread, so children never
overlap).
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass
from pathlib import Path

# (module, attribute, span name). One function may be reached through
# several modules; each route gets its own wrapper with the same span name.
SPANS = (
    ("scmap.engine", "all_pairs_hops", "pathcore.all_pairs_hops"),
    ("scmap.sptg", "all_pairs_hops", "pathcore.all_pairs_hops"),
    ("scmap.master", "all_pairs_hops", "pathcore.all_pairs_hops"),
    ("scmap.engine", "partition_all", "sptg.partition_all"),
    ("scmap.sptg", "partition_all", "sptg.partition_all"),
    ("scmap.engine", "build_rmp", "master.build_rmp"),
    ("scmap.engine", "add_column", "master.add_column"),
    ("scmap.master", "add_column", "master.add_column"),
    ("scmap.engine", "solve_relaxation", "master.solve_relaxation"),
    ("scmap.engine", "segment_cost_table", "pricer.segment_cost_table"),
    ("scmap.pricer", "shortest_path_weighted", "pathcore.shortest_path_weighted"),
    ("scmap.engine", "price_chain_instance", "pricer.price_chain_instance"),
    ("scmap.engine", "build_final_ilp", "master.build_final_ilp"),
    ("scmap.engine", "extract_plan", "engine.extract_plan"),
    ("scmap.engine", "validate_plan", "engine.validate_plan"),
    ("scmap.simplexkit.highs", "solve_lp", "simplexkit.solve_lp"),
    ("scmap.simplexkit.highs", "solve_mip", "simplexkit.solve_mip"),
    ("scmap.simplexkit.highs", "linprog", "scipy.linprog"),
    ("scmap.simplexkit.highs", "milp", "scipy.milp"),
)

# Watched without a span: the result carries the model and its CG trace.
CG_ROUTE = ("scmap.engine", "run_column_generation")

# Per-layer metrics: name -> (unit, how it is computed from the traced pass).
# "self:X" is span X's self time, "total:X" its inclusive time, "calls:X" its
# call count; "model:X" comes from the models and CG traces of the pass;
# "worker:" values are timed by the worker itself, outside the spans.
LAYER_METRICS = {
    "netmodel.load_instance_s": ("s", "worker:load_s"),
    "pathcore.all_pairs_hops_s": ("s", "self:pathcore.all_pairs_hops"),
    "sptg.partition_all_s": ("s", "self:sptg.partition_all"),
    "master.build_rmp_s": ("s", "self:master.build_rmp"),
    "rmp.rows": ("count", "model:rows"),
    "rmp.cols": ("count", "model:cols"),
    "rmp.nnz": ("count", "model:nnz"),
    "rmp.pool": ("count", "model:pool"),
    "master.solve_relaxation_s": ("s", "self:master.solve_relaxation"),
    "master.solve_relaxation_calls": ("count", "calls:master.solve_relaxation"),
    "cg.iterations": ("count", "model:iterations"),
    "scipy.linprog_s": ("s", "self:scipy.linprog"),
    "simplexkit.solve_lp_s": ("s", "total:simplexkit.solve_lp"),
    "simplexkit.lp_assembly_s": ("s", "self:simplexkit.solve_lp"),
    "pricer.segment_cost_table_s": ("s", "self:pricer.segment_cost_table"),
    "pathcore.shortest_path_weighted_calls": (
        "count", "calls:pathcore.shortest_path_weighted"),
    "pricer.price_chain_instance_s": ("s", "self:pricer.price_chain_instance"),
    "pricer.price_calls": ("count", "calls:pricer.price_chain_instance"),
    "pricer.columns_added": ("count", "model:columns_added"),
    "pricer.hit_ratio": ("ratio", "hit_ratio"),
    "master.add_column_s": ("s", "self:master.add_column"),
    "master.add_column_calls": ("count", "calls:master.add_column"),
    "engine.extract_plan_s": ("s", "self:engine.extract_plan"),
    "master.build_final_ilp_s": ("s", "self:master.build_final_ilp"),
    "master.fast_refused_calls": ("count", "fast_refused"),
    "simplexkit.solve_mip_s": ("s", "total:simplexkit.solve_mip"),
    "scipy.milp_s": ("s", "self:scipy.milp"),
    "simplexkit.mip_assembly_s": ("s", "self:simplexkit.solve_mip"),
    "engine.validate_plan_s": ("s", "self:engine.validate_plan"),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    cell: str
    error: str = ""  # exception class name when the call raised


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.models: list = []  # size and CG counters of each CG run
        self.cell = ""
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.cell)
            self.spans.append(span)
            self._stack.append(idx)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()

        return traced

    def _watch_cg(self, fn):
        @functools.wraps(fn)
        def watched(*args, **kwargs):
            model, trace = fn(*args, **kwargs)
            # keep numbers only: holding the model would inflate memory
            self.models.append({
                "rows": model.lp.n_rows,
                "cols": model.lp.n_vars,
                "nnz": sum(len(r.coeffs) for r in model.lp.rows),
                "pool": len(model.pool),
                "iterations": len(trace.iterations),
                "columns_added": sum(it.columns_added for it in trace.iterations),
            })
            return model, trace

        return watched

    def install(self) -> None:
        for mod_name, attr, name in SPANS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name))
        mod = importlib.import_module(CG_ROUTE[0])
        fn = getattr(mod, CG_ROUTE[1])
        self._saved.append((mod, CG_ROUTE[1], fn))
        setattr(mod, CG_ROUTE[1], self._watch_cg(fn))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def layer_metrics(self) -> dict:
        """Per-layer values over every span and model recorded."""
        total: dict = {}
        self_t: dict = {}
        calls: dict = {}
        for s in self.spans:
            d = s.end - s.start
            total[s.name] = total.get(s.name, 0.0) + d
            self_t[s.name] = self_t.get(s.name, 0.0) + d
            calls[s.name] = calls.get(s.name, 0) + 1
            if s.parent >= 0:
                parent = self.spans[s.parent].name
                self_t[parent] = self_t.get(parent, 0.0) - d
        model = {"rows": 0, "cols": 0, "nnz": 0, "pool": 0, "iterations": 0,
                 "columns_added": 0}
        for sizes in self.models:
            for key, value in sizes.items():
                model[key] += value
        refused = sum(
            1 for s in self.spans
            if s.name == "master.build_final_ilp" and s.error == "MasterError"
        )
        price_calls = calls.get("pricer.price_chain_instance", 0)
        out = {}
        for metric, (_, how) in LAYER_METRICS.items():
            kind, _, key = how.partition(":")
            if kind == "self":
                out[metric] = self_t.get(key, 0.0)
            elif kind == "total":
                out[metric] = total.get(key, 0.0)
            elif kind == "calls":
                out[metric] = calls.get(key, 0)
            elif kind == "model":
                out[metric] = model[key]
            elif kind == "fast_refused":
                out[metric] = refused
            elif kind == "hit_ratio":
                out[metric] = model["columns_added"] / price_calls if price_calls else 0.0
        return out

    def covered(self) -> float:
        """Seconds covered by root spans."""
        return sum(s.end - s.start for s in self.spans if s.parent < 0)

    def dump(self, path: Path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")
