"""Span tracing of driftlab from outside the program, and the per-layer
metrics derived from the spans.

The tracer replaces the public functions of each driftlab module (those in
``__all__``, or the public names of a module without one) by wrappers that
record a span: name, start, end, parent span, experiment label, thread and a
few counts read from the call's arguments and result.  Every binding of a
function is replaced, so ``sanov.march_backward`` is traced as well as
``pde.march_backward``, and ``run_parallel`` as imported into ``pde``,
``schrodinger`` and ``variational``.  Spans stay in memory until the pass
ends.  ``uninstall`` puts the original functions back.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import sys
import threading
import time
from collections import defaultdict
from typing import NamedTuple, Optional

LAYERS = ("cli", "pde", "generators", "sanov", "schrodinger", "montecarlo", "variational",
          "parallel")

# Which end-to-end metric each layer should move, on which workloads, and
# where it is predicted flat.  Printed next to each layer's measured share.
PREDICTIONS = {
    "pde": "wall_s, peak_rss_mb via out_bytes; on viscosity-sweep, sanov-chain; "
           "flat on transport-sweep",
    "generators": "wall_s; on viscosity-sweep (tabulated half); flat on sanov-chain",
    "sanov": "wall_s, peak_rss_mb; on sanov-chain; flat on all others",
    "schrodinger": "wall_s, cpu_s, ref_err, failed_frac; on transport-sweep; flat on all others",
    "montecarlo": "wall_s, cpu_s; on mc-lsmc; flat on all others",
    "variational": "wall_s (small share); on mc-lsmc; flat on all others",
    "parallel": "wall_s, cpu_s; on viscosity-sweep, transport-sweep; flat on sanov-chain",
    "cli": "setup_s, wall_s (small); on all",
}

# Functions whose spans the metrics read; a missing one means a rename.
REQUIRED = ("cli.run", "pde.march_backward", "pde.hopf_lax", "generators.eval_gstar_halfline",
            "sanov.iterate_L", "sanov.mean_field_limit", "schrodinger.solve_transport",
            "schrodinger.sinkhorn_bridge", "schrodinger.ot_oracle", "montecarlo.lsmc_bsde",
            "montecarlo.log_mean_exp", "montecarlo.cramer_average",
            "montecarlo.girsanov_lower_bound", "variational.maximize_schilder",
            "parallel.run_parallel")

# Counts that must repeat exactly between traced passes and across seeds.
REPEATABLE = ("pde.time_steps", "pde.cell_updates", "schrodinger.objective_evals",
              "schrodinger.sinkhorn_iterations", "montecarlo.path_blocks")

_FEASIBILITY_TOL = 1e-6  # solve_transport's default, which the CLI uses
_DONE = object()


class Span(NamedTuple):
    id: int
    parent: int
    name: str
    start: float
    end: float
    experiment: Optional[str]
    thread: int
    attrs: Optional[dict]


def _march_attrs(bound, result):
    values, cfl = result
    nt, nx = cfl["nt"], values.shape[-1]
    return {
        "rows": values.size // ((nt + 1) * nx),
        "nt": nt,
        "nx": nx,
        "bytes": values.nbytes,
        # the Hamiltonian bound alone, L dt / dx <= 1/2
        "nt_h": max(1, math.ceil(2.0 * cfl["lipschitz"] / cfl["dx"])),
    }


def _transport_attrs(bound, sol):
    diag = sol.diagnostics
    attrs = {"evals": sol.iterations, "kkt": sol.kkt_residual, "feasible": sol.feasible,
             "value": sol.value, "repair": diag.get("repair_cost", 0.0), "rounds": 0}
    if "penalty_weight" in diag:
        # the penalty starts at 32 and is multiplied by 4 after every round
        # that ends infeasible
        grown = round(math.log(diag["penalty_weight"] / 32.0, 4.0))
        attrs["rounds"] = grown + (diag["pre_repair_terminal_l1"] < _FEASIBILITY_TOL)
    return attrs


ATTRS = {
    "pde.march_backward": _march_attrs,
    "schrodinger.solve_transport": _transport_attrs,
    "schrodinger.sinkhorn_bridge":
        lambda bound, sol: {"iterations": sol.iterations, "converged": sol.converged},
    "montecarlo.lsmc_bsde":
        lambda bound, sol: {"steps": bound.arguments["batch"].n_steps,
                            "fallbacks": sol.degree_fallbacks},
    "variational.maximize_schilder":
        lambda bound, res: {"restarts": res.restarts, "converged": res.converged},
}


class Tracer:
    """Records spans of traced driftlab calls; install once per traced pass."""

    def __init__(self):
        self.spans = []
        self.experiment = None
        self.bindings = defaultdict(int)  # traced name -> bindings replaced
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []

    # -- span recording ----------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        sid = next(self._ids)
        stack = self._stack()
        parent = stack[-1] if stack else 0
        stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start, attrs=None):
        end = time.perf_counter()
        self._stack().pop()
        self.spans.append(Span(sid, parent, name, start, end, self.experiment,
                               threading.get_ident(), attrs))

    def root(self, name, fn):
        """Run fn() inside a root span; returns (result, span id)."""
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            return fn(), sid
        finally:
            self._close(sid, parent, name, start)

    def _wrap(self, name, fn):
        extract = ATTRS.get(name)
        signature = inspect.signature(fn) if extract else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self._open()
            start = time.perf_counter()
            attrs = None
            try:
                result = fn(*args, **kwargs)
                if extract:
                    attrs = extract(signature.bind(*args, **kwargs), result)
                return result
            finally:
                self._close(sid, parent, name, start, attrs)

        return traced

    def _wrap_pool(self, fn, worker_count):
        @functools.wraps(fn)
        def traced(task_fn, items):
            items = list(items)
            n = worker_count()
            used = 1 if n <= 1 or len(items) <= 1 else min(n, len(items))
            sid, parent = self._open()
            start = time.perf_counter()

            def task(item):
                # pool threads start with an empty stack: hang the task
                # under the run_parallel span that queued it
                stack = self._stack()
                tid = next(self._ids)
                stack.append(tid)
                began = time.perf_counter()
                try:
                    return task_fn(item)
                finally:
                    end = time.perf_counter()
                    stack.pop()
                    self.spans.append(Span(tid, sid, "parallel.task", began, end,
                                           self.experiment, threading.get_ident(),
                                           {"wait": began - start}))

            try:
                return fn(task, items)
            finally:
                self._close(sid, parent, "parallel.run_parallel", start,
                            {"workers": used, "tasks": len(items)})

        return traced

    def _wrap_blocks(self, fn):
        """One span per block a path generator yields (RNG and scaling)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            blocks = fn(*args, **kwargs)
            while True:
                sid, parent = self._open()
                start = time.perf_counter()
                try:
                    block = next(blocks, _DONE)
                except BaseException:
                    self._stack().pop()
                    raise
                if block is _DONE:
                    self._stack().pop()
                    return
                self._close(sid, parent, "montecarlo.path_block", start)
                yield block

        return traced

    # -- installation ------------------------------------------------------

    def install(self):
        """Replace every binding of every public driftlab function."""
        import driftlab.cli  # noqa: F401  (loads every layer)

        targets = {}
        for layer in LAYERS:
            mod = sys.modules[f"driftlab.{layer}"]
            names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
            for n in names:
                obj = getattr(mod, n)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    targets[id(obj)] = (f"{layer}.{n}", obj)
        missing = sorted(set(REQUIRED) - {name for name, _ in targets.values()})
        if missing:
            raise RuntimeError(f"traced functions not found (renamed?): {missing}")

        pool = sys.modules["driftlab.parallel"]
        wrappers = {}
        for key, (name, fn) in targets.items():
            if name == "parallel.run_parallel":
                wrappers[key] = self._wrap_pool(fn, pool.worker_count)
            else:
                wrappers[key] = self._wrap(name, fn)

        for modname, mod in list(sys.modules.items()):
            if modname != "driftlab" and not modname.startswith("driftlab."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = targets.get(id(val))
                if hit is not None and hit[1] is val:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, wrappers[id(val)])
                    self.bindings[hit[0]] += 1

        batch = sys.modules["driftlab.montecarlo"].PathBatch
        self._patches.append((batch, "iter_increments", batch.iter_increments))
        batch.iter_increments = self._wrap_blocks(batch.iter_increments)

    def uninstall(self):
        while self._patches:
            owner, attr, val = self._patches.pop()
            setattr(owner, attr, val)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _covered(intervals, lo, hi):
    """Length of the union of intervals clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Span duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - _covered(children[s.id], s.start, s.end) for s in spans}


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(spans, root_id):
    """Per-layer metrics of one traced pass whose root span is ``root_id``."""
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    named = defaultdict(list)
    for s in spans:
        # a call that raised has no counts: leave it out of the layer metrics
        if s.attrs is not None or s.name not in ATTRS:
            named[s.name].append(s)

    def total(name):
        return sum(s.end - s.start for s in named[name])

    def attr_sum(name, key):
        return sum(s.attrs[key] for s in named[name])

    def under(span, name):
        while span.parent:
            span = by_id[span.parent]
            if span.name == name:
                return True
        return False

    m = {}
    root = by_id[root_id]
    wall = root.end - root.start
    def layer(span):
        # a pool task runs its caller's closure: charge it to the layer that
        # called run_parallel
        if span.name == "parallel.task":
            caller = by_id.get(by_id[span.parent].parent)
            if caller is not None and caller.id != root_id:
                return layer(caller)
        return span.name.split(".")[0]

    layer_self = defaultdict(float)
    for s in spans:
        if s.id != root_id:
            layer_self[layer(s)] += own[s.id]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]

    m["cli.run_s"] = total("cli.run")

    marches = named["pde.march_backward"]
    m["pde.march_calls"] = len(marches)
    m["pde.march_s"] = total("pde.march_backward")
    m["pde.time_steps"] = attr_sum("pde.march_backward", "nt")
    m["pde.cell_updates"] = sum(s.attrs["rows"] * s.attrs["nt"] * s.attrs["nx"] for s in marches)
    m["pde.cell_updates_per_s"] = _ratio(m["pde.cell_updates"], m["pde.march_s"])
    m["pde.step_ratio"] = _ratio(m["pde.time_steps"], attr_sum("pde.march_backward", "nt_h"))
    m["pde.out_bytes"] = attr_sum("pde.march_backward", "bytes")
    m["pde.hopf_lax_s"] = total("pde.hopf_lax")

    m["generators.halfline_calls"] = len(named["generators.eval_gstar_halfline"])
    m["generators.halfline_s"] = total("generators.eval_gstar_halfline")
    m["generators.halfline_us"] = 1e6 * _ratio(m["generators.halfline_s"],
                                               m["generators.halfline_calls"])

    stages = [s for s in marches if under(s, "sanov.iterate_L")]
    m["sanov.stage_passes"] = len(stages)
    m["sanov.stage_pass_s"] = _ratio(sum(s.end - s.start for s in stages), len(stages))
    m["sanov.stage_rows"] = sum(s.attrs["rows"] for s in stages)
    m["sanov.limit_s"] = total("sanov.mean_field_limit")

    solves = named["schrodinger.solve_transport"]
    sinkhorns = named["schrodinger.sinkhorn_bridge"]
    m["schrodinger.solve_s"] = total("schrodinger.solve_transport")
    m["schrodinger.objective_evals"] = attr_sum("schrodinger.solve_transport", "evals")
    m["schrodinger.eval_ms"] = 1e3 * _ratio(m["schrodinger.solve_s"],
                                            m["schrodinger.objective_evals"])
    m["schrodinger.al_rounds"] = attr_sum("schrodinger.solve_transport", "rounds")
    m["schrodinger.kkt_residual"] = max((s.attrs["kkt"] for s in solves if s.attrs["feasible"]),
                                        default=0.0)
    feasible = [s for s in solves if s.attrs["feasible"]]
    m["schrodinger.repair_share"] = _ratio(sum(s.attrs["repair"] for s in feasible),
                                           sum(s.attrs["value"] for s in feasible))
    m["schrodinger.sinkhorn_s"] = total("schrodinger.sinkhorn_bridge")
    m["schrodinger.sinkhorn_iterations"] = attr_sum("schrodinger.sinkhorn_bridge", "iterations")
    m["schrodinger.sinkhorn_iter_ms"] = 1e3 * _ratio(m["schrodinger.sinkhorn_s"],
                                                     m["schrodinger.sinkhorn_iterations"])
    m["schrodinger.unconverged"] = (sum(not s.attrs["converged"] for s in sinkhorns)
                                    + sum(not s.attrs["feasible"] for s in solves))
    m["schrodinger.ot_oracle_s"] = total("schrodinger.ot_oracle")

    m["montecarlo.path_blocks"] = len(named["montecarlo.path_block"])
    m["montecarlo.block_ms"] = 1e3 * _ratio(total("montecarlo.path_block"),
                                            m["montecarlo.path_blocks"])
    m["montecarlo.lsmc_s"] = total("montecarlo.lsmc_bsde")
    m["montecarlo.regression_steps"] = attr_sum("montecarlo.lsmc_bsde", "steps")
    m["montecarlo.lsmc_step_ms"] = 1e3 * _ratio(m["montecarlo.lsmc_s"],
                                                m["montecarlo.regression_steps"])
    m["montecarlo.basis_fallbacks"] = attr_sum("montecarlo.lsmc_bsde", "fallbacks")
    m["montecarlo.estimator_s"] = sum(total(f"montecarlo.{n}") for n in
                                      ("log_mean_exp", "cramer_average", "girsanov_lower_bound"))

    maxes = named["variational.maximize_schilder"]
    m["variational.maximize_s"] = total("variational.maximize_schilder")
    m["variational.restarts"] = attr_sum("variational.maximize_schilder", "restarts")
    m["variational.converged_frac"] = _ratio(sum(s.attrs["converged"] for s in maxes), len(maxes))

    pools = named["parallel.run_parallel"]
    m["parallel.workers"] = max((s.attrs["workers"] for s in pools), default=0)
    m["parallel.tasks"] = attr_sum("parallel.run_parallel", "tasks")
    m["parallel.task_busy_s"] = total("parallel.task")
    m["parallel.queue_wait_s"] = attr_sum("parallel.task", "wait")
    m["parallel.utilisation"] = _ratio(
        m["parallel.task_busy_s"], sum(s.attrs["workers"] * (s.end - s.start) for s in pools))

    m["trace.wall_s"] = wall
    m["trace.unattributed_s"] = own[root_id]
    # concurrent pool threads each count their own self time, so the layers
    # can add up to more than the wall time; the excess is reported here
    m["trace.overlap_s"] = sum(own.values()) - wall
    m["trace.spans"] = len(spans)
    return m
