"""Spans around the public entry points of each sdpmix module.

The tracer wraps functions from outside the package: it rebinds every
module attribute of sdpmix that refers to a traced function (so a function
imported by name into several modules is wrapped everywhere) and patches
methods on their classes. Spans (name, start, end, parent) are kept in
memory; a span's self time is its duration minus the durations of its child
spans. uninstall() restores every binding.

A timed `<module>.<fn>_s` metric is the self time of that function's spans;
solver.sweep_s, solver.outer_s and the precision stage times are inclusive.
"""

from __future__ import annotations

import sys
import time

import numpy as np

ROOT = "cli.main"


class Tracer:
    def __init__(self):
        self.names: list = []
        self.parent: list = []
        self.start: list = []
        self.end: list = []
        self._stack: list = []
        self._undo: list = []
        self.minimize: list = []  # (evals, converged, returned v_start unchanged)
        self.psd_orders: list = []
        self.drift: list = []
        self.solves: list = []  # (tol, iterations) of each solve call, in order
        self.rows: list = []  # (solve span id, progress row)

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, after=None):
        names, parent, start, end, stack = self.names, self.parent, self.start, self.end, self._stack

        def traced(*args, **kwargs):
            sid = len(start)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end[sid] = time.perf_counter()
                start[sid] = t0
                stack.pop()
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    def _rebind(self, fn, wrapped) -> None:
        for key, mod in list(sys.modules.items()):
            if key != "sdpmix" and not key.startswith("sdpmix."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    setattr(mod, attr, wrapped)
                    self._undo.append((mod, attr, val))

    def trace_function(self, name, fn, after=None) -> None:
        self._rebind(fn, self.wrap(name, fn, after))

    def trace_method(self, cls, attr, name) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(name, raw.__func__))
        else:
            new = self.wrap(name, raw)
        setattr(cls, attr, new)
        self._undo.append((cls, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._undo):
            setattr(owner, attr, val)
        self._undo.clear()

    def _enclosing_solve(self):
        for sid in reversed(self._stack):
            if self.names[sid] == "solver.solve":
                return sid
        return -1

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        from sdpmix import auglag, cli, formats, lbfgs, linops, precision, problem, solver
        from sdpmix.ddouble import to_float_array

        def after_minimize(args, kwargs, out):
            v, evals, converged = out
            v_start = args[1]
            self.minimize.append((evals, bool(converged), v is v_start or bool(np.array_equal(v, v_start))))

        def after_psd(args, kwargs, out):
            self.psd_orders.append(int(args[0].shape[0]))

        def after_solve(args, kwargs, out):
            options = args[1] if len(args) > 1 else kwargs.get("options")
            tol = options.tol if options is not None else solver.SolverOptions().tol
            self.solves.append((tol, out[0].iterations))

        self.trace_function("formats.parse", formats.parse_problem)
        self.trace_function("formats.write", formats.write_solution)
        self.trace_function("problem.validate", problem.validate)
        self.trace_function("problem.scale", problem.scale)
        self.trace_method(linops.OperatorTables, "__init__", "linops.tables")
        self.trace_method(linops.ColumnSlices, "__init__", "linops.slices")
        self.trace_method(linops.OperatorCache, "fresh", "linops.fresh")
        self.trace_function("linops.deltas", linops.column_deltas)
        self.trace_function("linops.commit", linops.commit_column)
        self.trace_function("linops.project_psd", linops.project_psd, after_psd)
        self.trace_function("linops.adjoint", linops.apply_adjoint)
        self.trace_method(auglag.ColumnContext, "__init__", "auglag.context")
        self.trace_method(auglag.ColumnContext, "value_and_grad", "auglag.eval")
        self.trace_function("lbfgs.minimize", lbfgs.minimize_column, after_minimize)
        self.trace_function("solver.update_duals", solver.update_duals)
        self.trace_function("solver.penalty_ratio", solver.penalty_ratio)
        self.trace_function("solver.update_penalty", solver.update_penalty)
        self.trace_function("solver.errors", solver.compute_errors)
        self.trace_function("solver.unscale", solver.unscale_solution)
        self.trace_function("solver.solve", solver.solve, after_solve)
        self.trace_function("precision.as_kind", precision.as_kind)
        self.trace_function("precision.promote", precision.promote)

        # refresh_cache also measures how far the incrementally updated
        # operator values drifted from the fresh recomputation.
        refresh_span = self.wrap("auglag.refresh", auglag.refresh_cache)

        def refresh_with_drift(state):
            before = np.append(state.cache.values, state.cache.cost_value)
            refresh_span(state)
            fresh = np.append(state.cache.values, state.cache.cost_value)
            gap = float(np.max(np.abs(to_float_array(before - fresh))))
            scale = float(np.max(np.abs(to_float_array(fresh))))
            self.drift.append(gap / scale if scale > 0 else gap)

        self._rebind(auglag.refresh_cache, refresh_with_drift)

        # the CLI builds its progress callback per solve; record every row
        original_printer = cli._progress_printer

        def recording_printer():
            inner = original_printer()

            def emit(row):
                self.rows.append((self._enclosing_solve(), row["iter"], row["pinf"], row["gap"],
                                  row["compl_star"], row["hinge_evals"]))
                if inner is not None:
                    inner(row)

            return emit

        cli._progress_printer = recording_printer
        self._undo.append((cli, "_progress_printer", original_printer))

    # -- metrics ---------------------------------------------------------------

    def metrics(self, untraced_solve_s: float) -> dict:
        start = np.array(self.start)
        dur = np.array(self.end) - start
        parent = np.array(self.parent, dtype=np.int64)
        nested = parent >= 0
        self_t = dur - np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        index = {}
        for sid, name in enumerate(self.names):
            index.setdefault(name, []).append(sid)

        def ids(*keys):
            return np.array([sid for k in keys for sid in index.get(k, [])], dtype=np.int64)

        def self_s(*keys):
            return float(self_t[ids(*keys)].sum())

        def total_s(*keys):
            return float(dur[ids(*keys)].sum())

        def calls(key):
            return len(index.get(key, []))

        def pct_us(key, q):
            d = dur[ids(key)]
            return float(np.percentile(d, q) * 1e6) if len(d) else 0.0

        roots = ids(ROOT)
        if len(roots) != 1:
            raise RuntimeError(f"expected one traced solve path, found {len(roots)}")
        solve_s = float(dur[roots[0]])

        evals = ids("auglag.eval")
        minimize = np.array(self.minimize, dtype=float).reshape(-1, 3)
        n_min = len(minimize)

        solve_ids = index.get("solver.solve", [])
        stage = {}
        if len(solve_ids) == 2:
            stage = {"precision.stage1_s": float(dur[solve_ids[0]]), "precision.stage2_s": float(dur[solve_ids[1]]),
                     "precision.stage1_iters": self.solves[0][1], "precision.stage2_iters": self.solves[1][1]}
            # mean evaluation time per stage, by which stage span holds it
            in_stage2 = start[evals] >= start[solve_ids[1]]
            e1, e2 = dur[evals][~in_stage2], dur[evals][in_stage2]
            stage["ddouble.eval_us"] = float(e2.mean() * 1e6)
            stage["ddouble.slowdown"] = float(e2.mean() / e1.mean())

        after_proxy = 0
        hinge = 0
        for sid, (tol, iters) in zip(solve_ids, self.solves):
            rows = [r for r in self.rows if r[0] == sid]
            if rows:
                hinge += rows[-1][5]
                first = next((r[1] for r in rows if max(r[2], r[3], r[4]) < tol), iters)
                after_proxy += iters - first
        zchecks = sum(1 for sid in index.get("solver.errors", []) if self.names[self.parent[sid]] == "solver.solve")

        out = {
            "formats.parse_s": self_s("formats.parse"),
            "formats.write_s": self_s("formats.write"),
            "problem.validate_s": self_s("problem.validate"),
            "problem.scale_s": self_s("problem.scale"),
            "linops.tables_s": self_s("linops.tables"),
            "linops.slices_s": self_s("linops.slices"),
            "linops.deltas_s": self_s("linops.deltas"),
            "linops.deltas_calls": calls("linops.deltas"),
            "linops.commit_s": self_s("linops.commit"),
            "linops.fresh_s": self_s("linops.fresh"),
            "linops.project_psd_s": self_s("linops.project_psd"),
            "linops.project_psd_calls": calls("linops.project_psd"),
            "linops.project_psd_max_order": max(self.psd_orders, default=0),
            "linops.adjoint_s": self_s("linops.adjoint"),
            "auglag.context_s": self_s("auglag.context"),
            "auglag.context_calls": calls("auglag.context"),
            "auglag.eval_s": self_s("auglag.eval"),
            "auglag.eval_calls": calls("auglag.eval"),
            "auglag.eval_us_p50": pct_us("auglag.eval", 50),
            "auglag.eval_us_p99": pct_us("auglag.eval", 99),
            "auglag.hinge_evals": hinge,
            "auglag.refresh_s": self_s("auglag.refresh"),
            "auglag.refresh_drift_max": max(self.drift, default=0.0),
            "lbfgs.calls": n_min,
            "lbfgs.self_s": self_s("lbfgs.minimize"),
            "lbfgs.evals_per_call": float(minimize[:, 0].mean()) if n_min else 0.0,
            "lbfgs.converged_frac": float(minimize[:, 1].mean()) if n_min else 0.0,
            "lbfgs.noop_frac": float(minimize[:, 2].mean()) if n_min else 0.0,
            "lbfgs.call_us_p50": pct_us("lbfgs.minimize", 50),
            "lbfgs.call_us_p99": pct_us("lbfgs.minimize", 99),
            "solver.iters": sum(it for _, it in self.solves),
            "solver.iters_after_proxy": after_proxy,
            "solver.sweep_s": total_s("auglag.context", "lbfgs.minimize", "linops.commit"),
            "solver.outer_s": total_s("auglag.refresh", "solver.update_duals", "solver.penalty_ratio",
                                      "solver.update_penalty"),
            "solver.zcheck_calls": zchecks,
            "solver.errors_s": self_s("solver.errors"),
            "solver.unscale_s": self_s("solver.unscale"),
            "solver.self_s": self_s("solver.solve"),
            "precision.stage1_s": 0.0,
            "precision.stage2_s": 0.0,
            "precision.stage1_iters": 0,
            "precision.stage2_iters": 0,
            "precision.promote_s": self_s("precision.as_kind", "precision.promote"),
            "ddouble.eval_us": 0.0,
            "ddouble.slowdown": 0.0,
        }
        out.update(stage)
        for module in ("formats", "problem", "linops", "auglag", "lbfgs", "solver", "precision"):
            mine = [sid for name, sids in index.items() if name.startswith(module + ".") for sid in sids]
            out[f"{module}.share"] = float(self_t[mine].sum()) / solve_s
        out["trace.solve_s"] = solve_s
        out["trace.cover"] = float(self_t.sum() - self_t[roots[0]]) / solve_s
        out["trace.overhead"] = solve_s / untraced_solve_s
        return out

    def dump(self, path) -> None:
        """Write the spans out (names interned as indices into `names`)."""
        labels = sorted(set(self.names))
        code = {name: t for t, name in enumerate(labels)}
        np.savez_compressed(
            path,
            names=np.array(labels),
            name=np.array([code[n] for n in self.names], dtype=np.int16),
            start=np.array(self.start),
            end=np.array(self.end),
            parent=np.array(self.parent, dtype=np.int64),
        )
