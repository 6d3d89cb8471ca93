"""Span tracing of the library's layers from outside the package.

Each public function of a layer is replaced, in the module namespace where
its callers look it up, by a wrapper that records one span per call: name,
start, end, parent span and run.  System callables (``lagrangian``,
``constraint_matrix``, ...) are wrapped on each system the catalog builds.
Per-name counts, inclusive time and self time (duration minus the time of
child spans) are accumulated as calls end; the spans themselves are kept in
memory, up to a cap, and written out by :meth:`Tracer.write_spans`.

Nothing in the package is edited: :meth:`Tracer.install` patches module
attributes and :meth:`Tracer.uninstall` puts the originals back.  An
attribute the package no longer has is skipped and listed in ``missing``.
"""

from __future__ import annotations

import dataclasses
import functools
import time

#: (module, attribute, layer) for every lookup site that is patched.  A
#: function imported into several modules is patched in each of them.
PATCH_SITES = (
    ("contact", "partials_of_Ld", "model"),
    ("contact", "evaluate_discrete_lagrangian", "model"),
    ("contact", "discrete_constraint", "model"),
    ("contact", "initial_acceleration", "model"),
    ("contact", "newton_solve", "newton"),
    ("contact", "contact_residual", "contact"),
    ("contact", "contact_step", "contact"),
    ("contact", "initialize_window", "contact"),
    ("contact", "project_velocity", "contact"),
    ("contact", "project_seed_position", "contact"),
    ("contact", "solve_z_update", "contact"),
    ("contact", "run_contact", "contact"),
    ("dalembert", "partials_of_Ld", "model"),
    ("dalembert", "discrete_constraint", "model"),
    ("dalembert", "initial_acceleration", "model"),
    ("dalembert", "newton_solve", "newton"),
    ("dalembert", "la_residual", "dalembert"),
    ("dalembert", "la_step", "dalembert"),
    ("dalembert", "run_la", "dalembert"),
    ("model", "evaluate_discrete_lagrangian", "model"),
    ("model", "discrete_constraint", "model"),
    ("newton", "fd_jacobian", "newton"),
    ("newton", "solve_dense", "newton"),
    ("reference", "newton_solve", "newton"),
    ("systems", "newton_solve", "newton"),
    ("experiments", "simulate_contact", "contact"),
    ("experiments", "simulate_la", "dalembert"),
    ("experiments", "rkf45_integrate", "reference"),
    ("experiments", "implicit_dae_integrate", "reference"),
    ("experiments", "consistent_init", "reference"),
    ("experiments", "make_continuous_system", "reference"),
    ("experiments", "foucault_system", "systems"),
    ("experiments", "disk_system", "systems"),
    ("experiments", "foucault_reference_ode", "systems"),
    ("experiments", "foucault_reference_multiplier", "systems"),
    ("experiments", "get_experiment", "experiments"),
    ("experiments", "build_contact_system", "experiments"),
    ("experiments", "build_la_system", "experiments"),
    ("experiments", "run_experiment", "experiments"),
    ("analysis", "reconstruct_velocities_from_arrays", "analysis"),
    ("analysis", "principal_axis_angle", "analysis"),
    ("analysis", "oscillation_plane_angle", "analysis"),
    ("analysis", "trajectory_error", "analysis"),
    ("cli", "write_trajectory_csv", "cli"),
    ("cli", "write_summary_csv", "cli"),
)

#: Callables of a ContactSystem that belong to the ``systems`` layer.
SYSTEM_CALLABLES = ("lagrangian", "lagrangian_gradients", "constraint_matrix",
                    "constraint_offset", "external_force", "energy")

class Tracer:
    def __init__(self, span_cap: int = 100_000):
        self.span_cap = span_cap
        self.names = []              # span name per id, "layer.function"
        self.ids = {}
        self.calls = []
        self.errors = []             # calls that ended by an exception
        self.inclusive = []          # seconds
        self.self_time = []          # seconds
        self.spans = []              # (run, span, parent, name id, start, end)
        self.run_id = 0
        self.newton = {"iterations": 0, "max_iterations": 0, "residual_evals": 0}
        self.bdf2_residual_calls = 0
        self.missing = []
        self._next_span = 0
        self._stack = []             # [child seconds, span number] per open span
        self._patched = []           # (module, attribute, original)

    # -- accumulation -----------------------------------------------------

    def reset(self) -> None:
        """Zero every total, keeping the installed wrappers."""
        for series in (self.calls, self.errors, self.inclusive, self.self_time):
            series[:] = [0] * len(series)
        self.spans.clear()
        self.newton.update(dict.fromkeys(self.newton, 0))
        self.bdf2_residual_calls = 0

    def _id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            for series in (self.calls, self.errors, self.inclusive, self.self_time):
                series.append(0)
        return self.ids[name]

    def wrap(self, fn, name: str):
        sid = self._id(name)
        perf = time.perf_counter
        stack = self._stack
        calls, errors = self.calls, self.errors
        inclusive, self_time, spans = self.inclusive, self.self_time, self.spans
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, tracer._next_span]
            tracer._next_span += 1
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[sid] += 1
                raise
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                calls[sid] += 1
                inclusive[sid] += duration
                self_time[sid] += duration - frame[0]
                parent = -1
                if stack:
                    stack[-1][0] += duration
                    parent = stack[-1][1]
                if len(spans) < tracer.span_cap:
                    spans.append((tracer.run_id, frame[1], parent, sid, start, end))

        return traced

    # -- layer-specific hooks ---------------------------------------------

    def _newton_entry(self, newton_solve):
        """Count residual evaluations and iterations of every solve."""
        totals = self.newton

        @functools.wraps(newton_solve)
        def entry(residual, *args, **kwargs):
            def counted(x):
                totals["residual_evals"] += 1
                return residual(x)

            try:
                result = newton_solve(counted, *args, **kwargs)
            except Exception as exc:
                iterations = getattr(exc, "iterations", 0)
                totals["iterations"] += iterations
                totals["max_iterations"] = max(totals["max_iterations"], iterations)
                raise
            totals["iterations"] += result[1]
            totals["max_iterations"] = max(totals["max_iterations"], result[1])
            return result

        return entry

    def _wrap_fields(self, obj, fields, layer):
        present = {f: getattr(obj, f) for f in fields
                   if callable(getattr(obj, f, None))}
        if not dataclasses.is_dataclass(obj) or not present:
            return obj
        return dataclasses.replace(
            obj, **{f: self.wrap(fn, f"{layer}.{f}") for f, fn in present.items()})

    def _system_factory(self, factory):
        @functools.wraps(factory)
        def build(*args, **kwargs):
            return self._wrap_fields(factory(*args, **kwargs), SYSTEM_CALLABLES, "systems")
        return build

    def _continuous_factory(self, factory):
        @functools.wraps(factory)
        def build(*args, **kwargs):
            return self._wrap_fields(factory(*args, **kwargs), ("residual",),
                                     "reference.dae")
        return build

    def _ode_factory(self, factory):
        @functools.wraps(factory)
        def build(*args, **kwargs):
            return self.wrap(factory(*args, **kwargs), "systems.reference_ode_rhs")
        return build

    def _bdf2_counter(self, integrate):
        dae_residual = self._id("reference.dae.residual")

        @functools.wraps(integrate)
        def counted(*args, **kwargs):
            before = self.calls[dae_residual]
            try:
                return integrate(*args, **kwargs)
            finally:
                self.bdf2_residual_calls += self.calls[dae_residual] - before
        return counted

    # -- install / uninstall ----------------------------------------------

    def install(self, lib) -> None:
        hooks = {
            "newton_solve": self._newton_entry,
            "foucault_system": self._system_factory,
            "disk_system": self._system_factory,
            "make_continuous_system": self._continuous_factory,
            "foucault_reference_ode": self._ode_factory,
            "implicit_dae_integrate": self._bdf2_counter,
        }
        for module_name, attr, layer in PATCH_SITES:
            module = getattr(lib, module_name)
            if getattr(module, attr, None) is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self.patch(module, attr, f"{layer}.{attr}", hooks.get(attr))

    def patch(self, module, attr: str, name: str, hook=None) -> None:
        """Replace ``module.attr`` by a traced wrapper named ``name``."""
        original = getattr(module, attr)
        inner = hook(original) if hook is not None else original
        setattr(module, attr, self.wrap(inner, name))
        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def total(self, series, *names) -> float:
        return sum(series[self.ids[n]] for n in names if n in self.ids)

    def layer_self_time(self, layer: str) -> float:
        prefix = layer + "."
        return sum(t for n, t in zip(self.names, self.self_time) if n.startswith(prefix))

    def write_spans(self, path: str, origin: float) -> None:
        """Kept spans as CSV, times in microseconds from ``origin``."""
        with open(path, "w") as f:
            f.write("run,span,parent,name,start_us,end_us\n")
            for run, span, parent, sid, start, end in self.spans:
                f.write(f"{run},{span},{parent},{self.names[sid]},"
                        f"{(start - origin) * 1e6:.1f},{(end - origin) * 1e6:.1f}\n")
