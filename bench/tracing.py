"""Span tracing of echosense from the benchmark's side.

``Tracer.install`` wraps every public function, method and property of
each echosense module and rebinds the wrapper wherever the program looks
the name up: module globals that imported it by name (``harness`` holds
``accumulate_phase``, ``sensitivity`` holds ``build_synchronized``), dict
values (``cli.SWEEPS``) and class attributes (``RFWaveform.integral``,
which ``unit_integral`` calls through ``self``).  The source is not
modified; ``uninstall`` puts every original back.

Each call records one span: name, parent span, the benchmark op it ran
under, and start/end in nanoseconds.  Spans are kept in flat arrays in
memory and turned into per-layer numbers by ``layer_metrics``; a span's
self time is its duration minus the duration of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from array import array
from enum import Enum

import numpy as np

#: the layers: echosense modules whose public names are wrapped
LAYERS = ("core", "sequence", "rf", "analytic", "blochsim", "echo",
          "sensitivity", "harness", "cli")

#: spans whose inclusive time is CSV emission
EMIT = ("harness.write_csv", "harness.sweep_rows", "harness.split_rows",
        "harness.run_directory", "sensitivity.reports_to_rows")
SWEEPS = ("harness.run_sweep_amplitude", "harness.run_sweep_phase",
          "harness.run_symmetry", "harness.run_split_interval",
          "harness.run_dd_sweep", "harness.run_sensitivity")
RF_INTEGRAL = ("rf.RFWaveform.integral", "rf.RFWaveform.unit_integral")


def _evolve_attrs(fn):
    sig = inspect.signature(fn)

    def attrs(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        # len(pulses) - 1 is the pi count; the traced n_pi property would
        # record a span of its own
        return (a["mode"].value,
                a["ens"].n_packets * len(a["seq"].pulses))
    return attrs


def _write_csv_attrs(args, kwargs):
    path = args[0] if args else kwargs["path"]
    rows = args[1] if len(args) > 1 else kwargs["rows"]
    return (len(rows), os.path.getsize(path))


#: per-call details recorded for the spans that need them
ATTRS = {"blochsim.evolve": _evolve_attrs,
         "harness.write_csv": lambda fn: _write_csv_attrs}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.t0 = array("q")
        self.t1 = array("q")
        self.attrs: dict[int, tuple] = {}
        self.op = -1
        self._stack = [-1]
        self._restore: list = []

    def clear(self) -> None:
        for col in (self.name_id, self.parent, self.op_id, self.t0, self.t1):
            del col[:]
        self.attrs.clear()

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        attrs = ATTRS[name](fn) if name in ATTRS else None
        clock = time.perf_counter_ns
        name_id, parent, op_id = self.name_id, self.parent, self.op_id
        t0, t1, stack, tracer = self.t0, self.t1, self._stack, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            op_id.append(tracer.op)
            t0.append(0)
            t1.append(0)
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                t0[sid] = start
                t1[sid] = end
                if attrs is not None:
                    tracer.attrs[sid] = attrs(args, kwargs)

        return traced

    def _set(self, owner, key, value, setter=setattr, getter=getattr):
        self._restore.append((owner, key, getter(owner, key), setter))
        setter(owner, key, value)

    def install(self, package) -> None:
        """Wrap every public callable of the layer modules of ``package``."""
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(
                        obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self._wrap(obj, f"{layer}.{name}")
                elif inspect.isclass(obj) and not issubclass(
                        obj, (Enum, BaseException)):
                    self._wrap_class(layer, obj)
        # rebind at every lookup site, the package namespace included
        for mod in (package, *modules.values()):
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, name, wrapped[obj])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and val in wrapped:
                            self._set(obj, key, wrapped[val],
                                      dict.__setitem__, dict.__getitem__)

    def _wrap_class(self, layer: str, cls) -> None:
        for name, val in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            key = f"{layer}.{cls.__name__}.{name}"
            if inspect.isfunction(val):
                self._set(cls, name, self._wrap(val, key))
            elif isinstance(val, property) and val.fget is not None:
                self._set(cls, name, property(self._wrap(val.fget, key),
                                              val.fset, val.fdel, val.__doc__))

    def uninstall(self) -> None:
        for owner, key, old, setter in reversed(self._restore):
            setter(owner, key, old)
        self._restore.clear()

    # -- analysis -----------------------------------------------------------

    def columns(self) -> dict:
        """The recorded spans as numpy columns, with inclusive and self ns."""
        if len(self._stack) != 1:
            raise RuntimeError("spans still open")
        cols = {"name_id": np.array(self.name_id, dtype=np.int32),
                "parent": np.array(self.parent, dtype=np.int32),
                "op": np.array(self.op_id, dtype=np.int32),
                "t0": np.array(self.t0, dtype=np.int64),
                "t1": np.array(self.t1, dtype=np.int64)}
        dur = cols["t1"] - cols["t0"]
        child = np.zeros_like(dur)
        nested = cols["parent"] >= 0
        np.add.at(child, cols["parent"][nested], dur[nested])
        cols["dur"] = dur
        cols["self"] = dur - child
        return cols

    def mask(self, cols: dict, names) -> np.ndarray:
        """Spans whose name is in ``names`` (or starts with ``names`` when
        it is a string, e.g. a layer prefix)."""
        if isinstance(names, str):
            ids = [i for i, n in enumerate(self.names) if n.startswith(names)]
        else:
            ids = [i for i, n in enumerate(self.names) if n in names]
        return np.isin(cols["name_id"], ids)

    def under(self, cols: dict, names) -> np.ndarray:
        """Spans that are one of ``names`` or nested inside one."""
        inside = self.mask(cols, names)
        if not inside.any():
            return inside
        parent = cols["parent"]
        for sid in range(len(parent)):  # parents precede their children
            if not inside[sid] and parent[sid] >= 0 and inside[parent[sid]]:
                inside[sid] = True
        return inside


def _ms(ns) -> float:
    return float(np.sum(ns)) / 1e6


def layer_metrics(tracer: Tracer, cols: dict, points: int):
    """Per-layer numbers of one traced pass over ``points`` points, from
    its ``tracer.columns()``, and the inclusive ms of each evolve call by
    pulse mode (for percentiles pooled over passes)."""
    m, call_ms = {}, {}
    for layer in ("core", "sequence", "analytic", "echo"):
        sel = tracer.mask(cols, layer + ".")
        m[f"{layer}.calls"] = int(sel.sum())
        m[f"{layer}.self_ms"] = _ms(cols["self"][sel])

    rf = tracer.mask(cols, "rf.")
    integral = tracer.mask(cols, RF_INTEGRAL)
    build = rf & ~tracer.mask(cols, "rf.RFWaveform.")
    m["rf.build_calls"] = int(build.sum())
    m["rf.build_self_ms"] = _ms(cols["self"][build])
    m["rf.integral_calls"] = int(integral.sum())
    m["rf.integral_self_ms"] = _ms(cols["self"][integral])

    evolve = np.flatnonzero(tracer.mask(cols, ("blochsim.evolve",)))
    m["blochsim.evolve_calls"] = len(evolve)
    m["blochsim.evolves_per_point"] = len(evolve) / points
    intervals_total = 0
    for mode in ("ideal", "finite"):
        sids = [s for s in evolve if tracer.attrs[s][0] == mode]
        intervals = sum(tracer.attrs[s][1] for s in sids)
        intervals_total += intervals
        dur = cols["dur"][sids]
        call_ms[mode] = (dur / 1e6).tolist()
        m[f"blochsim.{mode}_self_ms"] = _ms(cols["self"][sids])
        m[f"blochsim.{mode}_ns_per_packet_interval"] = (
            float(np.sum(dur)) / intervals if intervals else 0.0)
    m["blochsim.packet_intervals"] = intervals_total
    echo_obs = tracer.mask(cols, ("blochsim.echo_observable",))
    m["blochsim.echo_observable_self_ms"] = _ms(cols["self"][echo_obs])

    fit = tracer.mask(cols, ("sensitivity.fit_transduction",))
    m["sensitivity.fit_calls"] = int(fit.sum())
    m["sensitivity.fit_self_ms"] = _ms(cols["self"][fit])
    dd = tracer.mask(cols, ("sensitivity.dd_sensitivity_sweep",))
    m["sensitivity.dd_sweep_self_ms"] = _ms(cols["self"][dd])

    in_sweep = tracer.under(cols, SWEEPS) & tracer.mask(cols, "harness.")
    m["harness.sweep_self_ms"] = _ms(cols["self"][in_sweep])
    m["harness.emit_ms"] = _ms(cols["dur"][tracer.mask(cols, EMIT)])
    writes = [a for s, a in tracer.attrs.items()
              if tracer.names[cols["name_id"][s]] == "harness.write_csv"]
    m["harness.csv_rows"] = sum(a[0] for a in writes)
    m["harness.csv_bytes"] = sum(a[1] for a in writes)
    m["cli.self_ms"] = _ms(cols["self"][tracer.mask(cols, "cli.")])
    m["trace.spans"] = len(cols["dur"])
    return m, call_ms
