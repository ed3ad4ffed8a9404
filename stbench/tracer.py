"""Per-function spans around stmotion's public functions, from outside.

The tracer replaces every public function of the given modules with a timing
wrapper, at every module attribute through which the function is reachable:
``training.forward`` is ``model.forward``, ``model.project_to_so3`` is
``so3.project_to_so3``. A function is attributed to its home module (its
layer), whichever alias it was called through. Wrapping only the home
attribute would silently lose every call made through an alias.

Self time is a span's duration minus the time covered by the spans it
caused. Spans are kept as running sums per function name, in one table per
phase ("setup", "run"); no per-call record is stored.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Stat:
    calls: int = 0
    failed: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    extra: dict = field(default_factory=lambda: defaultdict(float))


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _count_backward(st, args, kwargs, result):
    st.extra["tape_ops"] += len(_arg(args, kwargs, 1, "tape").ops)


def _count_forward(st, args, kwargs, result):
    stats = result[2]
    st.extra["workspace_elements"] += stats.workspace_elements
    st.extra["scores_per_layer"] += stats.scores_per_layer[0] if stats.scores_per_layer else 0


def _count_matrices(st, args, kwargs, result):
    st.extra["matrices"] += np.asarray(_arg(args, kwargs, 0, "A")).size // 9


def _count_file_bytes(st, args, kwargs, result):
    st.extra["bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


# Counters read from a call's arguments or result, keyed by "<layer>.<function>".
COUNTERS = {
    "tensor.backward": _count_backward,
    "model.forward": _count_forward,
    "so3.project_to_so3": _count_matrices,
    "motiondata.load_motion": _count_file_bytes,
    "motiondata.save_motion": _count_file_bytes,
}


class Tracer:
    """Wraps public functions of ``modules``; records only inside a phase."""

    def __init__(self, modules):
        self.modules = list(modules)
        self.tables: dict[str, dict[str, Stat]] = defaultdict(lambda: defaultdict(Stat))
        self._table = None          # the current phase's table; None records nothing
        self._child_s: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self):
        if self._patched:
            return
        wrappers = {}
        for mod in self.modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__
                if not home.startswith("stmotion."):
                    continue
                name = f"{home.rsplit('.', 1)[1]}.{obj.__name__}"
                wrapper = wrappers.get(id(obj))
                if wrapper is None:
                    wrapper = wrappers[id(obj)] = self._wrap(obj, name)
                setattr(mod, attr, wrapper)
                self._patched.append((mod, attr, obj))

    def uninstall(self):
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def aliases(self) -> dict[str, list[str]]:
        """Wrapped name -> every "<module>.<attribute>" it was installed at."""
        out = defaultdict(list)
        for mod, attr, obj in self._patched:
            name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
            out[name].append(f"{mod.__name__.split('.')[-1]}.{attr}")
        return dict(out)

    # -- recording --------------------------------------------------------

    def start(self, phase: str):
        self._table = self.tables[phase]

    def stop(self):
        self._table = None

    def _wrap(self, fn, name):
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            table = tracer._table
            if table is None:
                return fn(*args, **kwargs)
            st = table[name]
            child = tracer._child_s
            child.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                st.failed += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                st.calls += 1
                st.total_s += dt
                st.self_s += dt - child.pop()
                if child:
                    child[-1] += dt
            if counter is not None:
                counter(st, args, kwargs, result)
            return result

        return traced
