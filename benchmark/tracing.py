"""Span tracing installed from outside the program, and per-layer statistics.

`Tracer.install` replaces each traced function with a timing wrapper on every
name a ``rydqnd`` module binds it to (so ``inference.evolve_blocks`` and
``engine.dyn.evolve_blocks`` both record), except ``expm``, which is wrapped
separately where ``dynamics`` and ``cli`` bind it.  Spans (name, start, end,
parent, op) are kept in compact in-memory arrays and written to an ``.npz``
file when the run ends; `layer_metrics` turns that file into per-op numbers.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

# (metric label, module, attribute, rebind every module that binds it)
TRACED = (
    ("cli.main", "cli", "main", True),
    ("engine.run_batch", "engine", "run_batch", True),
    ("engine.run_protocol", "engine", "run_protocol", True),
    ("engine.schedule_next_tau", "engine", "schedule_next_tau", True),
    ("analysis.greedy_next_tau", "analysis", "greedy_next_tau", True),
    ("inference.SequentialInference.update", "inference", "SequentialInference.update", True),
    ("inference.SequentialInference.posterior", "inference",
     "SequentialInference.posterior", True),
    ("inference.ConditionalState.update", "inference", "ConditionalState.update", True),
    ("dynamics.evolve_blocks", "dynamics", "evolve_blocks", True),
    ("dynamics.evolve_block", "dynamics", "evolve_block", True),
    ("dynamics.measure_block", "dynamics", "measure_block", True),
    ("dynamics.project_blocks", "dynamics", "project_blocks", True),
    ("dynamics.sector_probabilities", "dynamics", "sector_probabilities", True),
    ("dynamics.retrieval_fidelity", "dynamics", "retrieval_fidelity", True),
    ("dynamics.symmetric_state_blocks", "dynamics", "symmetric_state_blocks", True),
    ("dynamics.eject_block", "dynamics", "eject_block", True),
    ("dynamics.evolve_pure", "dynamics", "evolve_pure", True),
    ("dynamics.measure_pure", "dynamics", "measure_pure", True),
    ("symbasis.build_block", "symbasis", "build_block", True),
    ("symbasis.enumerate_basis", "symbasis", "enumerate_basis", True),
    ("symbasis.trace_vector", "symbasis", "trace_vector", True),
    ("dense_oracle.evolve_dense", "dense_oracle", "evolve_dense", True),
    ("dynamics.expm", "dynamics", "expm", False),
    ("cli.expm", "cli", "expm", False),
)
LABELS = tuple(label for label, *_ in TRACED)
STATS = (("calls", "calls/op"), ("self_ms", "ms/op"), ("us_per_call", "us"))
MISS_RATIO = "dynamics.propagator_miss_ratio"
OVERHEAD = "tracing_overhead_frac"


def per_layer_names() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric, in report order."""
    out = [(f"{label}.{stat}", unit) for label in LABELS for stat, unit in STATS]
    return out + [(MISS_RATIO, "ratio"), (OVERHEAD, "ratio")]


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.name = array("h")
        self.op = array("i")
        self.op_id = -1
        self._stack = [-1]

    def _wrap(self, fn, name_id: int):
        start, end, parent, name, op, stack = (self.start, self.end, self.parent,
                                               self.name, self.op, self._stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1])
            name.append(name_id)
            op.append(self.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = {name.rsplit(".", 1)[-1]: mod for name, mod in sys.modules.items()
                   if name == "rydqnd" or name.startswith("rydqnd.")}
        for name_id, (_label, modname, attr, everywhere) in enumerate(TRACED):
            mod = modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self._wrap(getattr(cls, meth), name_id))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(orig, name_id)
            targets = modules.values() if everywhere else (mod,)
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is orig:
                        setattr(target, key, wrapper)

    def save(self, path) -> None:
        import numpy as np
        np.savez(path, start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 name=np.frombuffer(self.name, dtype=np.int16),
                 op=np.frombuffer(self.op, dtype=np.int32), labels=np.array(LABELS))


def layer_metrics(path, n_ops: int) -> dict[str, float]:
    """Per-op calls and self time, and median time per call, from a span file.

    Self time is a span's duration minus the time its traced child spans
    cover; functions that are not traced count toward their caller's self time.
    """
    import numpy as np
    data = np.load(path)
    start, end, parent, name = data["start"], data["end"], data["parent"], data["name"]
    dur = end - start
    child = np.zeros(dur.size)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child
    out: dict[str, float] = {}
    for name_id, label in enumerate(data["labels"].tolist()):
        mask = name == name_id
        calls = int(mask.sum())
        out[f"{label}.calls"] = calls / n_ops
        out[f"{label}.self_ms"] = 1e3 * float(self_time[mask].sum()) / n_ops
        out[f"{label}.us_per_call"] = 1e6 * float(np.median(dur[mask])) if calls else 0.0
    evolves = out["dynamics.evolve_block.calls"]
    out[MISS_RATIO] = out["dynamics.expm.calls"] / evolves if evolves else 0.0
    return out
