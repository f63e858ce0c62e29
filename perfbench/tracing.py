"""In-memory spans around calls into fracopt's public layers.

The benchmark never edits the library: `Tracer.installed()` swaps wrappers
in for the public functions and methods listed in `TRACED`, wherever a
fracopt module holds them, and puts the originals back on exit.  Each span
records its name, start, end, parent span and problem id; counters are
attached at the same boundary.  Spans are strictly nested because the
benchmark is single-threaded, so a span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    problem: Optional[str] = None
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.problem, self.counts]


def _optimizer_counts(args, result) -> Dict[str, float]:
    report = result[-1]  # both optimizers return the report last
    return {"iterations": report.iterations, "state_solves": report.n_state_solves}


def _assembly_counts(args, result) -> Dict[str, float]:
    return {"dofs": result.n}


# (module, attribute, span name, counter hook).  Classes are traced through
# their methods so that every construction site is covered.
TRACED = (
    ("meshes", "BasePartition.__init__", "meshes.build", None),
    ("meshes", "GradedPartition.__init__", "meshes.build", None),
    ("meshes", "TensorMesh.__init__", "meshes.build", None),
    ("fem", "assemble_stiffness", "fem.assemble", _assembly_counts),
    ("fem", "assemble_trace_load", "fem.load", None),
    ("fem", "CylinderOperator.solve", "fem.solve", None),
    ("fem", "energy_error_galerkin", "fem.error", None),
    ("fem", "l2_trace_error", "fem.error", None),
    ("control", "ReducedProblem.__init__", "control.setup", None),
    ("control", "solve_fully_discrete", "control.optimize", _optimizer_counts),
    ("control", "solve_variational", "control.optimize", _optimizer_counts),
    ("control", "optimality_residuals", "control.certify", None),
    ("spectral", "eigenpair", "spectral.oracle", None),
    ("spectral", "extension_profile", "spectral.oracle", None),
    ("manufactured", "build_manufactured", "manufactured.build", None),
    ("study", "run_oracle_check", "study.run", None),
    ("study", "run_rate_study", "study.run", None),
    ("study", "emit_report", "study.report", None),
)


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self.problem: Optional[str] = None
        self._stack: List[int] = []
        self._factored = weakref.WeakSet()  # operators past their first solve

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent, problem=self.problem))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield self.spans[idx]
        finally:
            self._close(idx)

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                self.spans[idx].counts = count(args, result)
            return result
        return traced

    def _wrap_solve(self, fn: Callable) -> Callable:
        # The first solve on an operator includes its factorization.
        @functools.wraps(fn)
        def traced(op, *args, **kwargs):
            first = op not in self._factored
            idx = self._open("fem.factor" if first else "fem.solve")
            try:
                return fn(op, *args, **kwargs)
            finally:
                self._close(idx)
                self._factored.add(op)
        return traced

    @contextmanager
    def installed(self):
        """Trace every public call listed in TRACED while the block runs."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "fracopt" or name.startswith("fracopt."))]
        patches = []  # (owner, attribute, original)
        try:
            for mod_name, attr, span_name, count in TRACED:
                home = sys.modules[f"fracopt.{mod_name}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[meth]
                    wrapper = (self._wrap_solve(orig) if attr == "CylinderOperator.solve"
                               else self.wrap(span_name, orig, count))
                    patches.append((cls, meth, orig))
                    setattr(cls, meth, wrapper)
                    continue
                orig = getattr(home, attr)
                wrapper = self.wrap(span_name, orig, count)
                for mod in modules:
                    if getattr(mod, attr, None) is orig:
                        patches.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)
            yield self
        finally:
            for owner, attr, orig in reversed(patches):
                setattr(owner, attr, orig)


def self_times(spans: List[Span]) -> List[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out
