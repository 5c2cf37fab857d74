"""In-memory spans around calls into each qcap layer, and their arithmetic.

The benchmark records spans from its own files: `install` wraps the
functions each qcap module calls across a layer boundary, in the
namespace of the module that calls them, and restores them on exit.
Nothing inside the package changes.

A span is `(name, parent, start, end, attrs)`, with `parent` the index
of the enclosing span or -1.  Spans stay in memory until the run ends.
A span's self time is its duration minus the part of that interval its
child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np


@dataclass(slots=True)
class Span:
    name: str
    parent: int
    start: float
    end: float = 0.0
    attrs: dict | None = None
    request: int = 0


@dataclass
class Tracer:
    """Collects spans; `request` tags every span with the command it served."""

    spans: list[Span] = field(default_factory=list)
    request: int = 0
    _stack: list[int] = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, parent, time.perf_counter(), request=self.request))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()


def self_times(spans: list[Span]) -> list[float]:
    """Per-span duration minus the union of its children's intervals.

    Children are clipped to their parent's interval before the union is
    taken, so overlapping or overhanging children are not counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out


def summarize(spans: list[Span]) -> dict[str, dict]:
    """Calls, inclusive seconds and self seconds per span name path.

    Keys are slash-joined name chains from the root span, e.g.
    `cli.main/solver.multi_start/solver.run/solver.step`.
    """
    selfs = self_times(spans)
    paths: list[str] = []
    table: dict[str, dict] = {}
    for s, self_s in zip(spans, selfs):
        path = s.name if s.parent < 0 else f"{paths[s.parent]}/{s.name}"
        paths.append(path)
        row = table.setdefault(path, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s.end - s.start
        row["self_s"] += self_s
    return table


def _wrap(tracer: Tracer, fn, name: str, attrs=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
            if attrs is not None:
                tracer.spans[idx].attrs = attrs(args, out)
            return out
        finally:
            tracer.close(idx)

    return traced


def _channel_size(args, out):
    ch = args[0]
    return {"generators": ch.n_generators, "generator_bytes": ch.kraus.nbytes}


def _run_outcome(args, out):
    return {"iterations": out.iterations_used, "capacity": out.capacity}


@contextlib.contextmanager
def install(tracer: Tracer):
    """Wrap the layer-boundary calls of an imported qcap; restore on exit.

    Each entry names the namespace a caller looks the function up in,
    since `from .x import f` binds `f` separately in every importer.
    """
    from qcap import channels, cli, entropy, linalg, solver

    targets = [
        (cli, "load_channel", "channels.load", None),
        (cli, "tp_residual", "channels.validate", None),
        (cli, "validate", "channels.validate", None),
        (cli, "tensor", "channels.tensor", None),
        (cli, "fixture_channel", "fixtures.build", None),
        (cli, "multi_start", "solver.multi_start", _channel_size),
        (solver, "run", "solver.run", _run_outcome),
        (solver, "ab_step", "solver.step", None),
        (solver, "mutual_info", "entropy.mutual_info", None),
        (solver, "entanglement", "entropy.entanglement", None),
        (cli, "entanglement", "entropy.entanglement", None),
        (channels, "_apply_batch", "channels.apply", None),
        (solver, "_apply_batch", "channels.apply", None),
        (entropy, "_apply_batch", "channels.apply", None),
        (linalg, "_log_psd_batch", "linalg.log", None),
        (solver, "_log_psd_batch", "linalg.log", None),
        (entropy, "_log_psd_batch", "linalg.log", None),
        (np.linalg, "eigh", "numpy.eigh", None),
        (np.linalg, "eigvalsh", "numpy.eigh", None),
        (np, "einsum", "numpy.einsum", None),
    ]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in targets]
    try:
        for mod, attr, name, attrs in targets:
            setattr(mod, attr, _wrap(tracer, getattr(mod, attr), name, attrs))
        yield tracer
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


AGREE_TOL = 1e-6


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures from a traced pass.

    Time and count totals cover every span, including the warm-up command
    (request 0), which reaches every layer so that none reads zero.  The
    ratios and sizes describe only the workload's own requests: the share
    of agreeing starts, eigendecompositions per iteration and the largest
    channel solved.
    """
    spans = tracer.spans
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    for s, st in zip(spans, self_times(spans)):
        calls[s.name] += 1
        total[s.name] += s.end - s.start
        self_s[s.name] += st

    def in_run(s: Span) -> bool:
        return s.parent >= 0 and spans[s.parent].name == "solver.run"

    work = [s for s in spans if s.request > 0]
    runs_by_parent: dict[int, list[Span]] = defaultdict(list)
    for s in work:
        if s.name == "solver.run":
            runs_by_parent[s.parent].append(s)
    starts = agreeing = 0
    for runs in runs_by_parent.values():
        best = max(r.attrs["capacity"] for r in runs)
        starts += len(runs)
        agreeing += sum(best - r.attrs["capacity"] <= AGREE_TOL for r in runs)

    # Eigendecompositions per iteration, read phase by phase inside the
    # solver loop: one mutual_info, one step and (when tracked) one
    # entanglement make up an iteration.
    phases = ("entropy.mutual_info", "solver.step", "entropy.entanglement")
    phase_calls: dict[str, int] = defaultdict(int)
    phase_eigh: dict[str, int] = defaultdict(int)
    for s in work:
        if s.name in phases and in_run(s):
            phase_calls[s.name] += 1
        if s.name == "numpy.eigh":
            p = s.parent
            while p >= 0 and spans[p].name not in phases:
                p = spans[p].parent
            if p >= 0 and in_run(spans[p]):
                phase_eigh[spans[p].name] += 1
    eigh_per_iter = sum(phase_eigh[n] / phase_calls[n] for n in phases if phase_calls[n])

    sized = [s.attrs for s in work if s.name == "solver.multi_start"]
    largest = max(sized, key=lambda a: a["generator_bytes"], default=None)

    return {
        "solver.iterations": sum(s.attrs["iterations"] for s in spans if s.name == "solver.run"),
        "solver.starts": calls["solver.run"],
        "solver.agreeing_starts_frac": agreeing / starts if starts else 0.0,
        "solver.step_calls": calls["solver.step"],
        "solver.step_self_s": self_s["solver.step"],
        "solver.run_self_s": self_s["solver.run"],
        "entropy.mutual_info_calls": calls["entropy.mutual_info"],
        "entropy.mutual_info_s": total["entropy.mutual_info"],
        "entropy.entanglement_s": total["entropy.entanglement"],
        "channels.apply_calls": calls["channels.apply"],
        "channels.apply_s": total["channels.apply"],
        "channels.generators": largest["generators"] if largest else 0,
        "channels.generator_bytes": largest["generator_bytes"] if largest else 0,
        "channels.load_s": total["channels.load"],
        "channels.validate_s": total["channels.validate"],
        "channels.tensor_s": total["channels.tensor"],
        "fixtures.build_s": total["fixtures.build"],
        "linalg.log_calls": calls["linalg.log"],
        "linalg.log_s": total["linalg.log"],
        "numpy.eigh_calls": calls["numpy.eigh"],
        "numpy.eigh_s": total["numpy.eigh"],
        "numpy.eigh_calls_per_iter": eigh_per_iter,
        "numpy.einsum_calls": calls["numpy.einsum"],
        "numpy.einsum_s": total["numpy.einsum"],
        "cli.self_s": self_s["cli.main"],
    }
