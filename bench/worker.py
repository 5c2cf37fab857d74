"""Workload process: import qcap, warm up, then run the command list.

Started by `run.py` in a fresh interpreter with BLAS pinned to one
thread.  Every command goes through `qcap.cli.main` in this process, and
its stdout report is captured in memory.  The result, including the
first pass's reports, is written as JSON to `--out`.

Untraced, passes repeat while the next one is expected to end within
`--seconds` (always at least one).  Traced, two plain passes are timed
first, then the tracer is installed and the warm-up command plus one
more pass run under it.

CPU speed on a shared host drifts by up to 2.5x within seconds, and a
small fixed numpy kernel slows by nearly the same factor as the
workload.  Untraced timings are therefore reported twice: raw, and
scaled to a fixed host speed by a `SpeedProbe` that times that kernel
throughout.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


# Duration of one `SpeedProbe.kernel` call when the host runs at full
# speed; scaled times are seconds at that speed.
REF_KERNEL_S = 1.3e-3
PROBE_INTERVAL_S = 0.1
# Host speed holds for seconds at a time, so samples this close to an
# interval also describe it; a 0.1 s command is scaled by about ten.
PROBE_WINDOW_S = 0.5


class SpeedProbe:
    """Times a fixed numpy kernel every `PROBE_INTERVAL_S` or so of wall time.

    Samples come from a SIGALRM handler, so they interleave with the
    workload in this process and thread.  `scaled` turns a wall interval
    into seconds at full host speed: the interval, less the probe's own
    time inside it, times the mean of `REF_KERNEL_S / sample` over the
    samples taken within `PROBE_WINDOW_S` of it.
    """

    def __init__(self, np):
        rng = np.random.default_rng(0)
        G = rng.standard_normal((16, 9, 9)) + 1j * rng.standard_normal((16, 9, 9))
        self._h9 = G + G.conj().swapaxes(-1, -2)
        self._h2 = self._h9[:, :2, :2]
        self._kraus = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
        self._np = np
        self.times: list[float] = []
        self.samples: list[float] = []
        self.spent = 0.0
        self._armed = False

    def kernel(self) -> float:
        np = self._np
        t = time.perf_counter()
        for _ in range(3):
            np.linalg.eigh(self._h9)
            np.einsum("kab,nbc,kdc->nad", self._kraus, self._h2, self._kraus.conj(), optimize=True)
            np.linalg.eigh(self._h2)
        return time.perf_counter() - t

    def _tick(self, signum, frame):
        t = time.perf_counter()
        self.samples.append(self.kernel())
        self.times.append(t)
        self.spent += time.perf_counter() - t
        # Re-armed only now, so a slow kernel can never nest in itself.
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S)

    def __enter__(self):
        self._armed = True
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        # A tick already pending must neither re-arm nor meet SIGALRM's
        # default action, which ends the process.
        self._armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)

    def scaled(self, t0: float, t1: float, spent: float) -> float:
        lo, hi = t0 - PROBE_WINDOW_S, t1 + PROBE_WINDOW_S
        near = [d for t, d in zip(self.times, self.samples) if lo <= t <= hi]
        return (t1 - t0 - spent) * statistics.fmean(REF_KERNEL_S / d for d in near)


def call(cli, argv: list[str]) -> tuple[int, str]:
    """Run one command; return its exit code and stdout."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except Exception:  # noqa: BLE001 - a crashing command is a counted failure
        traceback.print_exc()
        rc = -1
    return rc, buf.getvalue()


def run_pass(cli, commands, first_reports, tracer=None, probe=None):
    """One pass over the commands.

    Returns the pass and each command as `(start, end, probe seconds
    inside)` intervals, with each command's exit code and whether its
    report matches the first pass's byte for byte.
    """
    def spent():
        return probe.spent if probe else 0.0

    rows = []
    t_pass, spent_pass = time.perf_counter(), spent()
    for i, argv in enumerate(commands):
        t, spent_cmd = time.perf_counter(), spent()
        if tracer is None:
            rc, out = call(cli, argv)
        else:
            tracer.request = i + 1
            with tracer.span("cli.main"):
                rc, out = call(cli, argv)
        if len(first_reports) <= i:
            first_reports.append(out)
        rows.append({"rc": rc, "same_report": out == first_reports[i],
                     "interval": (t, time.perf_counter(), spent() - spent_cmd)})
    return {"interval": (t_pass, time.perf_counter(), spent() - spent_pass), "rows": rows}


def settle(pass_: dict, probe: SpeedProbe | None = None) -> dict:
    """Replace a pass's intervals with seconds, and scaled seconds given a probe."""
    for item in [pass_, *pass_["rows"]]:
        t0, t1, spent = item.pop("interval")
        item["seconds"] = t1 - t0 - spent
        if probe is not None:
            item["scaled_s"] = probe.scaled(t0, t1, spent)
    return pass_


def environment(np) -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "pinned_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                        "PYTHONHASHSEED")},
        "nproc": len(os.sched_getaffinity(0)),
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--root", required=True, help="checkout whose src/qcap is measured")
    p.add_argument("--plan", required=True, help="JSON file with 'warmup' and 'commands'")
    p.add_argument("--out", required=True, help="where to write the result JSON")
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    sys.path.insert(0, str(Path(args.root) / "src"))
    import numpy as np
    from qcap import cli

    plan = json.loads(Path(args.plan).read_text())
    rc, _ = call(cli, plan["warmup"])
    setup_s = time.perf_counter() - T0
    probe = SpeedProbe(np)
    speed = statistics.median(REF_KERNEL_S / probe.kernel() for _ in range(9))
    result = {"setup_s": setup_s, "setup_scaled_s": setup_s * speed, "warmup_rc": rc}
    if args.setup_only:
        Path(args.out).write_text(json.dumps(result))
        return 0

    commands = plan["commands"]
    reports: list[str] = []
    passes = []
    if args.trace:
        # Two plain passes: the second, with memory and caches as warm as
        # the traced pass will find them, is the base for the overhead.
        for _ in range(2):
            passes.append(settle(run_pass(cli, commands, reports)))
    else:
        with probe:
            t = time.perf_counter()
            while True:
                passes.append(run_pass(cli, commands, reports, probe=probe))
                if len(passes) == 1:
                    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                elapsed = time.perf_counter() - t
                if elapsed * (1 + 1 / len(passes)) > args.seconds:
                    break
        for pass_ in passes:
            settle(pass_, probe)
    result.update(passes=passes, reports=reports, environment=environment(np),
                  probe_samples=len(probe.samples))
    if args.trace:
        from tracing import Tracer, install, layer_metrics, summarize

        base = passes[-1]["seconds"]
        tracer = Tracer()
        with install(tracer):
            with tracer.span("cli.main"):
                call(cli, plan["warmup"])
            traced = run_pass(cli, commands, reports, tracer)
        passes.append(settle(traced))
        result["layers"] = layer_metrics(tracer)
        result["layers"]["trace.overhead_s"] = traced["seconds"] - base
        result["spans"] = summarize(tracer.spans)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
