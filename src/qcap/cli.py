"""Command line front end.

Subcommands: `capacity` (single channel), `additivity` (two channels and
their product), `regularized` (per-copy capacity of N copies), `validate`
(channel descriptor checks).  Reports are JSON on stdout or in `--out`,
`--trace` files are per-iteration CSV.  Given identical inputs, flags and
seed, every report is byte-identical.

Exit codes:
- 0 success;
- 2 bad input: a parse or validation failure, a channel, product or start
  stack over the size budget, or a report or trace that cannot be written;
- 3 numerical failure;
- 4 non-convergence under `--strict`.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import functools
import itertools
import json
import os
import sys
from pathlib import Path

import numpy as np

from .channels import Channel, load_channel, tensor, validate
from .entropy import entanglement
from .fixtures import FIXTURE_NAMES, fixture_channel
from .solver import MAX_DECIMAL_PLACES, CapacityResult, SolverConfig, multi_start

# Not called here, but bench/tracing.py wraps this binding, so it stays.
from .channels import tp_residual  # noqa: F401

# glibc's `mallopt` parameters (malloc.h) and the values `main` gives them.
# The ket step's temporaries are 0.1-1 MB each, and most come from eigh,
# eigvalsh and solve, which allocate their outputs.  At glibc's defaults
# each is mapped or trimmed and faulted back in on every iteration: 62k-93k
# minor faults in a warm pass of the three qutrit `additivity` rows, and
# 2-928 with these.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_BYTES, _MMAP_BYTES = 16 << 20, 8 << 20


@functools.cache
def _steady_heap() -> None:
    # Once per process: let the C heap, not fresh mappings, serve blocks
    # below _MMAP_BYTES, and keep up to _TRIM_BYTES of free heap top.  The
    # setting is process-wide, so the CLI makes it and `import qcap` never
    # does.  Where the C library has no `mallopt`, nothing is set.
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if os.name == "posix" else None
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, _MMAP_BYTES)
        mallopt(_M_TRIM_THRESHOLD, _TRIM_BYTES)


def _require_budget(factors) -> None:
    # Every command's size rule, checked before any validate, tensor or
    # solve: the product of `factors` has dimensions at most 16 and at most
    # 256 generators, each factor counted as at least two.  The count stops
    # at the first factor over a limit, so no large power is formed.
    dim_in = dim_out = gens = 1
    for n, ch in enumerate(factors, 1):
        dim_in, dim_out = dim_in * ch.dim_in, dim_out * ch.dim_out
        gens *= max(ch.n_generators, 2)
        if max(dim_in, dim_out) > 16:
            raise ValueError(
                f"{n} factor(s), {dim_in} -> {dim_out}: over the dimension budget (16)"
            )
        if gens > 256:
            raise ValueError(f"{n} factor(s), {gens} generators: over the generator budget (256)")


def _lookup(arg: str) -> Channel:
    # A descriptor path or, where no such path exists, a built-in name
    # like "gamma2", within the size budget.
    if Path(arg).exists():
        ch = load_channel(arg)
    elif arg in FIXTURE_NAMES:
        ch = fixture_channel(arg)
    else:
        raise ValueError(f"no such channel file or built-in name: {arg}")
    _require_budget([ch])
    return ch


def _channel(arg: str) -> Channel:
    # A channel to solve must be trace preserving; a non-PSD Choi operator
    # only draws a warning so that signed maps stay usable end to end.
    ch = _lookup(arg)
    report = validate(ch)
    if not report.tp_ok:
        raise ValueError(f"{arg}: not trace preserving (residual {report.tp_residual:.3e})")
    if not report.cp_ok:
        print(
            f"warning: {arg}: not completely positive "
            f"(min Choi eigenvalue {report.choi_min_eigenvalue:.6e}); "
            "proceeding with its signed form",
            file=sys.stderr,
        )
    return ch


def _config(args, ch: Channel) -> SolverConfig:
    # Resolved for `ch`; the start rule bounds its (s, n, d, d) stacks.
    if not 1 <= args.places <= MAX_DECIMAL_PLACES:
        raise ValueError(f"--places must be from 1 to {MAX_DECIMAL_PLACES}, got {args.places}")
    cfg = SolverConfig(
        n_states=args.states,
        starts=args.starts,
        seed=args.seed,
        decimal_places=args.places,
        patience=args.patience,
        max_iters=args.max_iters,
    ).resolved(ch)
    d = max(ch.dim_in, ch.dim_out)
    if cfg.starts * cfg.n_states * d * d > 2**22:
        raise ValueError(f"{cfg.starts} start(s) of {cfg.n_states} {d}x{d} state(s): "
                         f"over the start budget ({2**22} entries)")
    return cfg


def _result_fields(res: CapacityResult) -> dict:
    # Checked here, before any trace or report is written, so that a
    # numerical failure leaves no file behind.
    states = res.ensemble.states
    if not np.isfinite(states).all():
        raise np.linalg.LinAlgError("non-finite entry in the ensemble states")
    return {
        "capacity_nats": res.capacity,
        "converged": res.converged,
        "iterations": res.iterations_used,
        "start_index": res.start_index,
        "ensemble": {
            "weights": res.ensemble.weights.tolist(),
            # Kept as the complex (n, d, d) array; `_report_pieces` writes it.
            "states": states,
        },
    }


# Stands in for the ensemble's states while `json.dumps` lays out the rest.
_STATES_MARK = "<states>"


def _array_template(shape: tuple, level: int) -> str:
    # `json.dumps(indent=2)` of a nested list of this shape whose opening
    # bracket sits `level` indents deep, with `{}` for each number.
    if not shape:
        return "{}"
    if shape[0] == 0:
        return "[]"
    pad = "\n" + "  " * (level + 1)
    item = _array_template(shape[1:], level + 1)
    return "[" + pad + ("," + pad).join([item] * shape[0]) + "\n" + "  " * level + "]"


def _report_pieces(report: dict):
    # Yields, in order, the bytes of `json.dumps(report, indent=2,
    # sort_keys=True)` with each ensemble state written as its nested
    # `[re, im]` lists.  The states go straight from their array through
    # `_array_template`: `format(x, "")` of a float is `repr(x)`, which is
    # what `json` writes for a finite float.  Each distinct state, keyed
    # by its bytes (so -0.0 and 0.0 stay apart), is formatted once and its
    # block kept only until its last copy is out.
    if "ensemble" not in report:
        yield json.dumps(report, indent=2, sort_keys=True) + "\n"
        return
    states = report["ensemble"]["states"]
    # A complex entry holds its real and imaginary parts side by side, so
    # each row is one state's numbers in `[re, im]` order.
    wire = np.ascontiguousarray(states, dtype=complex).view(np.float64).reshape(len(states), -1)
    marked = {**report, "ensemble": {**report["ensemble"], "states": _STATES_MARK}}
    head, tail = json.dumps(marked, indent=2, sort_keys=True).split(json.dumps(_STATES_MARK))
    # "states" sits in "ensemble" in the report, two indents deep, and
    # holds at least one state: an ensemble's weights sum to 1.
    pad = "\n" + "  " * 3
    template = _array_template((*states.shape[1:], 2), 3)
    keys = [row.tobytes() for row in wire]
    last = {key: i for i, key in enumerate(keys)}
    blocks: dict[bytes, str] = {}
    yield head + "[" + pad
    for i, key in enumerate(keys):
        block = blocks.pop(key, None)
        if block is None:
            block = template.format(*wire[i].tolist())
        if last[key] > i:
            blocks[key] = block
        if i:
            yield "," + pad
        yield block
    yield "\n" + "  " * 2 + "]" + tail + "\n"


def _emit(report: dict | str, out: str | None) -> None:
    # JSON reports and CSV traces share one stdout-or-file path.  A report
    # is written in pieces, never held whole, and flushed: a failed write
    # raises in `main`.
    pieces = [report] if isinstance(report, str) else _report_pieces(report)
    if not out:
        sys.stdout.writelines(pieces)
        sys.stdout.flush()
        return
    with open(out, "w") as f:
        f.writelines(pieces)


def _trace_rows(res: CapacityResult) -> str:
    has_ent = res.trace.ent is not None
    lines = ["k,mutual_info_nats" + (",ent_nats" if has_ent else "")]
    for i, v in enumerate(res.trace.mutual_info, start=1):
        row = f"{i},{v:.9g}"
        if has_ent:
            row += f",{res.trace.ent[i - 1]:.9g}"
        lines.append(row)
    return "\n".join(lines) + "\n"


def _strict_exit(args, *results: CapacityResult) -> int:
    if args.strict and not all(r.converged for r in results):
        print("error: solver did not converge within --max-iters", file=sys.stderr)
        return 4
    return 0


def _require_distinct_files(args) -> None:
    # A report written over its own trace would leave neither whole.
    # `realpath` (unlike `Path.resolve`) raises nothing on a symlink loop;
    # the write then fails as bad input.
    if args.trace and args.out and os.path.realpath(args.trace) == os.path.realpath(args.out):
        raise ValueError(f"--trace and --out name the same file: {args.out}")


def cmd_capacity(args) -> int:
    _require_distinct_files(args)
    ch = _channel(args.channel)
    res = multi_start(ch, _config(args, ch))
    report = _result_fields(res)
    if args.trace:
        _emit(_trace_rows(res), args.trace)
    _emit(report, args.out)
    return _strict_exit(args, res)


def cmd_additivity(args) -> int:
    _require_distinct_files(args)
    # A self-pair (the paper's diagonal rows) is read, validated and solved once.
    lhs = _channel(args.lhs)
    rhs = lhs if args.rhs == args.lhs else _channel(args.rhs)
    _require_budget([lhs, rhs])
    prod = tensor(lhs, rhs)
    # --states and --starts size the product solve; the factors keep their defaults.
    cfg = _config(args, prod)
    marginal = dataclasses.replace(cfg, n_states=None, starts=None)
    r1 = multi_start(lhs, marginal)
    r2 = r1 if rhs is lhs else multi_start(rhs, marginal)
    dims = (lhs.dim_in, rhs.dim_in)
    # Only the trace reads the per-iteration entanglement; the report
    # takes it from the final ensemble alone.
    rp = multi_start(prod, cfg, ent_dims=dims if args.trace else None)
    report = _result_fields(rp)
    report.update(
        c1=r1.capacity,
        c2=r2.capacity,
        sum=r1.capacity + r2.capacity,
        c_product=rp.capacity,
        gap=rp.capacity - (r1.capacity + r2.capacity),
        product_ensemble_entanglement=entanglement(rp.ensemble, *dims),
    )
    if args.trace:
        _emit(_trace_rows(rp), args.trace)
    _emit(report, args.out)
    return _strict_exit(args, r1, r2, rp)


def cmd_regularized(args) -> int:
    ch = _channel(args.channel)
    if args.copies < 1:
        raise ValueError("--copies must be at least 1")
    _require_budget(itertools.repeat(ch, args.copies))
    prod = functools.reduce(tensor, [ch] * args.copies)
    cfg = _config(args, prod)
    if ch.dim_in**args.copies >= 8:
        print("note: this many copies is slow; expect a long solve", file=sys.stderr)
    single = multi_start(ch, dataclasses.replace(cfg, n_states=None, starts=None))
    res = multi_start(prod, cfg)
    report = _result_fields(res)
    report.update(
        copies=args.copies,
        per_copy_capacity_nats=res.capacity / args.copies,
        single_copy_capacity_nats=single.capacity,
    )
    _emit(report, args.out)
    return _strict_exit(args, single, res)


def cmd_validate(args) -> int:
    ch = _lookup(args.channel)
    report = validate(ch)
    _emit({"name": ch.name, **dataclasses.asdict(report)}, args.out)
    return 0 if report.passed else 2


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    defaults = SolverConfig()
    p.add_argument("--states", type=int,
                   help="ensemble size (default: input dimension squared)")
    p.add_argument("--starts", type=int,
                   help="number of restarts (default: 5, or 3 for dimension >= 9)")
    p.add_argument("--seed", type=int, default=defaults.seed, help="seed for the random starts")
    p.add_argument("--places", type=int, default=defaults.decimal_places,
                   help=f"decimal places that must agree for convergence "
                        f"(1 to {MAX_DECIMAL_PLACES}, default {defaults.decimal_places})")
    p.add_argument("--patience", type=int, default=defaults.patience,
                   help="successive agreeing values required for convergence")
    p.add_argument("--max-iters", type=int, default=defaults.max_iters,
                   help="iteration cap per start")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--strict", action="store_true",
                   help="exit with code 4 if any run fails to converge")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `qcap` parser, built once per process: parsing never changes it."""
    parser = argparse.ArgumentParser(
        prog="qcap",
        description="Holevo capacity of finite-dimensional quantum channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("capacity", help="capacity of a single channel")
    p.add_argument("--channel", required=True, help="descriptor file or built-in name")
    _add_solver_flags(p)
    p.add_argument("--trace", help="write a per-iteration CSV here")
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("additivity", help="compare C(A) + C(B) with C(A (x) B)")
    p.add_argument("--lhs", required=True, help="first channel (file or name)")
    p.add_argument("--rhs", required=True, help="second channel (file or name)")
    _add_solver_flags(p)
    p.add_argument("--trace", help="write the product run's CSV trace here")
    p.set_defaults(func=cmd_additivity)

    p = sub.add_parser("regularized", help="per-copy capacity of N channel copies")
    p.add_argument("--channel", required=True, help="descriptor file or built-in name")
    p.add_argument("--copies", type=int, default=2, help="number of copies (default 2)")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_regularized)

    p = sub.add_parser("validate", help="check a channel descriptor")
    p.add_argument("--channel", required=True, help="descriptor file or built-in name")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    _steady_heap()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except np.linalg.LinAlgError as exc:
        # Before ValueError, which LinAlgError subclasses.
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        # Bad input, not a crash, as is a path or stream that cannot be looked up,
        # read or written; the null device takes what a failed stdout write left.
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, OSError) and exc.filename is None and sys.stdout is sys.__stdout__:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2


if __name__ == "__main__":
    sys.exit(main())
