"""Command line front end.

Subcommands: `capacity` (single channel), `additivity` (two channels and
their product), `regularized` (per-copy capacity of N copies), `trace`
(per-iteration CSV of one product-channel run), `validate` (channel
descriptor checks).  Reports are JSON on stdout or in `--out`, traces
are CSV.  Given identical inputs, flags and seed, every report is
byte-identical.

Exit codes: 0 success, 2 bad input (parse or validation failure),
3 numerical failure, 4 non-convergence under `--strict`.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .channels import Channel, load_channel, tensor, validate
from .entropy import entanglement
from .fixtures import FIXTURE_NAMES, fixture_channel
from .solver import MAX_DECIMAL_PLACES, CapacityResult, SolverConfig, multi_start

# Not called here, but bench/tracing.py wraps this binding, so it stays.
from .channels import tp_residual  # noqa: F401

MAX_PRODUCT_DIM = 16


class InputError(ValueError):
    """Bad channel file, descriptor or flag combination."""


def _channel(arg: str, usable: bool = True) -> Channel:
    # Accept a descriptor path or a built-in name like "gamma2".  A usable
    # channel must be trace preserving; a non-PSD Choi operator only draws
    # a warning so that signed maps stay usable end to end.  A path that
    # cannot be read (a directory, no permission) is bad input too.
    if arg in FIXTURE_NAMES and not Path(arg).exists():
        ch = fixture_channel(arg)
    elif not Path(arg).exists():
        raise InputError(f"no such channel file or built-in name: {arg}")
    else:
        try:
            ch = load_channel(arg, allow_non_cp=True)
        except (ValueError, OSError) as exc:
            raise InputError(str(exc)) from None
    if not usable:
        return ch
    report = validate(ch)
    if not report.tp_ok:
        raise InputError(f"{arg}: not trace preserving (residual {report.tp_residual:.3e})")
    if not report.cp_ok:
        print(
            f"warning: {arg}: not completely positive "
            f"(min Choi eigenvalue {report.choi_min_eigenvalue:.6e}); "
            "proceeding with its signed form",
            file=sys.stderr,
        )
    return ch


def _config(args) -> SolverConfig:
    if not 1 <= args.places <= MAX_DECIMAL_PLACES:
        raise InputError(f"--places must be from 1 to {MAX_DECIMAL_PLACES}, got {args.places}")
    return SolverConfig(
        n_states=args.states,
        starts=args.starts,
        seed=args.seed,
        decimal_places=args.places,
        patience=args.patience,
        max_iters=args.max_iters,
    )


def _result_fields(res: CapacityResult) -> dict:
    return {
        "capacity_nats": res.capacity,
        "converged": res.converged,
        "iterations": res.iterations_used,
        "start_index": res.start_index,
        "ensemble": {
            "weights": [float(w) for w in res.ensemble.weights],
            # Kept as the complex (n, d, d) array; `_render` writes it.
            "states": res.ensemble.states,
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


def _render(report: dict) -> str:
    # A report's ensemble states go from their array to the bytes that
    # `json.dumps(indent=2)` writes for their `[re, im]` lists, without the
    # lists (about 200k objects at 4 copies of gamma1) or the pure-Python
    # encoder that `indent` takes over them.  `format(x, "")` of a float is
    # `repr(x)`, which is what `json` writes for a finite float.
    if "ensemble" not in report:
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    S = report["ensemble"]["states"]
    wire = np.stack([S.real, S.imag], axis=-1)
    if not np.isfinite(wire).all():
        raise np.linalg.LinAlgError("non-finite entry in the ensemble states")
    marked = {**report, "ensemble": {**report["ensemble"], "states": _STATES_MARK}}
    head, tail = json.dumps(marked, indent=2, sort_keys=True).split(json.dumps(_STATES_MARK))
    # "states" sits in "ensemble" in the report: two indents deep.
    block = _array_template(wire.shape, 2).format(*wire.ravel().tolist())
    return "".join([head, block, tail, "\n"])


def _write(path: str, text: str) -> None:
    # An `--out` or `--trace` path that cannot be written (a directory, a
    # missing parent, no permission) is bad input, not a crash.
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise InputError(str(exc)) from None


def _emit(report: dict | str, out: str | None) -> None:
    # JSON reports and CSV traces share one stdout-or-file path.
    if not isinstance(report, str):
        report = _render(report)
    if out:
        _write(out, report)
    else:
        sys.stdout.write(report)


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


def cmd_capacity(args) -> int:
    ch = _channel(args.channel)
    res = multi_start(ch, _config(args))
    if args.trace:
        _write(args.trace, _trace_rows(res))
    _emit(_result_fields(res), args.out)
    return _strict_exit(args, res)


def cmd_additivity(args) -> int:
    lhs = _channel(args.lhs)
    rhs = _channel(args.rhs)
    # --states and --starts size the product solve; the factors keep their defaults.
    marginal = dataclasses.replace(_config(args), n_states=None, starts=None)
    r1 = multi_start(lhs, marginal)
    # A channel paired with itself (the paper's diagonal rows) is solved once.
    r2 = r1 if args.rhs == args.lhs else multi_start(rhs, marginal)
    prod = tensor(lhs, rhs)
    dims = (lhs.dim_in, rhs.dim_in)
    # Only the trace reads the per-iteration entanglement; the report
    # takes it from the final ensemble alone.
    rp = multi_start(prod, _config(args), ent_dims=dims if args.trace else None)
    report = _result_fields(rp)
    report.update(
        {
            "c1": r1.capacity,
            "c2": r2.capacity,
            "sum": r1.capacity + r2.capacity,
            "c_product": rp.capacity,
            "gap": rp.capacity - (r1.capacity + r2.capacity),
            "product_ensemble_entanglement": entanglement(rp.ensemble, *dims),
        }
    )
    if args.trace:
        _write(args.trace, _trace_rows(rp))
    _emit(report, args.out)
    return _strict_exit(args, r1, r2, rp)


def _max_copies(base: int, budget: int) -> int:
    # The most copies whose product keeps `base ** copies` (base >= 2)
    # within `budget`, counted without forming a large power.
    copies, size = 0, base
    while size <= budget:
        copies, size = copies + 1, size * base
    return copies


def cmd_regularized(args) -> int:
    ch = _channel(args.channel)
    if args.copies < 1:
        raise InputError("--copies must be at least 1")
    dim = max(ch.dim_in, ch.dim_out)
    if dim > 1 and args.copies > _max_copies(dim, MAX_PRODUCT_DIM):
        raise InputError(
            f"{args.copies} copies of a channel with dimension {dim} "
            f"exceed the dimension budget ({MAX_PRODUCT_DIM})"
        )
    # The product's generators multiply even where its dimension does not
    # grow (a 1 x 1 channel); MAX_PRODUCT_DIM ** 2 is the most a channel
    # at the dimension budget needs.  Each copy counts as at least two
    # generators, so a one-generator channel is bounded too.
    gens = ch.n_generators
    if args.copies > _max_copies(max(gens, 2), MAX_PRODUCT_DIM**2):
        raise InputError(
            f"{args.copies} copies of a channel with {gens} generators "
            f"exceed the generator budget ({MAX_PRODUCT_DIM**2})"
        )
    if ch.dim_in**args.copies >= 8:
        print("note: this many copies is slow; expect a long solve", file=sys.stderr)
    single = multi_start(ch, dataclasses.replace(_config(args), n_states=None, starts=None))
    prod = functools.reduce(tensor, [ch] * args.copies)
    res = multi_start(prod, _config(args))
    report = _result_fields(res)
    report.update(
        {
            "copies": args.copies,
            "per_copy_capacity_nats": res.capacity / args.copies,
            "single_copy_capacity_nats": single.capacity,
        }
    )
    _emit(report, args.out)
    return _strict_exit(args, single, res)


def cmd_trace(args) -> int:
    lhs = _channel(args.lhs)
    rhs = _channel(args.rhs)
    prod = tensor(lhs, rhs)
    # Start 0 alone; `--starts` is checked but not used.
    cfg = dataclasses.replace(_config(args).resolved(prod), starts=1)
    res = multi_start(prod, cfg, ent_dims=(lhs.dim_in, rhs.dim_in))
    _emit(_trace_rows(res), args.out)
    return _strict_exit(args, res)


def cmd_validate(args) -> int:
    ch = _channel(args.channel, usable=False)
    report = validate(ch)
    _emit({"name": ch.name, **dataclasses.asdict(report)}, args.out)
    return 0 if report.passed else 2


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    defaults = SolverConfig()
    p.add_argument("--states", type=int, default=None,
                   help="ensemble size (default: input dimension squared)")
    p.add_argument("--starts", type=int, default=None,
                   help="number of restarts (default: 5, or 3 for dimension >= 9)")
    p.add_argument("--seed", type=int, default=defaults.seed, help="seed for the random starts")
    p.add_argument("--places", type=int, default=defaults.decimal_places,
                   help=f"decimal places that must agree for convergence "
                        f"(1 to {MAX_DECIMAL_PLACES}, default {defaults.decimal_places})")
    p.add_argument("--patience", type=int, default=defaults.patience,
                   help="successive agreeing values required for convergence")
    p.add_argument("--max-iters", type=int, default=defaults.max_iters,
                   help="iteration cap per start")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
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
    p.add_argument("--trace", default=None, help="write a per-iteration CSV here")
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("additivity", help="compare C(A) + C(B) with C(A (x) B)")
    p.add_argument("--lhs", required=True, help="first channel (file or name)")
    p.add_argument("--rhs", required=True, help="second channel (file or name)")
    _add_solver_flags(p)
    p.add_argument("--trace", default=None, help="write the product run's CSV trace here")
    p.set_defaults(func=cmd_additivity)

    p = sub.add_parser("regularized", help="per-copy capacity of N channel copies")
    p.add_argument("--channel", required=True, help="descriptor file or built-in name")
    p.add_argument("--copies", type=int, default=2, help="number of copies (default 2)")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_regularized)

    p = sub.add_parser("trace", help="CSV trace of one product-channel run")
    p.add_argument("--lhs", required=True, help="first channel (file or name)")
    p.add_argument("--rhs", required=True, help="second channel (file or name)")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("validate", help="check a channel descriptor")
    p.add_argument("--channel", required=True, help="descriptor file or built-in name")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except np.linalg.LinAlgError as exc:
        # Before ValueError, which LinAlgError subclasses.
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
