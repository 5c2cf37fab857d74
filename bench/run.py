"""qcap benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 bench/run.py --workload sweep-qubit --seed 1 --seconds 30 --trace 0

Run from the root of a qcap checkout.  Inputs are generated from the
seed, the workload runs in fresh worker processes with BLAS pinned to
one thread, every report is checked after the timed region, and the
last stdout line is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`.  `--trace 0` reports
the end-to-end metrics; `--trace 1` the per-layer ones from a traced
pass.  Earlier stdout lines record the environment and sample counts.
"""

from __future__ import annotations

import os

# Set before numpy loads here, and inherited by the workers.  One BLAS thread
# keeps the two-core host's second core free and the timing steady.  A
# fixed hash seed fixes the order in which numpy's einsum path search
# walks its sets of index letters; unpinned, identical sweep-qubit runs
# ranged over 15% where pinned ones ranged over 7%.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "PYTHONHASHSEED": "0"}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
# Untraced, the timed passes are split over this many worker processes,
# so that no single process's memory layout sets the whole run.
TIMED_WORKERS = 2
TIME_LIMIT_S = 170.0


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def run_worker(plan: Path, out: Path, deadline: float, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--plan", str(plan), "--out", str(out), *extra]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL,
                   timeout=max(1.0, deadline - time.monotonic()))
    return json.loads(out.read_text())


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    acceptance = ROOT / "tests" / "test_acceptance.py"
    if not (ROOT / "src" / "qcap" / "cli.py").is_file() or not acceptance.is_file():
        return fail(f"{ROOT} is not a qcap checkout (need src/qcap and tests/test_acceptance.py)")
    golden = checks.load_golden(acceptance)

    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        commands = workloads.prepare(args.workload, args.seed, work / "inputs")
        warmup = workloads.warmup_command(workloads.write_warmup_channel(work / "inputs", args.seed))
        plan = work / "plan.json"
        plan.write_text(json.dumps({"warmup": warmup, "commands": commands}))

        setups = []
        if args.trace:
            results = [run_worker(plan, work / "result.json", deadline, "--trace", "1")]
            trace_file = ROOT / ".bench_work" / f"trace-{args.workload}-seed{args.seed}.json"
            trace_file.write_text(json.dumps(results[0]["spans"], indent=1, sort_keys=True))
        else:
            for i in range(SETUP_SAMPLES):
                setups.append(run_worker(plan, work / f"setup{i}.json", deadline, "--setup-only"))
            results = [run_worker(plan, work / f"result{i}.json", deadline,
                                  "--seconds", str(args.seconds / TIMED_WORKERS))
                       for i in range(TIMED_WORKERS)]
            setups += results

        # Reports must match byte for byte across passes and workers, so
        # the first worker's are the ones checked.
        reports = results[0]["reports"]
        problems = [checks.check_report(args.workload, argv, text, golden)
                    for argv, text in zip(commands, reports)]
        warmup_ok = all(res["warmup_rc"] == 0 for res in results)
        if not warmup_ok:
            print("bench: the warm-up command failed", file=sys.stderr)
        attempted = failed = 0
        for res in results:
            for pass_ in res["passes"]:
                for i, row in enumerate(pass_["rows"]):
                    attempted += 1
                    failed += bool(row["rc"] != 0 or not row["same_report"] or problems[i]
                                   or res["reports"][i] != reports[i])
        for argv, prob in zip(commands, problems):
            if prob:
                print(f"bench: check failed for {' '.join(argv)}: {'; '.join(prob)}",
                      file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    timed = [p for res in results for p in res["passes"] if "scaled_s" in p]
    walls = [p["scaled_s"] for p in timed]
    latencies = [row["scaled_s"] for p in timed for row in p["rows"]]
    if args.trace:
        values = results[0]["layers"]
    else:
        values = {
            "setup_s": statistics.median(s["setup_scaled_s"] for s in setups),
            "wall_s": statistics.median(walls),
            "solve_p50_s": statistics.median(latencies),
            "solve_p90_s": statistics.quantiles(latencies, n=10, method="inclusive")[8],
            "peak_rss_mb": max(res["peak_rss_mb"] for res in results),
        }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps({"environment": {**results[0]["environment"], "seed": args.seed,
                                      "workload": args.workload}}))
    print(json.dumps({
        "samples": {"workers": len(results), "passes": len(walls), "commands": len(latencies),
                    "setups": len(setups),
                    "speed_probes": sum(res["probe_samples"] for res in results)},
        "failed_frac": failed / attempted,
        "pass_scaled_s": walls,
        "pass_raw_s": [p["seconds"] for res in results for p in res["passes"]],
        "setup_raw_s": statistics.median(s["setup_s"] for s in setups) if setups else None,
    }))
    print(json.dumps({
        "correct": failed == 0 and warmup_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        sys.exit(fail(f"run aborted: {exc}"))
