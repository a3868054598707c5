"""hermsurf benchmark.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a source checkout; the program is imported from
the checkout's ``src/``.  Each run makes its inputs from ``--seed``,
starts fresh interpreters (``child.py``) that drive hermsurf through
``hermsurf.cli.main``, checks every command's output against the
benchmark's own computations (``workloads.py``, ``oracle.py``), and
prints one JSON object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``setup_s``,
``work_s``, ``rate_per_s``, ``peak_rss_mb``); with ``--trace 1`` they
are the per-layer ones from a traced interpreter, plus
``trace.overhead_s``.  See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from pace import scale
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEADLINE_S = 170  # every run must end within 180 s

def round_time(op_s: list[list[float]]) -> float:
    """One round's time: the sum over its commands of each command's
    median time across the rounds, so a slow spell of the host in one
    round moves it less than it moves that round's total."""
    return sum(statistics.median(times) for times in zip(*op_s))


def work_time(result: dict) -> float:
    """``round_time`` of one interpreter's rounds at the nominal pace."""
    return round_time([scale(times, gaps)
                       for times, gaps in zip(result["op_s"], result["pace_s"])])


def setup_time(result: dict) -> float:
    """One interpreter's set-up at the nominal pace."""
    return sum(scale(result["setup_step_s"], result["setup_pace_s"]))


def metric_units(kind: str) -> dict:
    """{name: unit} of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


class Runner:
    def __init__(self, workload, work: Path, deadline: float):
        self.workload = workload
        self.work = work
        self.deadline = deadline
        self.env = dict(
            os.environ,
            PYTHONPATH=str(ROOT / "src"),
            PYTHONHASHSEED="0",
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
        )
        self.children = 0

    def warm_up(self) -> None:
        """Import hermsurf once, unmeasured, so that bytecode is compiled and
        the file cache is warm before the first measured interpreter."""
        subprocess.run([sys.executable, "-s", "-c", "import hermsurf.cli"], cwd=ROOT,
                       env=self.env, timeout=60, check=True)

    def child(self, role: str, **spec) -> dict:
        """Run one fresh interpreter and return its result."""
        self.children += 1
        tag = f"{role}{self.children}"
        spec.update(
            package=str(ROOT / "src" / "hermsurf"),
            qs=self.workload.setup["qs"],
            d=self.workload.setup.get("d"),
            ops=self.workload.ops,
            work_dir=str(self.work / tag),
            result=str(self.work / f"{tag}.json"),
        )
        (self.work / tag).mkdir()
        spec_path = self.work / f"{tag}.spec.json"
        spec_path.write_text(json.dumps(spec))
        cmd = [sys.executable, "-s", str(BENCH / "child.py"), "--role", role, "--spec", str(spec_path)]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise TimeoutError("the run's time is used up")
        subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=sys.stderr, timeout=timeout,
                       check=True)
        result = json.loads(Path(spec["result"]).read_text())
        result["dir"] = self.work / tag
        return result

    def verify(self, result: dict) -> tuple[int, int]:
        """(attempted, failed) over every op of every round of one child."""
        attempted = failed = 0
        for r, statuses in enumerate(result["statuses"]):
            rdir = result["dir"] / f"r{r}"
            for op, status in enumerate(statuses):
                attempted += 1
                if status != 0:
                    errors = [f"exit status {status}"]
                else:
                    try:
                        errors = self.workload.verify(op, rdir)
                    except (OSError, ValueError, KeyError, TypeError) as exc:
                        errors = [f"unreadable output: {type(exc).__name__}: {exc}"]
                if errors:
                    failed += 1
                    for e in errors:
                        print(f"round {r} op {op} ({' '.join(self.workload.ops[op][:2])}): {e}",
                              file=sys.stderr)
        return attempted, failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "hermsurf" / "__init__.py").is_file():
        print(f"error: no hermsurf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload]()
        workload.prepare(args.seed, work / "inputs")
        runner = Runner(workload, work, deadline)
        runner.warm_up()
        if args.trace:
            plain = runner.child("work", seconds=args.seconds / 2)
            trace_file = ROOT / ".bench_work" / f"trace-{args.workload}-seed{args.seed}.json"
            traced = runner.child("traced", rounds=len(plain["op_s"]),
                                  trace_file=str(trace_file))
            results = [plain, traced]
            values = dict(traced["layers"])
            values["trace.overhead_s"] = work_time(traced) - work_time(plain)
        else:
            timed = runner.child("work", seconds=args.seconds)
            setups = [timed] + [runner.child("setup") for _ in range(workload.setup_samples - 1)]
            results = [timed]
            work_s = work_time(timed)
            values = {
                "setup_s": statistics.median(setup_time(s) for s in setups),
                "work_s": work_s,
                "rate_per_s": workload.units / work_s,
                "peak_rss_mb": timed["peak_rss_mb"],
            }
            print(f"{args.workload}: {len(timed['op_s'])} rounds, wall-time round totals "
                  + ", ".join(f"{sum(t):.3f}" for t in timed["op_s"])
                  + "; wall-time set-ups " + ", ".join(f"{s['setup_s']:.3f}" for s in setups)
                  + "; median pace pass "
                  + f"{statistics.median(p for r in timed['pace_s'] for g in r for p in g):.5f} s",
                  file=sys.stderr)
        units = metric_units("per_layer" if args.trace else "end_to_end")
        missing = set(units) - set(values)
        if missing:
            print(f"error: metrics not produced: {sorted(missing)}", file=sys.stderr)
            return 1
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
        attempted = failed = 0
        for result in results:
            a, f = runner.verify(result)
            attempted += a
            failed += f
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
