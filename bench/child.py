"""One fresh interpreter's share of a benchmark run; ``run.py`` starts it.

    python3 bench/child.py --role setup|work|traced --spec <spec.json>

``setup`` times ``import hermsurf`` plus the structures the workload's
commands build before their main loop, then exits.  ``work`` does the
same set-up and then runs whole rounds of the workload's commands
through ``hermsurf.cli.main``, in process, timing each command: as many
rounds as fit in ``seconds`` at the pace so far (at least two), or
exactly ``rounds`` rounds.  ``traced`` is ``work`` with every
module boundary wrapped by ``spans.Tracer`` before the set-up starts.
Every role also times gaps of passes of ``pace.reference_pass``
(``pace.gap``) outside the timed intervals: after each step of the
set-up, and in the rounds before every command and after the last one.

The result goes to the spec's ``result`` file as JSON.  The program's
outputs are left in the round directories for ``run.py`` to check.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path


def build_structures(spec: dict):
    """What the workload's commands build before their main loop, through
    the same public calls: field, geometry, surface, tangent planes and
    their sections, generators, and (for scans) the code matrices.
    Yields after each call, so that the caller can time the calls apart."""
    from hermsurf.codes import build_code
    from hermsurf.finite_field import build_field
    from hermsurf.hermitian import canonical_surface

    for q in spec["qs"]:
        build_field(q)
        yield
        surface = canonical_surface(q)
        yield
        surface.tangent_planes()
        yield
        surface.tangent_section_positions()
        yield
        surface.generators()
        yield
        if spec.get("d") is not None:
            build_code(surface, spec["d"])
            yield


def run_op(main, argv: list[str]) -> tuple[float, int | str]:
    t0 = time.perf_counter()
    try:
        status = main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        status = f"SystemExit({exc.code})"
    except Exception as exc:  # recorded as a failed operation
        status = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, status


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--role", choices=["setup", "work", "traced"], required=True)
    parser.add_argument("--spec", required=True)
    args = parser.parse_args()
    spec = json.loads(Path(args.spec).read_text())

    tracer = None
    if args.role == "traced":
        from spans import Tracer

        tracer = Tracer()
    t0 = time.perf_counter()
    import hermsurf
    import hermsurf.cli

    if Path(hermsurf.__file__).resolve().parent != Path(spec["package"]).resolve():
        sys.stderr.write(f"imported hermsurf from {hermsurf.__file__}, not {spec['package']}\n")
        return 1
    if tracer is not None:
        tracer.install()
    # The set-up's steps: the import, then each public call.  No pass can
    # run before the import, which brings in numpy, so its gap is empty.
    step_s = [time.perf_counter() - t0]
    from pace import gap

    step_gaps = [[], gap(step_s[0])]
    t0 = time.perf_counter()
    for _ in build_structures(spec):
        step_s.append(time.perf_counter() - t0)
        step_gaps.append(gap(step_s[-1]))
        t0 = time.perf_counter()
    result = {"setup_s": sum(step_s), "setup_step_s": step_s, "setup_pace_s": step_gaps}

    if args.role != "setup":
        op_s, pace_s, statuses = [], [], []
        start = time.perf_counter()
        if tracer is not None:
            tracer.start_rounds()
        while True:
            rdir = Path(spec["work_dir"]) / f"r{len(op_s)}"
            rdir.mkdir()
            ops = [[a.replace("{dir}", str(rdir)) for a in argv] for argv in spec["ops"]]
            gc.collect()
            times, gaps, status = [], [gap(0.0)], []
            for argv in ops:
                dt, st = run_op(hermsurf.cli.main, argv)
                gaps.append(gap(dt))
                times.append(dt)
                status.append(st)
            op_s.append(times)
            pace_s.append(gaps)
            statuses.append(status)
            if spec.get("rounds"):
                if len(op_s) == spec["rounds"]:
                    break
            elif len(op_s) >= 2:
                # start no round that would end after the measuring window
                elapsed = time.perf_counter() - start
                if elapsed * (len(op_s) + 1) / len(op_s) > spec["seconds"]:
                    break
        result.update(
            op_s=op_s,
            pace_s=pace_s,
            statuses=statuses,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
        if tracer is not None:
            result["layers"] = tracer.summary(len(op_s))
            tracer.dump(spec["trace_file"], len(op_s))

    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
