"""Run one benchmark workload and print its result as the last line of stdout.

    python3 bench/run.py --workload {train,infer} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from ``src/``.
With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run.  Either
way the full result, with the environment fingerprint, the output-check
failures and (traced) every span, is written to
``.bench_out/<workload>-seed<N>-trace<T>.json``.
"""

import os

# One BLAS thread, the paper's single-core setting; must precede numpy's import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"


def _blas_threads():
    """Threads OpenBLAS will use, asked of the library numpy loaded, or None."""
    import ctypes

    import numpy

    libdir = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def _git_sha():
    """HEAD's commit, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def fingerprint() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_sha": _git_sha(),
        "loadavg_start": os.getloadavg(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "infer"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "grasp" / "__init__.py").is_file():
        print(f"error: no library at {ROOT / 'src' / 'grasp'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads

    env = fingerprint()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    t_start = time.perf_counter()
    try:
        run = workloads.Run(args.workload, args.seed, str(workdir))
        with run.step_clock():
            run.setup()
            if args.trace:
                # the same mix, first untraced and then traced, half the time each;
                # trace_overhead compares each request name's median in the two halves
                run.measure(args.seconds / 2)
                untraced = {k: list(v) for k, v in run.request_s.items()}
                tracer = tracing.Tracer()
                with run.traced(tracer):
                    run.measure(args.seconds / 2)
                traced = {k: v[len(untraced.get(k, ())):] for k, v in run.request_s.items()}
                overhead = workloads.trace_overhead(untraced, traced)
                metrics = workloads.layer_metrics(tracer, run.extra, overhead)
            else:
                run.measure(args.seconds, setups=workloads.SETUP_REPEATS - 1)
                metrics = run.e2e_metrics()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": time.perf_counter() - t_start,
        "environment": env,
        "result": result,
        "failures": run.failures,
        "samples_s": {m: {str(k): v for k, v in keys.items()} for m, keys in run.samples.items()},
        "requests": {k: len(v) for k, v in sorted(run.request_s.items())},
    }
    if args.trace:
        record["layer_table"] = tracing.layer_table(tracer.spans)
        record["span_fields"] = ["name", "start", "end", "parent", "root", "request_id"]
        record["spans"] = tracer.spans
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record))

    for name, m in metrics.items():
        print(f"{args.workload:>5} {name:<48} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    share = result["failed"] / result["attempted"]
    print(f"{args.workload:>5} output checks: {'pass' if result['correct'] else 'FAIL'}; "
          f"failed {result['failed']} of {result['attempted']} requests ({share:.1%})",
          file=sys.stderr)
    for failure in run.failures:
        print(f"{args.workload:>5} failed {failure['request']}: {failure['problems']}",
              file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
