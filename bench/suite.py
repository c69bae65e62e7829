"""Run every workload, print every metric by name and unit, and summarise spreads.

    python3 bench/suite.py                      # every workload on seed 1
    python3 bench/suite.py --seeds 1-10         # ten seeds: median and quartile spread
    python3 bench/suite.py --trace              # also a traced run per workload
    python3 bench/suite.py --seeds 1-10 --trace --out bench/results/BENCH_x.json
    python3 bench/suite.py --seeds 1-10 --compare bench/results/BENCH_x.json

Each run is a separate ``bench/run.py`` process, so peak memory is per
workload.  The spread of a metric is (Q3 - Q1) / median over the seeds,
with quartiles as ``statistics.quantiles(values, n=4)`` gives them.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    record_path = ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{trace}.json"
    record = json.loads(record_path.read_text())
    record.pop("spans", None)
    record["sample_counts"] = {m: {"inputs": len(keys), "min_repeats": min(map(len, keys.values()))}
                               for m, keys in record.pop("samples_s").items()}
    record["result"] = json.loads(proc.stdout.strip().splitlines()[-1])
    return record


def summarise(values: list) -> dict:
    med = statistics.median(values)
    out = {"median": med, "n": len(values), "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
    return out


def table(records: list, workloads: list) -> dict:
    """workload -> metric -> summary over the records of that workload."""
    out = {}
    for w in workloads:
        per_metric = {}
        for r in records:
            if r["workload"] == w:
                for name, m in r["result"]["metrics"].items():
                    per_metric.setdefault(name, (m["unit"], []))[1].append(m["value"])
        out[w] = {name: {"unit": unit, **summarise(vals)} for name, (unit, vals) in per_metric.items()}
    return out


def print_table(title: str, summary: dict, workloads: list) -> None:
    names = list(dict.fromkeys(n for w in workloads for n in summary[w]))
    print(f"\n{title}")
    print(f"{'metric':<48} {'unit':<14}" + "".join(f"{w:>24}" for w in workloads))
    for name in names:
        unit = next(summary[w][name]["unit"] for w in workloads if name in summary[w])
        cells = []
        for w in workloads:
            s = summary[w].get(name)
            if s is None:
                cells.append(f"{'-':>24}")
            elif "spread" in s and s["spread"] is not None:
                cells.append(f"{s['median']:>14.6g} ±{100 * s['spread']:6.2f}% ")
            else:
                cells.append(f"{s['median']:>23.6g} ")
        print(f"{name:<48} {unit:<14}" + "".join(cells))


def print_checks(records: list, workloads: list) -> None:
    for w in workloads:
        rs = [r for r in records if r["workload"] == w]
        attempted = sum(r["result"]["attempted"] for r in rs)
        failed = sum(r["result"]["failed"] for r in rs)
        ok = sum(r["result"]["correct"] for r in rs)
        print(f"{w:>6}: output checks passed in {ok} of {len(rs)} runs; "
              f"failure share {failed}/{attempted} = {failed / attempted:.2%}")
        for r in rs:
            for f in r["failures"]:
                print(f"        seed {r['seed']} {f['request']}: {f['problems']}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=parse_seeds, default=[1], help="e.g. 1-10 or 3,7")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    parser.add_argument("--out", type=Path, help="write every run and the summary as JSON")
    parser.add_argument("--compare", type=Path,
                        help="an earlier --out file; check that no median got worse by more than its bound")
    args = parser.parse_args(argv)

    records = []
    for seed in args.seeds:  # seeds outermost, so slow drift of the machine hits every workload
        for w in args.workloads:
            records.append(run_one(w, seed, args.seconds, 0))
            print(f"ran {w} seed {seed}: {records[-1]['wall_s']:.1f} s", file=sys.stderr)
    traced = [run_one(w, args.seeds[0], args.seconds, 1) for w in args.workloads] if args.trace else []

    e2e = table(records, args.workloads)
    print_table(f"end-to-end metrics, median ± (Q3-Q1)/median over seeds {args.seeds}",
                e2e, args.workloads)
    print("\noutput checks")
    print_checks(records + traced, args.workloads)
    layers = table(traced, args.workloads) if traced else {}
    if traced:
        print_table(f"per-layer metrics, traced run on seed {args.seeds[0]}", layers, args.workloads)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    print(f"\nspreads against bounds over seeds {args.seeds}")
    for w in args.workloads:
        for n, s in e2e[w].items():
            if s.get("spread") is not None:
                verdict = "within" if s["spread"] <= bounds[n] else "WIDER than"
                print(f"{w:>6} {n:<40} spread {s['spread']:7.2%} {verdict} its bound {bounds[n]:.0%}")
    if args.compare:
        earlier = json.loads(args.compare.read_text())["end_to_end"]
        print(f"\nmedians against {args.compare}")
        for w in args.workloads:
            for n, s in e2e[w].items():
                before = earlier.get(w, {}).get(n, {}).get("median")
                if before:
                    worse = (s["median"] - before) / before * (1 if better[n] == "lower" else -1)
                    verdict = "within" if worse <= bounds[n] else "WORSE than"
                    print(f"{w:>6} {n:<40} {worse:+8.2%} {verdict} its bound {bounds[n]:.0%}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "environment": records[0]["environment"],
            "seconds": args.seconds,
            "seeds": args.seeds,
            "end_to_end": e2e,
            "per_layer": layers,
            "runs": records + traced,
        }, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
