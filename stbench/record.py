"""Record a benchmark baseline: several untraced runs of every workload, one
traced run each, written to a BENCH_*.json with the machine record.

    python3 stbench/record.py --seeds 11,12,13 --out stbench/BENCH_new.json

Run from the root of a source checkout. Each run is a separate process of
``stbench/run.py``; the file keeps every run's metrics and detail figures,
the per-workload median and quartile spread of each end-to-end metric, and
the traced run's per-layer table. A Markdown summary goes to stdout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import HERE, ROOT, load_spec


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{' '.join(cmd)} printed no result:\n{proc.stderr}")
    result = json.loads(lines[-1])
    machine, details = None, {}
    for line in lines:
        if line.startswith("# machine "):
            machine = json.loads(line[len("# machine "):])
        elif line.startswith("# detail "):
            name, rest = line[len("# detail "):].split(" = ", 1)
            details[name] = float(rest.split()[0])
    return {"seed": seed, "trace": trace, "result": result, "details": details}, machine


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None) -> int:
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", required=True, help="comma-separated seeds for untraced runs")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]

    seconds = spec["run_seconds"]
    record = {"machine": None, "seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds:
            run, record["machine"] = one_run(workload, seed, seconds, 0)
            runs.append(run)
            print(f"<!-- {workload} seed {seed}: {run['result']['metrics']} -->", flush=True)
        traced, _ = one_run(workload, seeds[0], seconds, 1)
        summary = {m["name"]: spread([r["result"]["metrics"][m["name"]]["value"] for r in runs])
                   for m in spec["end_to_end"]}
        details = {name: statistics.median(r["details"][name] for r in runs)
                   for name in runs[0]["details"]}
        record["workloads"][workload] = {
            "end_to_end": summary, "details": details, "runs": runs,
            "per_layer": {k: v["value"] for k, v in traced["result"]["metrics"].items()},
            "traced_run_correct": traced["result"]["correct"]}
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    print(f"machine: {json.dumps(record['machine'])}\n")
    print("| workload | metric | median | q1 | q3 | spread | bound |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload, w in record["workloads"].items():
        for name, s in w["end_to_end"].items():
            print(f"| {workload} | {name} | {s['median']:.4g} | {s['q1']:.4g} | "
                  f"{s['q3']:.4g} | {s['spread']:.3f} | {bounds[name]} |")
    print("\n| workload | detail | median over runs |\n| --- | --- | --- |")
    for workload, w in record["workloads"].items():
        for name, v in w["details"].items():
            print(f"| {workload} | {name} | {v:.6g} |")
    names = list(record["workloads"])
    print("\n| per-layer metric (traced run) | " + " | ".join(names) + " |")
    print("| --- |" + " --- |" * len(names))
    for m in spec["per_layer"]:
        cells = [record["workloads"][n]["per_layer"][m["name"]] for n in names]
        print(f"| {m['name']} ({m['unit']}) | " + " | ".join(f"{c:.4g}" for c in cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
