"""ocycles benchmark: four workloads, end-to-end metrics, and a traced run.

    python3 perfbench/run.py --workload cycle-ladder --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Each pass of a workload runs in a fresh interpreter (perfbench/worker.py),
one closed-loop caller at a time, and passes repeat until ``--seconds`` have
passed.  With ``--trace 0`` the last line of output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
one span-traced pass and one tracemalloc pass, next to one untraced pass
that gives the tracing overhead.  Lines before it are a readable report:
per-pass samples of every metric, host noise, document digests, failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import checks
import hostref
import workloads
from spans import LAYERS, OP_SPAN

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170  # every run must end within 180 s
SETUP_STARTS = 9

END_TO_END = {
    "setup_s": "s",
    "objects_per_s": "objects/s",
    "ops_per_s": "1/s",
    "max_op_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}
PER_LAYER = {
    **{f"{layer}.self_share": "ratio" for layer in LAYERS},
    "euler.euler_tour.share": "ratio",
    "euler.euler_tour.edges_per_s": "edges/s",
    "euler.euler_tour.peak_mb": "MB",
    "euler.tour_to_cycle.share": "ratio",
    "euler.tour_to_cycle.peak_mb": "MB",
    "euler.tour_incomplete.count": "count",
    "verify.verify_cycle_string.share": "ratio",
    "verify.verify_cycle_string.objects_per_s": "objects/s",
    "verify.verify_cycle_string.peak_mb": "MB",
    "verify.verify_object_list.share": "ratio",
    "verify.defects.count": "count",
    "verify.hamilton_oracle.share": "ratio",
    "verify.hamilton_oracle.nodes": "count",
    "verify.hamilton_oracle.nodes_per_s": "nodes/s",
    "verify.hamilton_oracle.decided_ratio": "ratio",
    "cli.parse_text.share": "ratio",
    "cli.parse_text.symbols_per_s": "symbols/s",
    "cli.parse_text.peak_mb": "MB",
    "cli.emit_document.share": "ratio",
    "cli.emit_list.share": "ratio",
    "cli.doc_bytes": "bytes",
    "cli.main.self_share": "ratio",
    "core.feasibility.calls": "count",
    "core.feasibility.share": "ratio",
    "graph.build_graph.edges": "count",
    "connect.find_path.share": "ratio",
    "connect.find_path.first_call_share": "ratio",
    "connect.replay_certificate.share": "ratio",
    "connect.steps": "count",
    "connect.steps_per_cap.max": "ratio",
    "trace.traced_cpu_s": "s",
    "trace.untraced_cpu_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
}


class BenchError(RuntimeError):
    """The benchmark itself could not complete a run."""


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Bench:
    def __init__(self, args: argparse.Namespace, work: Path):
        self.args = args
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        self.jobs = 0

    def worker(self, **job) -> dict:
        self.jobs += 1
        job_path = self.work / f"job-{self.jobs}.json"
        out_path = self.work / f"result-{self.jobs}.json"
        job.update(workload=self.args.workload, seed=self.args.seed, work=str(self.work), out=str(out_path))
        job_path.write_text(json.dumps(job), encoding="utf-8")
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before the next pass")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(job_path)],
                cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{job['mode']} pass did not end within the run's time") from exc
        if proc.returncode != 0:
            raise BenchError(f"{job['mode']} pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return json.loads(out_path.read_text(encoding="utf-8"))

    def setup_times(self) -> tuple[list[float], list[float]]:
        """CPU and wall seconds for fresh interpreters to import ocycles and
        ocycles.cli; CPU seconds are the child's user plus system time."""
        argv = [sys.executable, "-c", "import ocycles, ocycles.cli"]
        subprocess.run(argv, cwd=ROOT, env=self.env, check=True, timeout=60)  # writes bytecode
        cpu, wall = [], []
        for _ in range(SETUP_STARTS):
            before = resource.getrusage(resource.RUSAGE_CHILDREN)
            t0 = time.perf_counter()
            subprocess.run(argv, cwd=ROOT, env=self.env, check=True, timeout=60)
            wall.append(time.perf_counter() - t0)
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
            cpu.append(after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime)
        return cpu, wall

    def passes(self, docs: list[dict], modes: list[str] | None) -> list[dict]:
        """Plain passes until --seconds have passed, or one pass per mode."""
        results: list[dict] = []
        start = time.monotonic()
        for i in range(10_000):
            mode = modes[i] if modes else "plain"
            began = time.monotonic()
            res = self.worker(mode=mode, docs=docs)
            res["mode"] = mode
            results.append(res)
            if modes and i + 1 == len(modes):
                break
            now = time.monotonic()
            if not modes and (now - start >= self.args.seconds or now + (now - began) > self.deadline):
                break
        return results

    def check_documents(self, results: list[dict]) -> None:
        """Check each distinct document that the passes kept, once, against
        the construction, and add its problem to every pass that wrote it."""
        problems: dict[str, str | None] = {}
        for res in results:
            index = {label: i for i, label in enumerate(res["labels"])}
            for label, (inst, fmt) in res["kept"].items():
                d = res["digests"][label]
                if d not in problems:
                    text = (self.work / "out" / f"{d}.txt").read_text(encoding="utf-8")
                    problems[d] = checks.generated_document_problem(text, checks.Instance.from_json(inst), fmt)
                if problems[d] is not None:
                    res["failures"].setdefault(str(index[label]), problems[d])


def run_metrics(plain: list[dict]) -> dict:
    """Each operation's median normalised CPU time over the passes, summed.
    Every pass runs the same operations in the same order."""
    if any(res["labels"] != plain[0]["labels"] for res in plain):
        raise BenchError("passes ran different operations")
    med = [statistics.median(norm) for norm in zip(*(res["norm"] for res in plain))]
    total = sum(med)
    return {
        "objects_per_s": sum(plain[0]["objects"]) / total,
        "ops_per_s": len(med) / total,
        "max_op_s": max(med),
    }


def pass_metrics(res: dict) -> dict:
    norm = sum(res["norm"])
    return {
        "objects_per_s": sum(res["objects"]) / norm,
        "ops_per_s": len(res["norm"]) / norm,
        "max_op_s": max(res["norm"]),
        "peak_rss_mb": res["rss_mb"],
        "op_s": sum(res["t"]),
        "op_cpu_s": sum(res["cpu"]),
        "op_norm_s": norm,
    }


def layer_metrics(spans: dict, memory: dict, traced_cpu_s: float, untraced_cpu_s: float) -> dict:
    """Per-layer metrics: shares of the span-traced pass's operation time,
    rates over a layer's own span time, exact counts, tracemalloc peaks, and
    the tracing overhead in operation CPU seconds."""
    calls, incl, self_s = spans["calls"], spans["incl_s"], spans["self_s"]
    counts = spans["counts"]
    total = incl[OP_SPAN]

    def share(name: str) -> float:
        return incl.get(name, 0.0) / total

    def rate(count: str, name: str) -> float:
        return counts.get(count, 0) / incl[name] if incl.get(name) else 0.0

    def peak_mb(name: str) -> float:
        return memory["peaks"].get(name, 0) / 2**20

    out = {
        f"{layer}.self_share": sum(v for k, v in self_s.items() if k.startswith(layer + ".")) / total
        for layer in LAYERS
    }
    oracle_calls = calls.get("verify.hamilton_oracle", 0)
    out.update({
        "euler.euler_tour.share": share("euler.euler_tour"),
        "euler.euler_tour.edges_per_s": rate("euler.euler_tour.edges", "euler.euler_tour"),
        "euler.euler_tour.peak_mb": peak_mb("euler.euler_tour"),
        "euler.tour_to_cycle.share": share("euler.tour_to_cycle"),
        "euler.tour_to_cycle.peak_mb": peak_mb("euler.tour_to_cycle"),
        "euler.tour_incomplete.count": counts.get("euler.tour_incomplete.count", 0),
        "verify.verify_cycle_string.share": share("verify.verify_cycle_string"),
        "verify.verify_cycle_string.objects_per_s": rate(
            "verify.verify_cycle_string.objects", "verify.verify_cycle_string"),
        "verify.verify_cycle_string.peak_mb": peak_mb("verify.verify_cycle_string"),
        "verify.verify_object_list.share": share("verify.verify_object_list"),
        "verify.defects.count": counts.get("verify.defects.count", 0),
        "verify.hamilton_oracle.share": share("verify.hamilton_oracle"),
        "verify.hamilton_oracle.nodes": counts.get("verify.hamilton_oracle.nodes", 0),
        "verify.hamilton_oracle.nodes_per_s": rate("verify.hamilton_oracle.nodes", "verify.hamilton_oracle"),
        "verify.hamilton_oracle.decided_ratio":
            counts.get("verify.hamilton_oracle.decided", 0) / oracle_calls if oracle_calls else 0.0,
        "cli.parse_text.share": share("cli.parse_text"),
        "cli.parse_text.symbols_per_s": rate("cli.parse_text.symbols", "cli.parse_text"),
        "cli.parse_text.peak_mb": peak_mb("cli.parse_text"),
        "cli.emit_document.share": share("cli.emit_document"),
        "cli.emit_list.share": share("cli.emit_list"),
        "cli.doc_bytes": counts.get("cli.doc_bytes", 0),
        "cli.main.self_share": self_s.get("cli.main", 0.0) / total,
        "core.feasibility.calls": calls.get("core.feasibility", 0),
        "core.feasibility.share": share("core.feasibility"),
        "graph.build_graph.edges": counts.get("graph.build_graph.edges", 0),
        "connect.find_path.share": share("connect.find_path"),
        "connect.find_path.first_call_share": spans["first_call_s"] / total,
        "connect.replay_certificate.share": share("connect.replay_certificate"),
        "connect.steps": counts.get("connect.steps", 0),
        "connect.steps_per_cap.max": spans["steps_per_cap_max"],
        "trace.traced_cpu_s": traced_cpu_s,
        "trace.untraced_cpu_s": untraced_cpu_s,
        "trace.overhead_ratio": (traced_cpu_s - untraced_cpu_s) / untraced_cpu_s,
        "trace.spans": spans["spans"],
    })
    return out


def show_samples(name: str, unit: str, samples: list[float], value: float) -> None:
    q1, q2, q3 = quartiles(samples)
    spread = (q3 - q1) / q2 if q2 else 0.0
    print(f"  {name:<16} {value:>16.6g} {unit:<10} median {q2:.6g}  q1 {q1:.6g}  q3 {q3:.6g}"
          f"  spread {spread:.3f}  n={len(samples)}")


def report_ops(results: list[dict]) -> None:
    by_label: dict[str, list[float]] = defaultdict(list)
    for res in results:
        for label, cpu in zip(res["labels"], res["cpu"]):
            by_label[label].append(cpu)
    if len(by_label) > 32:  # small-sweep: one group per family
        grouped: dict[str, list[float]] = defaultdict(list)
        for label, ts in by_label.items():
            grouped[label.split()[0]].extend(ts)
        by_label = grouped
    print("operation latency (cpu s), all passes:")
    for label, ts in sorted(by_label.items()):
        ts.sort()
        line = f"  {label:<34} n={len(ts):<6} median {statistics.median(ts):.6f}"
        for pct in (90, 99):
            if len(ts) * (100 - pct) >= 1000:  # at least ten samples beyond it
                line += f"  p{pct} {ts[int(len(ts) * pct / 100)]:.6f}"
        print(line + f"  max {ts[-1]:.6f}")


def check_results(workload: str, results: list[dict], prepared: dict | None) -> tuple[bool, int, int]:
    """Print failures and document digests; return (correct, attempted, failed).

    A failure listed in workloads.KNOWN_DEFECTS, with the problem text
    listed there, counts as failed but leaves the run correct; any other
    failure, a document whose bytes change between passes, or a bad input
    document makes it incorrect."""
    attempted = sum(len(res["labels"]) for res in results)
    failures = [(res["labels"][int(i)], why) for res in results for i, why in res["failures"].items()]

    def known(label: str, problem: str) -> bool:
        entry = workloads.KNOWN_DEFECTS.get((workload, label))
        return entry is not None and problem.startswith(entry[0])

    for (wl, label), (_, why) in workloads.KNOWN_DEFECTS.items():
        if wl == workload:
            seen = [problem for lab, problem in failures if lab == label and known(lab, problem)]
            state = f"failed as known: {seen[0]}" if seen else "NO LONGER FAILS AS KNOWN"
            print(f"known defect {label!r} ({why}): {state}")
    unexpected = sorted({f"{label}: {why}" for label, why in failures if not known(label, why)})
    for line in unexpected[:20]:
        print(f"FAILED {line}")
    correct = not unexpected
    digests: dict[str, set] = defaultdict(set)
    for res in results:
        for label, d in res["digests"].items():
            digests[label].add(d)
    changing = sorted(label for label, ds in digests.items() if len(ds) > 1)
    if changing:
        correct = False
        print(f"FAILED documents differ between passes: {changing}")
    if prepared is not None:
        for problem in prepared["problems"]:
            correct = False
            print(f"FAILED input document: {problem}")
        for label, d in sorted(prepared["digests"].items()):
            print(f"input digest {label:<24} {d}")
    if len(digests) <= 8:
        for label, ds in sorted(digests.items()):
            print(f"output digest {label:<34} {min(ds)}")
    elif digests:
        lines = "".join(f"{label} {min(ds)}\n" for label, ds in sorted(digests.items()))
        print(f"output digest of {len(digests)} documents {hashlib.sha256(lines.encode()).hexdigest()}")
    return correct, attempted, len(failures)


def run(args: argparse.Namespace, work: Path) -> dict:
    bench = Bench(args, work)
    print(f"perfbench ocycles workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"why: {workloads.WHY[args.workload]}")
    print(f"python {sys.version.split()[0]}, {os.cpu_count()} cpus, one closed-loop caller, fresh interpreter per pass")
    setup, setup_wall = bench.setup_times() if not args.trace else ([], [])
    prepared = None
    if args.workload == "docs-verify":
        prepared = bench.worker(mode="prepare")
    docs = prepared["docs"] if prepared else []
    modes = ["plain", "spans", "memory"] if args.trace else None
    results = bench.passes(docs, modes)
    bench.check_documents(results)
    correct, attempted, failed = check_results(args.workload, results, prepared)
    print(f"attempted {attempted}  failed {failed}  error_rate {failed / attempted:.6g} (ratio)")
    untraced = [r for r in results if r["mode"] == "plain"]
    report_ops(untraced)
    probes = [p for res in untraced for p in res["probes"]]
    print(f"host noise: {len(probes)} probes, cpu s min {min(probes):.5f}  median {statistics.median(probes):.5f}"
          f"  max {max(probes):.5f}  max/min {max(probes) / min(probes):.3f}  (REF_S {hostref.REF_S})")

    plain = [pass_metrics(r) for r in untraced]
    for i, (pm, res) in enumerate(zip(plain, untraced)):
        print(f"pass {i + 1}: op time {pm['op_s']:.4f} s (cpu {pm['op_cpu_s']:.4f} s, normalised {pm['op_norm_s']:.4f} s)  objects/s {pm['objects_per_s']:.6g}"
              f"  ops/s {pm['ops_per_s']:.6g}  max op {pm['max_op_s']:.4f} s  rss {pm['peak_rss_mb']:.1f} MB"
              f"  process cpu user {res['user_s']:.3f} s sys {res['sys_s']:.3f} s")
    if not args.trace:
        metrics = run_metrics(untraced)
        metrics.update(
            setup_s=statistics.median(setup),
            peak_rss_mb=max(p["peak_rss_mb"] for p in plain),
            ok_ratio=1 - failed / attempted,
        )
        samples = {name: [p[name] for p in plain] for name in ("objects_per_s", "ops_per_s", "max_op_s", "peak_rss_mb")}
        samples.update(setup_s=setup, ok_ratio=[metrics["ok_ratio"]])
        print(f"setup wall seconds: median {statistics.median(setup_wall):.6f}  max {max(setup_wall):.6f}")
        print("end-to-end metrics (value from per-operation medians; quartiles of the per-pass samples):")
        for name, unit in END_TO_END.items():
            show_samples(name, unit, samples[name], metrics[name])
        units = END_TO_END
    else:
        by_mode = {r["mode"]: r for r in results}
        spans, memory = by_mode["spans"]["trace"], by_mode["memory"]["trace"]
        cpu = {mode: sum(r["cpu"]) for mode, r in by_mode.items()}
        metrics = layer_metrics(spans, memory, cpu["spans"], cpu["plain"])
        total = spans["incl_s"][OP_SPAN]
        print(f"operation cpu s: untraced {cpu['plain']:.4f}, span-traced {cpu['spans']:.4f},"
              f" tracemalloc {cpu['memory']:.4f}; {spans['spans']} spans over {spans['ops']} operations,"
              f" {total:.4f} wall s")
        print("self time by layer (s, share of traced op time):")
        for layer in ("bench", *LAYERS):
            s = sum(v for k, v in spans["self_s"].items() if k.startswith(layer + "."))
            print(f"  {layer:<8} {s:12.6f} s  {s / total:8.4f}")
        print("spans (calls, inclusive s, self s):")
        for name in sorted(spans["calls"]):
            print(f"  {name:<30} {spans['calls'][name]:>8}  {spans['incl_s'][name]:12.6f}  {spans['self_s'][name]:12.6f}")
        print("per-layer metrics:")
        for name, unit in PER_LAYER.items():
            print(f"  {name:<42} {metrics[name]:>16.6g} {unit}")
        units = PER_LAYER
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ocycles" / "cli.py").is_file():
        print(f"perfbench: no ocycles sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as work:
            result = run(args, Path(work))
    except (BenchError, subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
