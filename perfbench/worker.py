"""One pass of a workload, in a fresh interpreter.

    python3 perfbench/worker.py JOB.json

run.py writes the job (workload, seed, mode, work directory) and reads the
result file the job names.  A fresh interpreter per pass means the
unbounded caches in ocycles start empty, as they do for a command-line user.

Modes: ``plain`` times each operation and samples the host's speed
(hostref.Sampler) to normalise the times; ``spans`` times each operation
and records spans around calls into each layer; ``memory`` adds
tracemalloc peaks inside the spans of spans.MEMORY_SPANS; ``prepare``
writes the docs-verify input documents.
Every operation's output is checked here, outside its timed region, except
the documents that ``gen`` writes on cycle-ladder and small-sweep: those are
kept under ``out/`` in the work directory, by digest, and run.py checks each
distinct one against the construction.  The check of a (9,9,4) document
takes far more memory than generating it, so it stays out of the process
whose peak RSS is reported.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import resource
import sys
import time
from array import array
from pathlib import Path

import checks
import hostref
import workloads
from checks import Instance
from spans import CLI_CALLS, WALKER_CALLS, Tracer

import ocycles
import ocycles.cli
import ocycles.connect

REPORT_KEYS = ("valid", "objects", "length-ok", "invalid-words", "duplicates", "missing", "overlap-violations")


def cli_call(argv: list[str]) -> tuple[object, str, str]:
    """Run ``ocycles.cli.main`` in-process; an escaping exception is the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = ocycles.cli.main(argv)
        except SystemExit as exc:
            rc = f"exit {exc.code}"
        except Exception as exc:  # a documented exit code was expected
            rc = f"exception {type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue()


def parse_report(text: str) -> dict:
    report = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key in REPORT_KEYS:
            report[key] = value == "yes" if value in ("yes", "no") else int(value)
    return report


def report_problem(text: str, expected: dict) -> str | None:
    got = parse_report(text)
    wrong = {k: (got.get(k), v) for k, v in expected.items() if got.get(k) != v}
    return f"verify report differs (got, expected): {wrong}" if wrong else None


def valid_report(objects: int) -> dict:
    return {
        "valid": True, "objects": objects, "length-ok": True, "invalid-words": 0,
        "duplicates": 0, "missing": 0, "overlap-violations": 0,
    }


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Runner:
    """Executes operations, times each one, and checks its output."""

    def __init__(self, job: dict, tracer: Tracer | None):
        self.work = Path(job["work"])
        self.tracer = tracer
        self.digests: dict[str, str] = {}
        self.kept: dict[str, tuple[dict, str]] = {}  # label -> (instance, format) of a kept document
        self.params: dict[Instance, object] = {}
        self.has_cycle: dict[Instance, bool] = {}

    def ocycles_params(self, inst: Instance):
        if inst not in self.params:
            if inst.multiset is not None:
                self.params[inst] = ocycles.validate_params(multiset=inst.multiset, s=inst.s)
            else:
                self.params[inst] = ocycles.validate_params(n=inst.n, k=inst.k, s=inst.s)
        return self.params[inst]

    def run(self, ops: list[dict]) -> dict:
        """Run every operation; per-operation results go into flat columns so
        that the benchmark's own bookkeeping barely adds to peak RSS.  An
        untraced pass samples the host's speed throughout, and an operation's
        times leave out the probes that ran inside it."""
        wall, cpu, objects = array("d"), array("d"), array("q")
        starts, ends = array("d"), array("d")
        failures: dict[int, str] = {}
        sampler = hostref.Sampler() if self.tracer is None else None
        if sampler is not None:
            sampler.start()
        for i, op in enumerate(ops):
            inst = Instance.from_json(op["inst"])
            call, check = getattr(self, "op_" + op["kind"])(op, inst)
            span = self.tracer.begin_op() if self.tracer else None
            probed = sampler.spent if sampler else 0.0
            c0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                out = call()
            finally:
                c1 = time.thread_time()
                probed = sampler.spent - probed if sampler else 0.0
                wall.append(time.perf_counter() - t0 - probed)
                cpu.append(c1 - c0 - probed)
                starts.append(c0)
                ends.append(c1)
                if span is not None:
                    self.tracer.end_op(span)
            problem, count = check(out)
            objects.append(count)
            if problem is not None:
                failures[i] = problem
        if sampler is not None:
            sampler.stop()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return {
            "labels": [op["label"] for op in ops],
            "t": wall.tolist(),
            "cpu": cpu.tolist(),
            "norm": sampler.normalise(cpu, starts, ends) if sampler else cpu.tolist(),
            "probes": sampler.took.tolist() if sampler else [],
            "objects": objects.tolist(),
            "failures": failures,
            "rss_mb": rss_mb,
        }

    def keep_document(self, label: str, path: Path, inst: Instance) -> None:
        """Record the document's digest and keep its bytes for run.py to check."""
        data = path.read_bytes()
        d = digest(data)
        self.digests[label] = d
        self.kept[label] = (inst.to_json(), "string")
        kept = self.work / "out" / f"{d}.txt"
        if not kept.exists():
            kept.parent.mkdir(exist_ok=True)
            kept.write_bytes(data)

    def op_ladder(self, op: dict, inst: Instance):
        path = self.work / "ladder.txt"
        argv = inst.argv()

        def call():
            gen = cli_call(["gen", *argv, "--out", str(path)])
            if gen[0] != 0:
                return gen, None
            return gen, cli_call(["verify", str(path), *argv])

        def check(out):
            gen, ver = out
            if gen[0] != 0:
                return f"gen exit {gen[0]}: {gen[2].strip()[-200:]}", 0
            self.keep_document(op["label"], path, inst)
            if ver[0] != 0:
                return f"verify exit {ver[0]}", inst.object_count()
            return report_problem(ver[1], valid_report(inst.object_count())), inst.object_count()

        return call, check

    def op_doc(self, op: dict, inst: Instance):
        argv = ["verify", str(self.work / op["path"]), *inst.argv()]
        expect = op["expect"]

        def check(out):
            rc, text, err = out
            if rc != expect["rc"]:
                return f"verify exit {rc}, expected {expect['rc']}: {err.strip()[-200:]}", 0
            if expect["report"] is None:
                return None, 0
            return report_problem(text, expect["report"]), expect["report"]["objects"]

        return (lambda: cli_call(argv)), check

    def op_gen(self, op: dict, inst: Instance):
        """``gen --format`` for a docs-verify instance; its bytes must be the
        ones the prepare step wrote and checked."""
        path = self.work / "docgen.txt"
        argv = ["gen", *inst.argv(), "--format", op["format"], "--out", str(path)]

        def check(out):
            rc, _, err = out
            if rc != 0:
                return f"gen exit {rc}: {err.strip()[-200:]}", 0
            d = digest(path.read_bytes())
            self.digests[op["label"]] = d
            if d != op["digest"]:
                return "gen wrote other bytes than in the prepare step", 0
            return None, inst.object_count()

        return (lambda: cli_call(argv)), check

    def op_walk(self, op: dict, inst: Instance):
        params = self.ocycles_params(inst)
        v = tuple(op["vertex"])
        connect = ocycles.connect

        def call():
            try:
                cert = connect.find_path(v, params)
                return cert, connect.replay_certificate(cert, params)
            except Exception as exc:  # a certificate was expected
                return exc, None

        def check(out):
            cert, replay = out
            if replay is None:
                return f"walker raised {type(cert).__name__}: {cert}", 0
            if not replay.ok:
                return f"replay failed: {replay.violation}", len(cert.steps)
            if cert.origin != v or cert.terminus != inst.min_vertex():
                return f"certificate runs {cert.origin} -> {cert.terminus}", len(cert.steps)
            steps = [(st.direction.value == "forward", st.edge.word) for st in cert.steps]
            return checks.certificate_problem(v, steps, inst), len(steps)

        return call, check

    def op_sweep(self, op: dict, inst: Instance):
        path = self.work / "sweep.txt"
        argv = inst.argv()
        budget = str(workloads.SWEEP_ORACLE_BUDGET)
        if inst not in self.has_cycle:
            self.has_cycle[inst] = checks.has_cycle(inst)
        cycle = self.has_cycle[inst]

        def call():
            gen = cli_call(["gen", *argv, "--out", str(path)])
            ver = cli_call(["verify", str(path), *argv]) if gen[0] == 0 else None
            return gen, ver, cli_call(["oracle", *argv, "--budget", budget])

        def check(out):
            gen, ver, oracle = out
            described = gen[2].partition("feasibility: ")[2].partition("\n")[0]
            verdict = described.split(" ", 1)[0]
            problem = None
            if cycle:
                if gen[0] == 3:
                    problem = f"classified {described}, yet a cycle exists"
                elif gen[0] != 0:
                    problem = f"gen exit {gen[0]} ({described}), yet a cycle exists"
                else:
                    self.keep_document(op["label"], path, inst)
                    if ver[0] != 0:
                        problem = f"verify exit {ver[0]} on a generated cycle"
            elif verdict == "guaranteed":
                problem = "classified guaranteed, yet no cycle exists"
            elif gen[0] != (3 if verdict == "infeasible" else 4):
                problem = f"gen exit {gen[0]} ({verdict}) for an instance without a cycle"
            if problem is None:
                problem = self.oracle_problem(oracle, inst, cycle, verdict)
            return problem, inst.object_count()

        return call, check

    def oracle_problem(self, oracle, inst: Instance, cycle: bool, verdict: str) -> str | None:
        rc, text, err = oracle
        if rc == 0:
            if not cycle:
                return "oracle found a witness for an instance without a cycle"
            words = [tuple(int(x) for x in line.split(",")) for line in text.splitlines()[1:]]
            return checks.witness_problem(words, inst)
        if rc == 3 and cycle:
            return "oracle found no cycle, yet one exists"
        if rc == 4 and verdict == "guaranteed":
            return "oracle budget exhausted on a guaranteed instance"
        if rc not in (3, 4):
            return f"oracle exit {rc}: {err.strip()[-200:]}"
        return None


def prepare_docs(job: dict) -> dict:
    """Write the docs-verify inputs and derive each one's expected outcome
    from the construction."""
    work = Path(job["work"])
    rng = random.Random(job["seed"])
    docs: list[dict] = []  # the operations: verify of each document, gen of each instance
    problems: list[str] = []
    digests: dict[str, str] = {}

    def add(label: str, inst: Instance, text: str, rc: int, expected: dict | None) -> None:
        name = f"doc-{label}.txt"
        (work / name).write_text(text, encoding="utf-8")
        digests[label] = digest(text.encode())
        report = None if expected is None else dict(expected, **{"length-ok": True})
        docs.append({"kind": "doc", "label": label, "inst": inst.to_json(), "path": name,
                     "expect": {"rc": rc, "report": report}})

    def generated(inst: Instance, fmt: str) -> str:
        path = work / "gen.txt"
        rc, _, err = cli_call(["gen", *inst.argv(), "--format", fmt, "--out", str(path)])
        if rc != 0:
            raise RuntimeError(f"gen {inst.label} --format {fmt} exited {rc}: {err.strip()}")
        text = path.read_text(encoding="utf-8")
        problem = checks.generated_document_problem(text, inst, fmt)
        if problem:
            problems.append(f"{inst.label} {fmt}: {problem}")
        docs.append({"kind": "gen", "label": f"gen {inst.label} {fmt}", "inst": inst.to_json(),
                     "format": fmt, "digest": digest(text.encode())})
        return text

    def split_doc(text: str) -> tuple[list[str], list[str]]:
        lines = text.splitlines()
        head = [x for x in lines if x.startswith("#")]
        return head, [x for x in lines if x and not x.startswith("#")]

    strings = {
        "kperm": (workloads.DOCS_KPERM, generated(workloads.DOCS_KPERM, "string")),
        "full": (workloads.DOCS_FULL, generated(workloads.DOCS_FULL, "string")),
        "multiset": (workloads.DOCS_MULTISET, generated(workloads.DOCS_MULTISET, "string")),
    }
    for name, (inst, text) in strings.items():
        add(f"{name}-string", inst, text, 0, checks.document_defects(text, inst))
    for inst, name in ((workloads.DOCS_FULL, "full"), (workloads.DOCS_MULTISET, "multiset")):
        text = generated(inst, "list")
        add(f"{name}-list", inst, text, 0, checks.document_defects(text, inst))
        if name == "multiset":
            head, body = split_doc(text)
            i, j = rng.sample(range(len(body)), 2)
            body[j] = body[i]
            tampered = "\n".join(head + body) + "\n"
            expected = checks.document_defects(tampered, inst)
            if (expected["duplicates"], expected["missing"]) != (1, 1):
                problems.append(f"duplicated line gives {expected}, not 1 duplicate and 1 missing")
            add("multiset-list-dupline", inst, tampered, 2, expected)

    for name, (inst, text) in strings.items():
        head, body = split_doc(text)
        tokens = body[0].split()
        while True:
            i, j = rng.sample(range(len(tokens)), 2)
            if tokens[i] != tokens[j]:
                break
        tokens[i], tokens[j] = tokens[j], tokens[i]
        tampered = "\n".join(head + [" ".join(tokens)]) + "\n"
        add(f"{name}-string-swap", inst, tampered, 2, checks.document_defects(tampered, inst))

    inst = workloads.DOCS_KPERM
    words = list(inst.objects())
    listing = "".join("".join(map(str, w)) + "\n" for w in words)
    add("kperm-lex-listing", inst, listing, 2, checks.defects(words, inst, cyclic_overlaps=True))

    inst = workloads.DOCS_MULTILINE
    text = generated(inst, "string")
    head, body = split_doc(text)
    tokens = body[0].split()
    stride = inst.k - inst.s
    lines = [" ".join(tokens[i : i + stride]) for i in range(0, len(tokens), stride)]
    multiline = "\n".join(head + lines) + "\n"
    add("multiline-string", inst, multiline, 0, checks.document_defects(multiline, inst))
    bad_length = "\n".join(
        "# length abc" if x.startswith("# length ") else x for x in text.splitlines()
    ) + "\n"
    add("length-abc", inst, bad_length, 6, None)

    inst, text = strings["multiset"]
    head, body = split_doc(text)
    tokens = body[0].split()
    tokens[rng.randrange(len(tokens))] = "x"
    add("bad-symbol", inst, "\n".join(head + [" ".join(tokens)]) + "\n", 6, None)
    return {"docs": docs, "problems": problems, "digests": digests}


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    if job["mode"] == "prepare":
        result = prepare_docs(job)
    else:
        tracer = None
        if job["mode"] in ("spans", "memory"):
            tracer = Tracer(memory=job["mode"] == "memory")
            for module, attr, name in CLI_CALLS + WALKER_CALLS:
                tracer.install(sys.modules[module], attr, name)
        runner = Runner(job, tracer)
        result = runner.run(workloads.build_ops(job["workload"], job["seed"], job.get("docs", [])))
        if tracer is not None:
            tracer.uninstall()
        usage = resource.getrusage(resource.RUSAGE_SELF)
        result.update(
            user_s=usage.ru_utime,
            sys_s=usage.ru_stime,
            digests=runner.digests,
            kept=runner.kept,
            trace=tracer.summary() if tracer is not None else None,
        )
    Path(job["out"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
