"""The three benchmark workloads: study, triage and attack.

Each workload is a closed loop with one client and no worker threads: the
next call into sievemal starts only when the previous one has returned.  A
workload has a set-up, untimed by the pass, and a pass, which is what a run
repeats for its measuring time.  The set-up runs in child processes, so the
measured process's peak RSS covers only its imports, its inputs and the pass.
The pass runs in-process against the public API (``sievemal.cli.main``,
``sievemal.pipeline``) and is timed from outside.  All paths are relative to
the run's work directory, which is the current directory, so the artifacts
hash the same in every run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from sievemal import cli, corpus, pipeline

import decoys
import speed
from build import N_TREES

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
BUILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "build.py")

N_DECOYS = 2000
ATTACK_SECTIONS = 10
ATTACK_BUDGET = 200
CLASSIFY_EPOCHS = ("present-test", "future")

# exact by construction of the corpus generator, for every seed: plant and
# allowlist counts are rounded rates of fixed per-epoch counts
FILTER_REMOVED = {"removed_by_allowlist": 80, "removed_by_blocklist": 360}
TRIAGE_VERDICTS = {"malicious_by_blocklist": 270, "benign_by_allowlist": 24, "error": 0}
FUTURE_RULE_STATS = {"malware_total": 360, "goodware_total": 240, "blocklist_malware": 162,
                     "blocklist_goodware": 0, "allowlist_malware": 0, "allowlist_goodware": 0}
FUTURE_MALWARE = 360


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclasses.dataclass
class PassResult:
    start: float = 0.0
    end: float = 0.0
    intervals: dict = dataclasses.field(default_factory=dict)   # stage -> (start, end)
    points: list = dataclasses.field(default_factory=list)      # per file: (end, seconds)
    attempted: int = 0
    failures: list = dataclasses.field(default_factory=list)    # one line per failed op
    artifacts: dict = dataclasses.field(default_factory=dict)   # name -> sha256
    mix: dict = dataclasses.field(default_factory=dict)         # work-mix counters
    # speed-corrected times, filled in from the intervals once the run is over
    seconds: float = 0.0
    stages: dict = dataclasses.field(default_factory=dict)      # stage -> seconds
    latencies: list = dataclasses.field(default_factory=list)   # per-file seconds
    raw: dict = dataclasses.field(default_factory=dict)         # uncorrected wall times

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def correct(self, probe):
        self.raw = {"pass_s": self.end - self.start,
                    **{f"{k}_s": e - s for k, (s, e) in self.intervals.items()}}
        self.seconds = probe.corrected(self.start, self.end)
        self.stages = {k: probe.corrected(s, e) for k, (s, e) in self.intervals.items()}
        self.latencies = [probe.corrected_point(t, d) for t, d in self.points]


class Context:
    """Per-run state: seed, instruments and the phase every call is filed under."""

    def __init__(self, seed: int, counter, tracer=None, setup_trace=None):
        self.seed = seed
        self.counter = counter
        self.tracer = tracer
        self.setup_trace = setup_trace      # where a traced set-up child writes its calls

    def phase(self, name: str):
        self.counter.phase = name
        if self.tracer is not None:
            self.tracer.phase = name

    @contextlib.contextmanager
    def stage(self, name: str, result: PassResult):
        self.phase(name)
        span = self.tracer.span(f"bench.{name}") if self.tracer else contextlib.nullcontext()
        start = time.perf_counter()
        with span:
            yield
        result.intervals[name] = (start, time.perf_counter())

    def cli(self, argv, result: PassResult) -> int:
        """One cli.main call; stdout is kept out of the benchmark's own output."""
        span = (self.tracer.span(f"cli.{argv[0]}") if self.tracer
                else contextlib.nullcontext())
        with span, contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        result.check(rc == 0, f"sievemal {argv[0]} exited {rc}")
        return rc


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


def build_system(ctx, out: str, n_decoys: int):
    """Corpus and trained system under `out`, built by build.py in a child
    process; returns the corpus manifest and the child's (raw, corrected)
    seconds."""
    fresh_dir(out)
    argv = [sys.executable, BUILD, "--seed", str(ctx.seed), "--out", out,
            "--decoys", str(n_decoys)]
    if ctx.tracer is not None:
        argv += ["--trace", str(ctx.setup_trace)]
    out_text = subprocess.run(argv, check=True, stdout=subprocess.PIPE, text=True).stdout
    if ctx.tracer is not None:
        ctx.tracer.merge(ctx.setup_trace)
    raw, corrected = map(float, out_text.split()[-2:])
    return corpus.read_manifest(os.path.join(out, "corpus", "manifest.csv")), (raw, corrected)


IMPORT_TIMER = """
import time, numpy
def loop():
    start = time.perf_counter()
    x = 0
    for i in range({loops}):
        x += i * i
    return time.perf_counter() - start
before = sorted(loop() for _ in range(201))[100]
start = time.perf_counter()
import sievemal.cli
seconds = time.perf_counter() - start
after = sorted(loop() for _ in range(201))[100]
print(seconds, seconds * ({nominal} * 2 / (before + after)) ** {exponent})
"""


class Study:
    """The README workflow: gen-corpus, filter, extract-features, train, eval."""

    name = "study"
    setup_repeats = 40
    classify_phase = "eval"
    pass_phases = ("gen_corpus", "filter", "extract", "train", "eval")

    def setup(self, ctx) -> tuple:
        """(raw, speed-corrected) seconds `import sievemal.cli` takes in a fresh
        interpreter, which every CLI call pays.  numpy is imported first, so the
        time is the package's own.  The import is too short for the parent's
        probe, so the child times the probe's loop around it."""
        env = dict(os.environ, PYTHONPATH=SRC)
        code = IMPORT_TIMER.format(loops=speed.LOOPS, nominal=speed.NOMINAL,
                                   exponent=speed.EXPONENT)
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             stdout=subprocess.PIPE, text=True).stdout
        raw, corrected = map(float, out.split())
        return raw, corrected

    def corpus_dir(self):
        return "pass/corpus"

    def run_pass(self, ctx) -> PassResult:
        fresh_dir("pass")
        r = PassResult()
        c = "pass/corpus"
        rules = ["--allow", f"{c}/allowlist.yar", "--block", f"{c}/blocklist.yar"]
        seed = str(ctx.seed)
        steps = (
            ("gen_corpus", ["gen-corpus", "--seed", seed, "--out", c]),
            ("filter", ["filter", "--corpus", f"{c}/manifest.csv", *rules,
                        "--out", "pass/filtered.csv", "--report", "pass/filter.json"]),
            ("extract", ["extract-features", "--corpus", f"{c}/manifest.csv",
                         "--out", "pass/features.csv"]),
            ("train", ["train", "--corpus", f"{c}/manifest.csv", *rules,
                       "--system-out", "pass/system", "--seed", seed,
                       "--n-trees", str(N_TREES)]),
            ("eval", ["eval", "--system", "pass/system", "--corpus", f"{c}/manifest.csv",
                      "--split", "future", "--report", "pass/eval.json"]),
        )
        r.start = time.perf_counter()
        for stage, argv in steps:
            with ctx.stage(stage, r):
                rc = ctx.cli(argv, r)
            if rc != 0:
                break
        r.end = time.perf_counter()
        if r.failures:
            return r

        with open("pass/filter.json", encoding="utf-8") as fh:
            filtered = json.load(fh)
        for key, want in FILTER_REMOVED.items():
            r.check(filtered[key] == want, f"filter {key} = {filtered[key]}, want {want}")
        with open("pass/eval.json", encoding="utf-8") as fh:
            future = json.load(fh)["rule_stats"]["future"]
        for key, want in FUTURE_RULE_STATS.items():
            r.check(future[key] == want, f"eval future {key} = {future[key]}, want {want}")
        for name in ("corpus/manifest.csv", "filter.json", "features.csv",
                     "system/model.json", "eval.json"):
            r.artifacts[name] = sha256_file(os.path.join("pass", name))

        eval_files = FUTURE_RULE_STATS["malware_total"] + FUTURE_RULE_STATS["goodware_total"]
        r.mix = {
            "filter.allowlist": filtered["removed_by_allowlist"],
            "filter.blocklist": filtered["removed_by_blocklist"],
            "filter.survivors": filtered["survivors"],
            "eval.blocklist_malware": future["blocklist_malware"],
            "eval.scan_calls_per_file": ctx.counter.total("rules.scan", "eval") / eval_files,
            "eval.extract_calls_per_file":
                ctx.counter.total("features.extract_features", "eval") / eval_files,
            **{f"{stage}.scan_calls": ctx.counter.total("rules.scan", stage)
               for stage, _ in steps},
            **{f"{stage}.extract_calls": ctx.counter.total("features.extract_features", stage)
               for stage, _ in steps},
        }
        return r

    def classified(self, r: PassResult, tracer) -> int:
        return FUTURE_RULE_STATS["malware_total"] + FUTURE_RULE_STATS["goodware_total"]

    def stage_metrics(self, passes) -> dict:
        return {f"{stage}_s": statistics.median(p.stages[stage] for p in passes)
                for stage in ("gen_corpus", "filter", "extract", "train", "eval")}


class Triage:
    """Deployment read path: load the system, then predict file by file."""

    name = "triage"
    setup_repeats = 1
    classify_phase = "predict"
    pass_phases = ("load", "predict")

    def setup(self, ctx) -> tuple:
        manifest, seconds = build_system(ctx, "setup", N_DECOYS)
        self.inputs = []
        for rec in manifest.records:
            if rec.epoch not in CLASSIFY_EPOCHS:
                continue
            with open(rec.path, "rb") as fh:
                raw = fh.read()
            if rec.allowlisted:
                expect = ("benign_by_allowlist", None)
            elif rec.planted:
                expect = ("malicious_by_blocklist", tuple(rec.planted))
            else:
                expect = ("ml_score", ())
            self.inputs.append((raw, expect))
        return seconds

    def corpus_dir(self):
        return "setup/corpus"

    def run_pass(self, ctx) -> PassResult:
        r = PassResult()
        r.start = time.perf_counter()
        with ctx.stage("load", r):
            system = pipeline.load_system("setup/system")
        verdicts = []
        clock = time.perf_counter
        with ctx.stage("predict", r):
            for raw, _ in self.inputs:
                t0 = clock()
                verdicts.append(pipeline.predict(system, raw))
                t1 = clock()
                r.points.append((t1, t1 - t0))
        r.end = time.perf_counter()

        tally = {}
        digest = hashlib.sha256()
        decoy_hits = 0
        for i, ((_, (stage, fired)), v) in enumerate(zip(self.inputs, verdicts)):
            tally[v.stage] = tally.get(v.stage, 0) + 1
            decoy_hits += sum(1 for name in v.fired if decoys.is_decoy(name))
            ok = v.stage == stage and (fired is None or v.fired == fired)
            if stage == "ml_score":
                ok = ok and v.score is not None and 0.0 <= v.score <= 1.0
            r.check(ok, f"file {i}: verdict {v.stage} {v.fired}, want {stage} {fired}")
            digest.update(f"{v.stage}\t{v.score!r}\t{','.join(v.fired)}\n".encode())
        for stage, want in TRIAGE_VERDICTS.items():
            r.check(tally.get(stage, 0) == want,
                    f"{tally.get(stage, 0)} {stage} verdicts, want {want}")
        r.check(decoy_hits == 0, f"decoy rules fired {decoy_hits} times")
        r.artifacts["verdicts"] = digest.hexdigest()
        n = len(self.inputs)
        r.mix = {
            **{f"verdicts.{k}": v for k, v in sorted(tally.items())},
            "blocklist_rules": len(system.blocklist.rules),
            "allowlist_rules": len(system.allowlist.rules),
            "scan_calls_per_file": ctx.counter.total("rules.scan", "predict") / n,
            "extract_calls_per_file":
                ctx.counter.total("features.extract_features", "predict") / n,
        }
        return r

    def classified(self, r: PassResult, tracer) -> int:
        return len(self.inputs)

    def stage_metrics(self, passes) -> dict:
        lat = sorted(x for p in passes for x in p.latencies)
        q = statistics.quantiles(lat, n=100, method="inclusive")
        return {
            "system_load_s": statistics.median(p.stages["load"] for p in passes),
            "predict_p50_ms": statistics.median(lat) * 1e3,
            "predict_p99_ms": q[98] * 1e3,
            "predict_files_per_s": statistics.median(
                len(p.latencies) / p.stages["predict"] for p in passes),
        }


class Attack:
    """Section-injection attack on every future-split malware sample, then report."""

    name = "attack"
    setup_repeats = 1
    classify_phase = "attack"
    pass_phases = ("attack", "report")

    def setup(self, ctx) -> tuple:
        manifest, seconds = build_system(ctx, "setup", 0)
        self.targets = {rec.sha256: rec for rec in manifest.records
                        if rec.epoch == "future" and rec.label == 1}
        corpus.write_manifest(corpus.Manifest(records=list(self.targets.values())),
                              "setup/future-malware.csv")
        return seconds

    def corpus_dir(self):
        return "setup/corpus"

    def run_pass(self, ctx) -> PassResult:
        fresh_dir("pass")
        r = PassResult()
        r.start = time.perf_counter()
        with ctx.stage("attack", r):
            rc = ctx.cli(["attack", "--system", "setup/system",
                          "--malware", "setup/future-malware.csv",
                          "--pool-source", "setup/corpus/manifest.csv",
                          "--sections", str(ATTACK_SECTIONS), "--budget", str(ATTACK_BUDGET),
                          "--seed", str(ctx.seed), "--out", "pass/attack"], r)
        if rc == 0:
            with ctx.stage("report", r):
                rc = ctx.cli(["report", "--results", "pass/attack",
                              "--out", "pass/summary.json"], r)
        r.end = time.perf_counter()
        if rc != 0:
            return r

        with open("pass/attack/results.json", encoding="utf-8") as fh:
            rows = json.load(fh)["rows"]
        with open("pass/summary.json", encoding="utf-8") as fh:
            summary = json.load(fh)
        r.check(len(rows) == FUTURE_MALWARE, f"{len(rows)} attack rows, want {FUTURE_MALWARE}")
        r.check(summary["attacked"] == len(rows), f"report counts {summary['attacked']} rows")
        for row in rows:
            planted = list(self.targets[row["sha256"]].planted)
            ok = (1 <= row["queries"] <= ATTACK_BUDGET
                  and row["fired_on_best"] == planted
                  and (not planted or row["clean_score"] == 1.0))
            r.check(ok, f"attack row {row['sha256'][:12]}: queries {row['queries']}, "
                        f"fired {row['fired_on_best']}, want {planted}")
        r.artifacts["attack/results.json"] = sha256_file("pass/attack/results.json")
        r.artifacts["summary.json"] = sha256_file("pass/summary.json")
        queries = sum(row["queries"] for row in rows)
        r.mix = {
            "samples": len(rows),
            "queries": queries,
            "queries_per_sample": queries / len(rows),
            "full_budget_samples": sum(1 for row in rows if row["queries"] == ATTACK_BUDGET),
            "evaded": sum(1 for row in rows if row["evaded"]),
            "scan_calls_per_query": ctx.counter.total("rules.scan", "attack") / queries,
            "extract_calls_per_query":
                ctx.counter.total("features.extract_features", "attack") / queries,
        }
        return r

    def classified(self, r: PassResult, tracer) -> int:
        # every oracle call hands the system one file: the clean sample or a mutant
        return tracer.total("attack.oracle", phases=("attack",))[0]

    def stage_metrics(self, passes) -> dict:
        return {
            "attack_s": statistics.median(p.stages["attack"] for p in passes),
            "attack_queries_per_s": statistics.median(
                p.mix["queries"] / p.stages["attack"] for p in passes),
        }


WORKLOADS = {w.name: w for w in (Study, Triage, Attack)}
