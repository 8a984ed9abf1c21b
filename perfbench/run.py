#!/usr/bin/env python3
"""sievemal benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload study|triage|attack --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, each in its own process

Run it from the root of a sievemal checkout.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  Times are corrected for the machine's speed (``speed.py``).
The lines before it are a readable report.  A fuller record
(environment, every pass, work-mix counters, artifact hashes, the trace table)
goes to ``.perfbench/results/``; the spans of a traced run go next to it.
The exit code is 1 when a correctness check fails, 2 when the checkout has no
sievemal sources.
"""

from __future__ import annotations

import os

# one thread per numeric pool, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
NAMES = ("study", "triage", "attack")
LAYERS = ("cli", "corpus", "pe", "rules", "features", "learners", "pipeline",
          "evaluation", "attack")
LADDER_STRIDE = 4          # every 4th present-test/future file: 300 files


def _ratio(a, b):
    return a / b if b else 0.0


_UNIT_RE = re.compile(r"_(per_s|us|ms|s|pct|mb|kb|ratio)(?=$|[._])")
_UNITS = {"per_s": "1/s", "us": "us", "ms": "ms", "s": "s", "pct": "%", "mb": "MB",
          "kb": "KB", "ratio": "ratio"}


def _unit(name: str) -> str:
    if name == "learners.rows_per_tree_predict":
        return "rows"
    m = _UNIT_RE.search(name)
    return _UNITS[m.group(1)] if m else "count"


def _import_sievemal():
    if not (SRC / "sievemal" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import sievemal

    if Path(sievemal.__file__).resolve().parent != SRC / "sievemal":
        return None
    return sievemal


def environment(seed: int) -> dict:
    import numpy

    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform(), "seed": seed}


# --- traced-run extras -------------------------------------------------------

def scan_ladder(wl, seed: int) -> dict:
    """Mean scan time per file over the classified splits, by ruleset size and kind.

    ``decoy_<kind>`` scans with the bank plus the triage decoys of one kind;
    ``scan_share_pct.<kind>`` is that kind's time above the bank alone, as a
    share of the sum over kinds.  The kinds are timed apart, so text and wide
    needles, which share one automaton in the full set, are each counted with
    their own automaton.
    """
    from sievemal import corpus
    from sievemal.rules import RuleSet, parse_rules, scan

    import decoys
    import workloads

    manifest = corpus.read_manifest(os.path.join(wl.corpus_dir(), "manifest.csv"))
    records = [r for r in manifest.records if r.epoch in ("present-test", "future")]
    files = []
    for rec in records[::LADDER_STRIDE]:
        with open(rec.path, "rb") as fh:
            files.append(fh.read())
    bank = parse_rules(corpus.emit_rules_from_bank(corpus.CorpusSpec(seed=seed)))
    text = parse_rules(decoys.source(decoys.decoys(seed, 2000, text_only=True)))
    allow = parse_rules(corpus.emit_allowlist(manifest), role="allowlist")
    sets = {"text8": bank}
    for n in (32, 256, 2000):
        sets[f"text{n}"] = RuleSet(rules=bank.rules + text.rules[:n])
    sets["sha100"] = RuleSet(rules=allow.rules[:100], role="allowlist")
    triage_decoys = decoys.decoys(seed, workloads.N_DECOYS)
    for kind in decoys.KINDS:
        of_kind = parse_rules(decoys.source(r for r in triage_decoys if r[0] == kind))
        sets[f"decoy_{kind}"] = RuleSet(rules=bank.rules + of_kind.rules)
    out = {}
    clock = time.perf_counter
    for name, rs in sets.items():
        scan(files[0], rs)                  # compile outside the timing
        total = 0.0
        for raw in files:
            t0 = clock()
            scan(raw, rs)
            total += clock() - t0
        out[f"rules.scan_us.{name}"] = total / len(files) * 1e6
    above = {kind: out[f"rules.scan_us.decoy_{kind}"] - out["rules.scan_us.text8"]
             for kind in decoys.KINDS}
    for kind, us in above.items():
        out[f"rules.scan_share_pct.{kind}"] = 100.0 * _ratio(us, sum(above.values()))
    return out


def layer_metrics(wl, tracer, traced, untraced, ladder) -> dict:
    """Per-layer metrics of the traced pass.

    Everything comes from the pass's phases except corpus synthesis and GBDT
    training, which `triage` and `attack` do only in set-up.  A metric whose
    calls a workload does not make reads 0 there.
    """
    phases = wl.pass_phases

    def t(name, prefix=False):
        return tracer.total(name, phases=phases, prefix=prefix)

    wall = sum(t(f"bench.{stage}")[1] for stage in phases)
    by_layer = tracer.self_by_layer(phases)
    files = wl.classified(traced, tracer)
    scan_n, _, _, scan_x = t("rules.scan", prefix=True)
    ext_n, ext_s, _, _ = t("features.extract_features")
    fnv_n, _, fnv_self, _ = t("features.fnv1a64")
    _, gbdt_s, _, gbdt_x = tracer.total("learners.train_gbdt")
    tp_n, _, _, tp_x = t("learners.tree_predict")
    stage_n, stage_s, _, _ = t("pipeline.stage", prefix=True)
    m = {f"{layer}.self_pct": 100.0 * _ratio(by_layer.get(layer, 0.0), wall)
         for layer in LAYERS}

    def per_call_us(name):
        n, total, _, _ = t(name)
        return _ratio(total, n) * 1e6

    def per_row_us(name):
        _, total, _, x = t(name)
        return _ratio(total, x.get("rows", 0)) * 1e6

    m.update({
        "corpus.synthesize_s": tracer.total("corpus.synthesize_corpus")[1],
        "pe.parse_pe_us": per_call_us("pe.parse_pe"),
        "pe.parse_pe_calls": t("pe.parse_pe")[0],
        "pe.inject_section_us": per_call_us("pe.inject_section"),
        "pe.serialize_pe_us": per_call_us("pe.serialize_pe"),
        "rules.parse_rules_s": t("rules.parse_rules.blocklist")[1],
        "rules.scan_us.allowlist": per_call_us("rules.scan.allowlist"),
        "rules.scan_us.blocklist": per_call_us("rules.scan.blocklist"),
        "rules.scan_kb_per_call": _ratio(scan_x.get("bytes", 0), scan_n) / 1024,
        "rules.fire_ratio": _ratio(scan_x.get("fired", 0), scan_n),
        "rules.scan_calls_per_file": _ratio(
            tracer.total("rules.scan", phases=(wl.classify_phase,), prefix=True)[0], files),
        **ladder,
        "features.extract_us": _ratio(ext_s, ext_n) * 1e6,
        "features.extract_calls_per_file": _ratio(
            tracer.total("features.extract_features", phases=(wl.classify_phase,))[0], files),
        "features.fnv1a64_calls": _ratio(fnv_n, ext_n),
        "features.fnv1a64_self_ms": fnv_self * 1e3,
        "learners.train_gbdt_s": gbdt_s,
        "learners.round_ms": _ratio(gbdt_s, gbdt_x.get("rounds", 0)) * 1e3,
        "learners.tree_predict_calls": tp_n,
        "learners.rows_per_tree_predict": _ratio(tp_x.get("rows", 0), tp_n),
        "learners.predict_us_per_row.single": per_row_us("learners.predict_gbdt.single"),
        "learners.predict_us_per_row.batch": per_row_us("learners.predict_gbdt.batch"),
        "pipeline.stage_us": _ratio(stage_s, stage_n) * 1e6,
        **{f"pipeline.stage_calls.{k}": t(f"pipeline.stage.{k}")[0]
           for k in ("allowlist", "blocklist", "ml", "error")},
        "pipeline.filter_training_s": t("pipeline.filter_training")[1],
        "pipeline.load_system_s": t("pipeline.load_system")[1],
        "evaluation.roc_s": t("evaluation.roc")[1],
        "evaluation.composite_roc_s": t("evaluation.composite_roc")[1],
        "evaluation.rule_stats_s": t("evaluation.rule_stats")[1],
        "attack.apply_manipulation_us": per_call_us("attack.apply_manipulation"),
        "attack.oracle_us": per_call_us("attack.oracle"),
        "attack.harvest_sections_s": t("attack.harvest_sections")[1],
        "attack.rule_probe_calls": t("attack.rule_probe")[0],
        "attack.queries_per_sample": traced.mix.get("queries_per_sample", 0),
        "attack.evaded": traced.mix.get("evaded", 0),
        "trace.overhead_s": traced.seconds - untraced.seconds,
    })
    return m


# --- one workload ------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    import speed
    import tracing
    import workloads

    wl = workloads.WORKLOADS[name]()
    work = ROOT / ".perfbench" / "work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    counter = tracing.CallCounter()
    tracer = tracing.Tracer() if trace else None
    probe = speed.SpeedProbe()
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    ctx = workloads.Context(seed, counter, tracer,
                            setup_trace=results / f"{name}-seed{seed}.setup.spans.jsonl")
    passes, setups, ladder, peak_rss_kb = [], [], {}, 0
    os.chdir(work)
    try:
        counter.install()
        probe.start()
        if tracer:
            tracer.install()
        for _ in range(1 if trace else wl.setup_repeats):
            ctx.phase("setup")
            span = tracer.span("bench.setup") if tracer else contextlib.nullcontext()
            with span:
                # set-up runs in child processes that time themselves
                setups.append(wl.setup(ctx))        # (raw, corrected) seconds
        if tracer:
            tracer.uninstall()
            ctx.tracer = None
            counter.counts.clear()
            passes.append(wl.run_pass(ctx))         # untraced twin: tracing overhead
            ctx.tracer = tracer
            tracer.install()
            counter.counts.clear()
            with tracer.span("bench.pass"):
                passes.append(wl.run_pass(ctx))
            tracer.uninstall()
            ladder = scan_ladder(wl, seed)
        else:
            start = time.perf_counter()
            while True:
                counter.counts.clear()
                passes.append(wl.run_pass(ctx))
                if len(passes) == 1:
                    # set-up ran in child processes, so this is imports, inputs and
                    # one pass; later passes may add to the peak, and their number
                    # depends on speed
                    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                elapsed = time.perf_counter() - start
                # start another pass only if it should end inside the measuring time
                if passes[-1].failures or elapsed * (len(passes) + 1) / len(passes) > seconds:
                    break
    finally:
        probe.stop()
        if tracer:
            tracer.uninstall()
        counter.uninstall()
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)

    for p in passes:
        p.correct(probe)
    setup_times = [corrected for _, corrected in setups]
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    for p in passes[1:]:
        attempted += 1
        if p.artifacts != passes[0].artifacts:
            failures.append("artifacts differ between passes of one seed")
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(seed),
        "final_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "speed_probe": probe.summary(),
        "setup_s": setup_times, "setup_raw_s": [raw for raw, _ in setups],
        "passes": [{"seconds": p.seconds, "stages": p.stages, "raw": p.raw,
                    "attempted": p.attempted, "failures": p.failures, "mix": p.mix,
                    "artifacts": p.artifacts} for p in passes],
        "attempted": attempted, "failed": len(failures), "failures": failures[:50],
    }
    # end-to-end numbers come from untraced passes only
    untraced = passes[:1] if trace else passes
    record["stage_metrics"] = wl.stage_metrics(untraced) if not failures else {}
    record["stage_metrics"]["fail_ratio"] = _ratio(len(failures), attempted)
    if trace:
        metrics = layer_metrics(wl, tracer, passes[1], passes[0], ladder)
        record["trace_passes_s"] = {"traced": passes[1].seconds, "untraced": passes[0].seconds}
        record["trace_table"] = tracer.table(wl.pass_phases)
        tracer.write_spans(results / f"{name}-seed{seed}.spans.jsonl")
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_kb / 1024,
            "pass_s": statistics.median(p.seconds for p in passes),
        }
    record["metrics"] = metrics
    return record


def report(record: dict):
    env = record["environment"]
    print(f"perfbench {record['workload']}  seed={record['seed']} trace={record['trace']} "
          f"nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"passes={len(record['passes'])} setups={len(record['setup_s'])}")
    for title, values in (("metrics", record["metrics"]),
                          ("stage metrics", record["stage_metrics"])):
        print(f"  {title}:")
        for key, value in values.items():
            print(f"    {key:<40} {value:>14.6g} {_unit(key)}")
    probe = record["speed_probe"]
    print(f"  speed probe: {probe['samples']} samples, loop median {probe['median_ms']:.4f} ms "
          f"(nominal {probe['nominal_ms']:.4f} ms); raw wall times of the last pass:")
    for key, value in record["passes"][-1]["raw"].items():
        print(f"    {key:<40} {value:>14.6g} s")
    print("  work mix (last pass):")
    for key, value in record["passes"][-1]["mix"].items():
        print(f"    {key:<40} {value:>14.6g}")
    print("  artifacts (sha256, last pass):")
    for key, value in record["passes"][-1]["artifacts"].items():
        print(f"    {key:<40} {value}")
    if record["trace"]:
        print(f"  {'trace of the pass, by self':<30} {'calls':>9} {'total_s':>13} {'self_s':>13}")
        for name, calls, total, self_time in record["trace_table"][:15]:
            print(f"    {name:<28} {calls:>9} {total:>13.4f} {self_time:>13.4f}")
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")


def run_all(args) -> int:
    """Every workload in its own process, so each has its own peak RSS."""
    worst = 0
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        correct = False
        if lines:
            with contextlib.suppress(ValueError):
                correct = json.loads(lines[-1])["correct"]
        print(f"  => {name}: exit {proc.returncode}, correct={correct}\n")
        if proc.returncode != 0 or not correct:
            worst = max(worst, proc.returncode or 1)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(*NAMES, "all"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if _import_sievemal() is None:
        print(f"perfbench: no sievemal sources under {SRC}; run from a sievemal checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    os.chdir(ROOT)
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    out = ROOT / ".perfbench" / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    report(record)
    correct = record["failed"] == 0
    print(json.dumps({
        "correct": correct, "attempted": record["attempted"], "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in record["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
