"""Command-line entry point wiring every module into one workflow:
gen-corpus / ingest -> rules check -> filter -> train -> eval -> attack -> report.

Exit codes: 0 success, 1 domain error (malformed input, degenerate data),
2 usage error. Diagnostics go to stderr; data goes to files or stdout.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from . import __version__
from .errors import MalformedPe, ParseError, SievemalError, SpecInvalid, check_number
from . import attack as attack_mod
from . import corpus as corpus_mod
from . import evaluation
from . import pipeline as pipeline_mod
from .features import write_feature_file
from .learners import GAMMA_RANGE, KINDS, TrainConfig
from .pe import InjectionPlan, check_injectable, parse_pe


def _write_runconfig(path, command, args_dict):
    """Reproducibility record: full config + version + seeds, no wall-clock. A
    command that owns an output directory writes <dir>/runconfig.json; one
    that writes a single file writes <its stem>.runconfig.json beside it, so
    that no record overwrites another command's."""
    evaluation.write_report(path, {
        "tool": "sievemal", "version": __version__, "command": command,
        "config": {k: v for k, v in args_dict.items() if k != "func"}})


def _beside(out) -> str:
    """The run record of a single output file: features.csv -> features.runconfig.json."""
    return os.path.splitext(out)[0] + ".runconfig.json"


# --- subcommands -------------------------------------------------------------

def cmd_gen_corpus(args) -> int:
    spec = corpus_mod.load_spec(args.spec) if args.spec else corpus_mod.CorpusSpec(seed=args.seed)
    files_dir = os.path.join(args.out, "files")
    manifest = corpus_mod.synthesize_corpus(spec, files_dir)
    corpus_mod.write_manifest(manifest, os.path.join(args.out, "manifest.csv"))
    with open(os.path.join(args.out, "blocklist.yar"), "w", encoding="utf-8") as fh:
        fh.write(corpus_mod.emit_rules_from_bank(spec))
    with open(os.path.join(args.out, "allowlist.yar"), "w", encoding="utf-8") as fh:
        fh.write(corpus_mod.emit_allowlist(manifest))
    corpus_mod.save_spec(spec, os.path.join(args.out, "spec.json"))
    # a --spec run records the seed of its spec, the one the corpus used
    _write_runconfig(os.path.join(args.out, "runconfig.json"), "gen-corpus",
                     {**vars(args), "seed": spec.seed})
    print(f"wrote {len(manifest.records)} files under {args.out}")
    return 0


def cmd_ingest(args) -> int:
    manifest = corpus_mod.ingest(args.dir, args.labels)
    corpus_mod.write_manifest(manifest, args.out)
    _write_runconfig(_beside(args.out), "ingest", vars(args))
    print(f"{len(manifest.records)} records, {manifest.duplicates} duplicates dropped")
    for failure in manifest.io_failures:
        print(f"io failure: {failure}", file=sys.stderr)
    return 0


def cmd_rules(args) -> int:
    _, rs = pipeline_mod.read_rules(args.path, "blocklist")
    print(f"{len(rs.rules)} rules")
    return 0


def cmd_extract_features(args) -> int:
    records = corpus_mod.read_manifest(args.corpus).records
    X, kept, failures = pipeline_mod.featurize(
        ((r, evaluation.read_bytes(r.path)) for r in records), len(records))
    for r, reason in failures:
        print(f"excluded {r.path}: {reason}", file=sys.stderr)
    write_feature_file(args.out, [(r.sha256, r.label, r.epoch, row) for r, row in zip(kept, X)])
    _write_runconfig(_beside(args.out), "extract-features", vars(args))
    print(f"wrote {len(kept)} vectors ({len(failures)} excluded)")
    return 0


def cmd_filter(args) -> int:
    manifest = corpus_mod.read_manifest(args.corpus)
    _, allow = pipeline_mod.read_rules(args.allow, "allowlist")
    _, block = pipeline_mod.read_rules(args.block, "blocklist")
    survivors, report = pipeline_mod.filter_training(
        manifest.samples(epoch="present-train"), allow, block)
    corpus_mod.write_manifest(corpus_mod.Manifest(records=survivors), args.out)
    evaluation.write_report(args.report, report.to_dict())
    print(f"{report.survivors} survivors "
          f"(-{report.removed_by_allowlist} allowlist, -{report.removed_by_blocklist} blocklist)")
    return 0


def cmd_train(args) -> int:
    try:
        cfg = TrainConfig(kind=args.kind, seed=args.seed, n_trees=args.n_trees,
                          gamma=args.gamma, reg=args.reg)
    except ValueError as exc:
        raise SpecInvalid(str(exc)) from None
    manifest = corpus_mod.read_manifest(args.corpus)
    allow_text, allow = pipeline_mod.read_rules(args.allow, "allowlist")
    block_text, block = pipeline_mod.read_rules(args.block, "blocklist")
    system = pipeline_mod.train_system(manifest.samples(epoch="present-train"), allow, block,
                                       cfg, allow_text=allow_text, block_text=block_text)
    pipeline_mod.save_system(system, args.system_out)
    _write_runconfig(os.path.join(args.system_out, "runconfig.json"), "train", vars(args))
    print(f"trained {'filtered' if system.metadata['filtered'] else 'all-data'} "
          f"{args.kind} system -> {args.system_out} (threshold {system.threshold})")
    return 0


def cmd_predict(args) -> int:
    system = pipeline_mod.load_system(args.system)
    for path in args.files:
        verdict = pipeline_mod.predict(system, evaluation.read_bytes(path))
        if verdict.stage == "ml_score":
            label = "malicious" if verdict.score >= system.threshold else "benign"
            print(f"{path}\tml_score\t{verdict.score}\t{label}")
        else:
            print(f"{path}\t{verdict.stage}\t\t{verdict.error or ','.join(verdict.fired)}")
    return 0


def cmd_eval(args) -> int:
    system = pipeline_mod.load_system(args.system)
    samples = corpus_mod.read_manifest(args.corpus).samples(epoch=args.split)
    report = {"split": args.split, **pipeline_mod.evaluate(system, samples)}
    evaluation.write_report(args.report, report)
    evaluation.write_curve_files(os.path.splitext(args.report)[0], {
        "composite": report["composite_roc"], "model": report["model_roc"]})
    print(f"wrote {args.report}")
    return 0


def cmd_attack(args) -> int:
    system = pipeline_mod.load_system(args.system)
    score_fn, rule_probe = pipeline_mod.make_oracle(system)
    pool_manifest = corpus_mod.read_manifest(args.pool_source)
    goodware = [r for r in pool_manifest.records if r.label == 0]
    pool = attack_mod.harvest_sections(goodware, args.sections, args.seed)
    cfg = attack_mod.AttackConfig(query_budget=args.budget, lam=getattr(args, "lambda"),
                                  seed=args.seed, success_threshold=system.threshold)

    targets = [r for r in corpus_mod.read_manifest(args.malware).records if r.label == 1]
    # every target must parse, take every gene's section whole and have room
    # for one section per gene before --out is made, so a bad one leaves no output
    for r in targets:
        try:
            check_injectable(parse_pe(evaluation.read_bytes(r.path)), pool.lengths())
        except (SievemalError, ValueError) as exc:  # MalformedPe, SectionLimitExceeded
            raise MalformedPe(f"attack target {r.path}: {exc}") from None
    os.makedirs(args.out, exist_ok=True)
    schedule = attack_mod.SettledSchedule(pool, cfg)
    rows = []
    for r in targets:
        raw = evaluation.read_bytes(r.path)
        plan = InjectionPlan(parse_pe(raw))
        # a target the blocklist provably fires on in every mutant is scored
        # without rescanning the blocklist, and its search is read from the
        # schedule shared by all such targets; its scores and trace are the same
        settled = attack_mod.blocklist_settled(system.blocklist, raw, plan)
        oracle = functools.partial(score_fn, blocklisted=True) if settled else score_fn
        row, trace = attack_mod.attack_sample(oracle, raw, pool, cfg, rule_probe, plan=plan,
                                              schedule=schedule if settled else None)
        trace.to_jsonl(os.path.join(args.out, f"{r.sha256}.jsonl"))
        rows.append({"sha256": r.sha256, **row})
    evaluation.write_report(os.path.join(args.out, "results.json"), {
        "threshold": system.threshold, "sections": args.sections, "rows": rows})
    _write_runconfig(os.path.join(args.out, "runconfig.json"), "attack", vars(args))
    evaded = sum(1 for row in rows if row["evaded"])
    print(f"attacked {len(rows)} samples, {evaded} evaded")
    return 0


def cmd_report(args) -> int:
    path = os.path.join(args.results, "results.json")
    doc = evaluation.read_report(path)
    try:
        if not (isinstance(doc, dict) and isinstance(doc.get("rows"), list)
                and all(isinstance(row, dict) for row in doc["rows"])):
            raise SpecInvalid("not attack results: want an object with a 'rows' list of objects")
        for i, row in enumerate(doc["rows"]):
            check_number(row.get("payload_kb"), f"rows[{i}].payload_kb", 0)
            check_number(row.get("adv_score"), f"rows[{i}].adv_score", 0, 1)
        threshold = check_number(doc.get("threshold"), "threshold", 0, 1)
    except (SpecInvalid, ValueError) as exc:
        raise SpecInvalid(f"{path}: {exc}") from None
    curve = evaluation.detection_rate_curve(doc["rows"], threshold=threshold)
    report = {"detection_rate_by_payload_kb": curve,
              "threshold": threshold,
              "attacked": len(doc["rows"])}
    evaluation.write_report(args.out, report)
    print(f"wrote {args.out}")
    return 0


# --- argument wiring ---------------------------------------------------------

def _number(name: str, low=-math.inf, high=math.inf, integer=False):
    """An argparse type: the int (or float) argument check_number takes, else a usage error."""
    def parse(text):
        try:
            value = int(text) if integer else float(text)
        except ValueError:
            value = text
        try:
            return check_number(value, name, low, high, integer=integer)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sievemal")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-corpus", help="synthesize a corpus with ground truth")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--spec", default=None)
    source.add_argument("--seed", type=_number("seed", 0, integer=True), default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_corpus)

    p = sub.add_parser("ingest", help="build a manifest from a directory")
    p.add_argument("--dir", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("rules", help="rule file utilities")
    rsub = p.add_subparsers(dest="rules_command", required=True)
    pc = rsub.add_parser("check", help="validate a rule file and print rule count")
    pc.add_argument("path")
    pc.set_defaults(func=cmd_rules)

    p = sub.add_parser("extract-features", help="feature matrix from a manifest")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_extract_features)

    p = sub.add_parser("filter", help="rule-filter the present-train split of a manifest")
    p.add_argument("--corpus", required=True)
    p.add_argument("--allow")
    p.add_argument("--block")
    p.add_argument("--out", required=True)
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("train", help="train a system; with no rules, the all-data baseline")
    p.add_argument("--corpus", required=True)
    p.add_argument("--allow")
    p.add_argument("--block")
    p.add_argument("--system-out", required=True)
    p.add_argument("--kind", choices=KINDS, default="gbdt")
    p.add_argument("--seed", type=_number("seed", 0, integer=True), default=0)
    p.add_argument("--n-trees", type=_number("n_trees", 1, integer=True), default=100)
    p.add_argument("--gamma", type=_number("gamma", *GAMMA_RANGE), default=1e-3)
    # reg > 0 is strict, so --reg 0 is TrainConfig's domain error
    p.add_argument("--reg", type=_number("reg"), default=1e-4)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="classify files with a trained system")
    p.add_argument("--system", required=True)
    p.add_argument("files", nargs="+")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="ROC report for a system on one split")
    p.add_argument("--system", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--split", choices=corpus_mod.EPOCHS, default="present-test")
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("attack", help="section-injection attack against a target")
    p.add_argument("--system", required=True)
    p.add_argument("--malware", required=True)
    p.add_argument("--pool-source", required=True)
    p.add_argument("--sections", type=int, choices=[10, 20, 30, 50], default=10)
    p.add_argument("--budget", type=_number("query budget", 1, integer=True), default=200)
    p.add_argument("--lambda", type=_number("lambda", 0), default=1e-5)
    p.add_argument("--seed", type=_number("seed", 0, integer=True), default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("report", help="detection-rate summary from attack results")
    p.add_argument("--results", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        message = f"rule parse error: {exc}"
    except (SievemalError, OSError) as exc:
        message = f"error: {exc}"
    # one line, whatever line breaks the message quotes from its input
    print("\\n".join(message.splitlines()), file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
