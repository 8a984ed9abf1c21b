#!/usr/bin/env python3
"""Set-up of `triage` and `attack`, in a process of its own.

    python3 perfbench/build.py --seed N --out DIR --decoys N [--trace FILE]

Builds the default 3,200-file corpus under DIR/corpus and the composite system
trained on its present-train split under DIR/system, and prints the raw and
the speed-corrected seconds that took.  The measured process starts this as a
child and reads the results from disk, so the memory that synthesis and
training take stays out of that process's peak RSS.  The child runs its own
speed probe: a probe in a parent that only waits tracks the child's speed
poorly.  With ``--trace``, the calls of the set-up are traced and written to
FILE, from which a traced run takes the set-up figures.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sievemal import corpus, pipeline  # noqa: E402
from sievemal.learners import TrainConfig  # noqa: E402
from sievemal.rules import parse_rules  # noqa: E402

import decoys  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

N_TREES = 100


def build_system(seed: int, out: str, n_decoys: int):
    """Decoys join the blocklist after training: they never fire, so the filter
    report, the model and the threshold are those of the bank-only system."""
    spec = corpus.CorpusSpec(seed=seed)
    manifest = corpus.synthesize_corpus(spec, os.path.join(out, "corpus", "files"))
    corpus.write_manifest(manifest, os.path.join(out, "corpus", "manifest.csv"))
    allow_text = corpus.emit_allowlist(manifest)
    bank_text = corpus.emit_rules_from_bank(spec)
    system = pipeline.train_system(
        manifest.samples(epoch="present-train"),
        parse_rules(allow_text, role="allowlist"), parse_rules(bank_text),
        TrainConfig(kind="gbdt", seed=seed, n_trees=N_TREES),
        allow_text=allow_text, block_text=bank_text)
    if n_decoys:
        system = dataclasses.replace(
            system, block_text=bank_text + "\n" + decoys.source(decoys.decoys(seed, n_decoys)))
    pipeline.save_system(system, os.path.join(out, "system"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/build.py", description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--decoys", type=int, required=True)
    parser.add_argument("--trace")
    args = parser.parse_args(argv)
    tracer = tracing.Tracer().install() if args.trace else None
    probe = speed.SpeedProbe().start()
    try:
        start = time.perf_counter()
        build_system(args.seed, args.out, args.decoys)
        end = time.perf_counter()
    finally:
        probe.stop()
        if tracer:
            tracer.uninstall()
    if tracer:
        tracer.write_spans(args.trace)
    print(end - start, probe.corrected(start, end))
    return 0


if __name__ == "__main__":
    sys.exit(main())
