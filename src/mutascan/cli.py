"""Command-line interface.

Subcommands: stats, search, align, train, predict, diagnose, gen-corpus.
Exit code 0 on success (a disease-risk label is a result, not an error),
1 on any toolkit error, 2 on bad usage.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import __version__
from .align import call_mutations, global_align, mutation_to_dict
from .corpus import make_synthetic_corpus
from .errors import MutascanError
from .homology import (
    DEFAULT_K,
    DEFAULT_MAX_HITS,
    MAX_K,
    MIN_K,
    build_index,
    format_hit_table,
    hit_to_dict,
    search,
)
from .neural import (
    CorruptFileError,
    NetworkTopology,
    TrainConfig,
    classify,
    load_net,
    load_training_rows,
    parse_features,
    read_json_lines,
    rows_to_samples,
    save_net,
    train,
)
from .pipeline import DEFAULT_WORKDIR, render_report, run_diagnosis
from .seqio import read_fasta_path
from .seqstats import (
    GC_GATE_TARGET,
    GC_GATE_TOLERANCE,
    AllAmbiguousError,
    composition,
    gc_gate,
)


def _in_range(kind: type, low, high=None):
    """argparse type: an int or a finite float in [low, high], so bad values exit 2
    as usage errors."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} {text!r}") from None
        if kind is float and not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {value}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value

    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mutascan",
        description="sequence-analysis toolkit for mutational disease prediction",
    )
    parser.add_argument("--version", action="version", version=f"mutascan {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="base counts, GC%%/AT%%, and the GC gate verdict")
    p.add_argument("fasta", help="FASTA file to analyze")
    p.add_argument("--target", type=_in_range(float, 0, 100), default=GC_GATE_TARGET,
                   help="gate target GC%% (0 to 100, default 38.0)")
    p.add_argument("--tolerance", type=_in_range(float, 0), default=GC_GATE_TOLERANCE,
                   help="gate tolerance in GC%% points (at least 0, default 2.0)")

    p = sub.add_parser("search", help="rank database subjects by local similarity")
    p.add_argument("--db", required=True, help="database FASTA file")
    p.add_argument("--query", required=True, help="query FASTA file (first record)")
    p.add_argument("--k", type=_in_range(int, MIN_K, MAX_K), default=DEFAULT_K,
                   help=f"seed length ({MIN_K} to {MAX_K})")
    p.add_argument("--max-hits", type=_in_range(int, 1), default=DEFAULT_MAX_HITS,
                   help="hits to report (at least 1)")
    p.add_argument("--json", action="store_true",
                   help="also print one JSON object per hit")

    p = sub.add_parser("align", help="global alignment and mutation calls")
    p.add_argument("--ref", required=True, help="reference FASTA (first record)")
    p.add_argument("--alt", required=True, help="patient FASTA (first record)")
    p.add_argument("--width", type=_in_range(int, 1), default=60,
                   help="alignment wrap width (at least 1)")
    p.add_argument("--json", action="store_true",
                   help="print one JSON object per mutation instead of text")

    p = sub.add_parser("train", help="train the classifier on a JSONL dataset")
    p.add_argument("--data", required=True, help="training rows, one JSON per line")
    p.add_argument("--out", required=True, help="where to write the model JSON")
    p.add_argument("--lr", type=float, default=TrainConfig().learning_rate)
    p.add_argument("--momentum", type=float, default=TrainConfig().momentum)
    p.add_argument("--target-mse", type=float, default=TrainConfig().target_mse)
    p.add_argument("--max-epochs", type=int, default=TrainConfig().max_epochs)
    p.add_argument("--seed", type=int, default=TrainConfig().seed)

    p = sub.add_parser("predict", help="score feature vectors with a saved model")
    p.add_argument("--model", required=True, help="model JSON from `mutascan train`")
    p.add_argument("--features", required=True,
                   help="JSONL: rows with a 'features' array, or bare arrays")

    p = sub.add_parser("diagnose", help="run the full diagnosis pipeline")
    p.add_argument("--patient", required=True, help="single-record patient FASTA")
    p.add_argument("--manifest", required=True, help="database manifest JSON")
    p.add_argument("--model", help="trained model (skips on-the-fly training)")
    p.add_argument("--json", action="store_true", help="print the JSON report")

    p = sub.add_parser("gen-corpus", help="generate the synthetic example corpus")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", required=True, help="output directory")

    return parser


def _cmd_stats(args) -> int:
    fasta = read_fasta_path(args.fasta)
    for rec in fasta:
        print(f">{rec.id} length {len(rec)}")
        try:
            stats = composition(rec)
        except AllAmbiguousError:
            print("  all bases ambiguous; GC%/AT% undefined")
            continue
        print(
            f"  A {stats.count_a}  C {stats.count_c}  G {stats.count_g}"
            f"  T {stats.count_t}  N {stats.count_n}"
        )
        print(f"  GC% {stats.gc_percent:.4f}  AT% {stats.at_percent:.4f}")
        verdict = gc_gate(stats, args.target, args.tolerance)
        state = "accepted" if verdict.accepted else "rejected"
        band = "  [gene band 45-50%]" if verdict.gene_band_flag else ""
        print(
            f"  gate: {state} (target {verdict.target}% +/- {verdict.tolerance}%){band}"
        )
    return 0


def _cmd_search(args) -> int:
    db = read_fasta_path(args.db)
    query = read_fasta_path(args.query).records[0]
    hits = search(query, build_index(db, args.k), args.max_hits)
    print(format_hit_table(hits), end="")
    if args.json:
        for h in hits:
            print(json.dumps(hit_to_dict(h)))
    return 0


def _cmd_align(args) -> int:
    ref = read_fasta_path(args.ref).records[0]
    alt = read_fasta_path(args.alt).records[0]
    result = global_align(ref, alt)
    muts = call_mutations(result)
    if args.json:
        for m in muts:
            print(json.dumps(mutation_to_dict(m)))
        return 0
    width = args.width
    print(f"score {result.score}  identity {result.identity_percent:.2f}%")
    for start in range(0, len(result), width):
        block_a = result.aligned_a[start : start + width]
        block_b = result.aligned_b[start : start + width]
        midline = "".join(
            "|" if x == y and x != "-" else " " for x, y in zip(block_a, block_b)
        )
        print(f"ref     {block_a}")
        print(f"        {midline}")
        print(f"patient {block_b}")
        print()
    print(f"mutations ({len(muts)}):")
    for m in muts:
        print(f"  {m.describe()}")
    return 0


def _cmd_train(args) -> int:
    rows = load_training_rows(args.data)
    samples = rows_to_samples(rows)
    cfg = args.train_config
    net, report = train(NetworkTopology(), samples, cfg)
    save_net(net, args.out)
    state = "converged" if report.converged else "did not converge"
    print(
        f"{state}: epochs {report.epochs_run}, final MSE {report.final_mse:.3e}, "
        f"target {cfg.target_mse:.0e}"
    )
    print(f"model written to {args.out}")
    return 0


def _cmd_predict(args) -> int:
    net = load_net(args.model)
    for lineno, obj in read_json_lines(args.features):
        if isinstance(obj, list):
            row_id, values = f"line-{lineno}", obj
        elif isinstance(obj, dict) and "features" in obj:
            row_id, values = str(obj.get("id", f"line-{lineno}")), obj["features"]
        else:
            raise CorruptFileError(
                f"{args.features}:{lineno}: expected a 'features' array or a bare array"
            )
        label, score = classify(net, parse_features(values, f"{args.features}:{lineno}"))
        print(f"{row_id}\t{score:.6f}\t{label.display}")
    return 0


def _cmd_diagnose(args) -> int:
    work_dir = os.environ.get("MUTASCAN_WORKDIR", DEFAULT_WORKDIR)  # run_diagnosis refuses ""
    report = run_diagnosis(args.patient, args.manifest, model_path=args.model, work_dir=work_dir)
    print(render_report(report, "json" if args.json else "text"), end="")
    return 0


def _cmd_gen_corpus(args) -> int:
    paths = make_synthetic_corpus(args.seed, args.out)
    for name, p in paths.items():
        print(f"{name}: {p}")
    return 0


_COMMANDS = {
    "stats": _cmd_stats,
    "search": _cmd_search,
    "align": _cmd_align,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "diagnose": _cmd_diagnose,
    "gen-corpus": _cmd_gen_corpus,
}


def _train_config(parser: argparse.ArgumentParser, args) -> TrainConfig:
    """The `train` flags as a TrainConfig; a value it refuses is a usage error."""
    try:
        return TrainConfig(
            learning_rate=args.lr,
            momentum=args.momentum,
            target_mse=args.target_mse,
            max_epochs=args.max_epochs,
            seed=args.seed,
        )
    except ValueError as exc:
        parser.error(f"train: {exc}")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "train":
        args.train_config = _train_config(parser, args)
    try:
        return _COMMANDS[args.command](args)
    except (MutascanError, OSError) as exc:
        # OSError: writing an output path the user named, such as train --out
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
