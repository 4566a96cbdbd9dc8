"""mutascan benchmark: patient diagnoses end to end, one closed-loop client.

    python3 perfbench/run.py --workload cohort-corpus --seed 1 --seconds 30 --trace 0

Set-up writes every input of the workload from --seed, then trains the
10-4-1 classifier on the seed-42 corpus training file to MSE <= 1e-6. One
client then calls mutascan.pipeline.run_diagnosis on one patient at a time,
cycling through the workload's patients, until --seconds have passed and at
least one whole cycle is done. Every report is checked. Every time reported
is read from the speed clock of speed.py, which takes the host's changing
speed out. With --trace 0 the last line of output is a JSON object with the
end-to-end metrics; with --trace 1 the pipeline's calls are wrapped in
spans and the JSON holds the per-layer metrics instead. See README.md in
this directory.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools to one thread before numpy is imported.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 9  # set-up runs per benchmark run; setup_s is their median
TARGET_MSE = 1e-6

# Counts that must be identical across runs on one seed. The per-diagnosis
# ones must also repeat exactly in every cycle of patients within a run.
DIAGNOSIS_COUNTS = (
    "align.dp_cells",
    "homology.diagonal_groups",
    "homology.band_cells",
    "pipeline.databases_consulted",
)
EXACT_COUNTS = ("neural.epochs",) + DIAGNOSIS_COUNTS


def independent_apply(ref: str, mutations) -> str:
    """Apply called mutations to the reference, without the program's code.

    Substitutions and deletions start at their 1-based position; an
    insertion sits after reference base `position`. Calls must come in
    reference order and must not overlap.
    """
    out, cursor = [], 0
    for m in mutations:
        kind = m.kind.value
        start = m.position if kind == "insertion" else m.position - 1
        if start < cursor or ref[start : start + len(m.ref_bases)] != m.ref_bases:
            raise ValueError(f"call {kind} at {m.position} does not fit the reference")
        out.append(ref[cursor:start])
        out.append(m.alt_bases)
        cursor = start + len(m.ref_bases)
    out.append(ref[cursor:])
    return "".join(out)


def check_report(report, patient, report_json: Path, work: Path) -> tuple[list[str], str]:
    """Return (problems, SHA-256 of the path-normalised report.json)."""
    problems = []
    adopted = report.adopted
    if (adopted.database_name, adopted.subject.id) != (patient.database, patient.subject):
        problems.append(
            f"adopted {adopted.database_name}/{adopted.subject.id}, "
            f"expected {patient.database}/{patient.subject}"
        )
    rejected = tuple(r.database_name for r in report.rejected)
    if rejected != patient.rejected or any(
        r.verdict is None or r.verdict.accepted for r in report.rejected
    ):
        problems.append(f"rejected {rejected}, expected GC rejections of {patient.rejected}")
    try:
        if independent_apply(adopted.subject.bases, report.mutations) != patient.bases:
            problems.append("called mutations do not reproduce the patient")
    except ValueError as exc:
        problems.append(str(exc))
    try:
        text = report_json.read_text(encoding="utf-8")
        # config.model holds the model's absolute path, which differs per checkout
        text = text.replace(json.dumps(str(work))[1:-1], "$WORK")
        if json.loads(text).get("patient_id") != patient.id:
            problems.append("report.json names another patient")
    except (OSError, ValueError, AttributeError) as exc:
        problems.append(f"unreadable report.json: {exc}")
        return problems, ""
    return problems, hashlib.sha256(text.encode("utf-8")).hexdigest()


def nearest_rank(sorted_values: list[float], percentile: int) -> float:
    return sorted_values[max(0, math.ceil(percentile / 100 * len(sorted_values)) - 1)]


def run(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    work: Path,
    sizes: dict | None = None,
    target_mse: float = TARGET_MSE,
    trace_file: Path | None = None,
) -> dict:
    """One benchmark run; returns the result object printed as the last line.

    `sizes` and `target_mse` exist for the smoke test, which runs the same
    code at toy sizes.
    """
    from mutascan import pipeline
    from mutascan.neural import NetworkTopology, TrainConfig, load_training_rows
    from mutascan.neural import rows_to_samples, save_net, train
    from speed import SpeedClock
    from tracing import Tracer
    from workloads import WORKLOADS

    generate = WORKLOADS[workload_name]
    tracer = Tracer() if trace else None
    problems: list[str] = []
    digests: dict[str, str] = {}
    setups: list[tuple[float, float]] = []  # perf_counter (start, end) of each set-up
    timed: list[tuple[float, float]] = []  # of each timed diagnosis that passed its checks
    failed = attempted = 0

    with SpeedClock() as clock:
        for r in range(SETUP_REPEATS):
            inputs = work / f"inputs-{r}"
            inputs.mkdir(parents=True)
            start = time.perf_counter()
            wl = generate(seed, inputs, **(sizes or {}))
            setups.append((start, time.perf_counter()))
            if r + 1 < SETUP_REPEATS:
                shutil.rmtree(inputs)
        patients = wl.patients

        undo = tracer.install(pipeline) if tracer else None
        try:
            samples = rows_to_samples(load_training_rows(wl.training_data))
            with tracer.span("neural.train", "neural.train") if tracer else nullcontext():
                train_start = time.perf_counter()
                net, history = train(NetworkTopology(), samples, TrainConfig(target_mse=target_mse))
                training = (train_start, time.perf_counter())
            model = work / "model.json"
            save_net(net, model)
            if not history.converged:
                problems.append(f"training stopped at MSE {history.final_mse} after {history.epochs_run} epochs")

            def diagnose(i: int, diagnosis_id) -> tuple[float, float] | None:
                """One checked diagnosis; returns its (start, end), or None if it failed."""
                patient = patients[i % len(patients)]
                out_dir = work / "diagnoses" / patient.id
                if tracer:
                    tracer.diagnosis = diagnosis_id
                start = time.perf_counter()
                try:
                    report = pipeline.run_diagnosis(
                        patient.path, patient.manifest, model_path=model, work_dir=out_dir
                    )
                except Exception as exc:  # a failed diagnosis is a result, keep going
                    problems.append(f"{patient.id}: {type(exc).__name__}: {exc}")
                    return None
                end = time.perf_counter()
                found, digest = check_report(report, patient, out_dir / "report.json", work)
                if digests.setdefault(patient.id, digest) != digest:
                    found.append("report.json differs from this patient's earlier report")
                problems.extend(f"{patient.id}: {p}" for p in found)
                return None if found else (start, end)

            for i in range(wl.warmup):
                diagnose(i, f"warmup-{i}")

            start = time.perf_counter()
            while attempted < len(patients) or time.perf_counter() - start < seconds:
                span = diagnose(attempted, attempted)
                attempted += 1
                if span is None:
                    failed += 1
                else:
                    timed.append(span)
        finally:
            if undo:
                undo()

    for p in problems[:10]:
        print(f"check failed: {p}", file=sys.stderr)
    print(f"workload {workload_name}  seed {seed}  inputs: {wl.sizes}; 1 closed-loop client")
    for pid, digest in digests.items():
        print(f"report {pid} sha256 {digest}")
    print(f"diagnoses attempted {attempted}  failed {failed}  failed_ratio {failed / attempted:.4f}")
    raw = sorted(end - start for start, end in timed) or [0.0]
    print(
        f"host speed: probe kernel took {clock.mean_speed():.3f} x its reference time; "
        f"raw wall-clock diagnose p50 {statistics.median(raw) * 1e3:.1f} ms, "
        f"training {training[1] - training[0]:.3f} s"
    )

    correct = not problems
    latencies = [clock.duration(start, end) for start, end in timed]
    done = sorted(latencies) or [0.0]
    per_s = len(latencies) / sum(latencies) if latencies else 0.0
    if not trace:
        tail = nearest_rank(done, wl.tail_percentile)
        beyond = sum(1 for x in done if x > tail)
        print(f"diagnose_tail_ms is p{wl.tail_percentile} of {len(latencies)} samples, {beyond} beyond it")
        metrics = {
            "setup_s": (statistics.median(clock.duration(*s) for s in setups), "s"),
            "train_to_1e-6_s": (clock.duration(*training), "s"),
            "diagnose_p50_ms": (statistics.median(done) * 1e3, "ms"),
            "diagnose_tail_ms": (tail * 1e3, "ms"),
            "diagnoses_per_s": (per_s, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        tracer.retime(clock.seconds)
        tracer.finish_counts()
        metrics = layer_metrics(tracer, attempted, len(patients), history)
        metrics["trace.diagnoses_per_s"] = (per_s, "1/s")
        # every cycle repeats the same patients, so its counts must repeat exactly
        cycles = attempted // len(patients)
        for c in range(1, cycles):
            for name in DIAGNOSIS_COUNTS:
                if cycle_total(tracer, name, 0, len(patients)) != cycle_total(
                    tracer, name, c, len(patients)
                ):
                    correct = False
                    print(f"check failed: {name} differs between cycles 1 and {c + 1}", file=sys.stderr)
        if trace_file is not None:
            tracer.write_jsonl(trace_file)
            print(f"spans written to {trace_file}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:16.6f} {unit}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def cycle_total(tracer, name: str, cycle: int, length: int):
    return sum(tracer.counts[d][name] for d in range(cycle * length, (cycle + 1) * length))


def layer_metrics(tracer, attempted: int, cycle: int, history) -> dict:
    """Per-layer metrics: mean seconds per diagnosis, and first-cycle counts.

    Counts are per diagnosis over the first cycle of patients, which every
    run completes, so two runs on one seed give identical counts.
    """
    from tracing import LAYERS, TRACED

    times = tracer.layer_times(range(attempted))
    metrics = {}
    for layer in LAYERS:
        for kind in ("busy_s", "self_s"):
            metrics[f"{layer}.{kind}"] = (times[f"{layer}.{kind}"] / attempted, "s")
    for stem in TRACED.values():
        metrics[stem + "_s"] = (times[stem + "_s"] / attempted, "s")

    def per_diagnosis(name):
        return cycle_total(tracer, name, 0, cycle) / cycle

    for name in (
        "homology.search_calls", "homology.diagonal_groups", "homology.band_cells",
        "homology.hits", "homology.build_index_calls", "homology.indexed_bases",
        "seqio.read_bytes", "align.dp_cells", "pipeline.databases_consulted",
        "protein.candidates",
    ):
        metrics[name] = (per_diagnosis(name), "count")
    groups = cycle_total(tracer, "homology.diagonal_groups", 0, cycle)
    metrics["homology.useful_ratio"] = (
        cycle_total(tracer, "homology.hits", 0, cycle) / groups if groups else 0.0, "ratio"
    )
    metrics["align.matrix_bytes"] = (
        max(tracer.counts[d]["align.matrix_bytes"] for d in range(cycle)), "bytes"
    )
    align_us = times["align.global_align_s"] * 1e6
    cells = sum(tracer.counts[d]["align.dp_cells"] for d in range(attempted))
    metrics["align.dp_cells_per_us"] = (cells / align_us if align_us else 0.0, "1/us")
    train_s = tracer.layer_times([None])["neural.train_s"]
    metrics["neural.train_s"] = (train_s, "s")
    metrics["neural.epochs"] = (history.epochs_run, "count")
    metrics["neural.epoch_us"] = (train_s / history.epochs_run * 1e6, "us")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mutascan" / "__init__.py").is_file():
        print(f"error: mutascan sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    work = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    trace_file = ROOT / ".perfbench_traces" / f"{args.workload}-seed{args.seed}.jsonl"
    try:
        result = run(
            args.workload,
            args.seed,
            args.seconds,
            bool(args.trace),
            work,
            trace_file=trace_file,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
