"""End-to-end diagnosis pipeline and its file-level plumbing.

The flow: load a priority-ordered database manifest, adopt a normal
reference gene by homology search gated on GC content (falling back across
databases until one passes), align and call mutations, classify each
mutation's protein effect, score the malignant candidates with the neural
classifier, render a diagnosis report, and only then write the work
directory: the combined normal+patient FASTA, a model trained on the fly,
and the reports.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from pathlib import Path

from . import __version__
from .align import (
    AlignmentResult,
    Mutation,
    Scoring,
    call_mutations,
    global_align,
    mutation_to_dict,
)
from .corpus import make_synthetic_corpus  # re-exported: perfbench imports it from here
from .errors import MutascanError
from .homology import (
    DEFAULT_K,
    HomologyHit,
    build_index,
    format_hit_table,
    hit_to_dict,
    search,
)
from .neural import (
    RISK_THRESHOLD,
    Label,
    Network,
    NetworkTopology,
    TrainConfig,
    classify,
    encode,
    load_net,
    load_training_rows,
    net_to_json,
    rows_to_samples,
    train,
)
from .protein import ProteinEffect, classify_effect, is_malignant_candidate
from .seqio import (
    DnaSequence,
    FastaFile,
    read_fasta_path,
    read_text,
    write_fasta,
    write_fasta_path,  # not called here: perfbench/tracing.py wraps this name
    write_texts_atomic,
)
from .seqstats import (
    GC_GATE_TARGET,
    GC_GATE_TOLERANCE,
    GateVerdict,
    composition,
    gc_gate,
)

DEFAULT_WORKDIR = "mutascan-work"


class PipelineError(MutascanError):
    pass


class ManifestError(PipelineError):
    pass


class MultiRecordPatientFileError(PipelineError):
    pass


class MissingModelAndTrainingDataError(PipelineError):
    pass


class NoDatabaseAcceptedError(PipelineError):
    pass


class IoFailureError(PipelineError):
    pass


@dataclass(frozen=True)
class DatabaseEntry:
    name: str
    fasta_path: Path
    cds: dict[str, tuple[int, int]]  # record id -> 1-based inclusive CDS bounds


@dataclass(frozen=True)
class DatabaseManifest:
    databases: tuple[DatabaseEntry, ...]
    training_data_path: Path | None
    model_path: Path | None


@dataclass(frozen=True)
class AdoptedReference:
    database_name: str
    subject: DnaSequence
    cds_start: int
    cds_end: int
    verdict: GateVerdict
    top_hit: HomologyHit


@dataclass(frozen=True)
class RejectedReference:
    database_name: str
    verdict: GateVerdict | None
    reason: str


@dataclass(frozen=True)
class CandidateCall:
    mutation: Mutation
    score: float
    label: Label


@dataclass(frozen=True)
class DiagnosisReport:
    patient_id: str
    adopted: AdoptedReference
    rejected: tuple[RejectedReference, ...]
    alignment: AlignmentResult
    mutations: tuple[Mutation, ...]
    classifications: tuple[CandidateCall, ...]
    # the model that scored the candidates: "model" (its file), "trained_here"
    # and, when trained here, "epochs_run", "final_mse" and "converged"
    model: dict

    @property
    def malignant_candidates(self) -> tuple[Mutation, ...]:
        """The classified mutations in call order, so they always agree with the calls."""
        return tuple(c.mutation for c in self.classifications)

    @property
    def overall_label(self) -> Label:
        """AtRisk when any candidate is; a risk label is a result, not an error."""
        if any(c.label is Label.AT_RISK for c in self.classifications):
            return Label.AT_RISK
        return Label.NORMAL


def load_manifest(path: str | Path) -> DatabaseManifest:
    """Read and validate a manifest; paths resolve relative to its directory."""
    text = read_text(path, ManifestError)  # before Path(): Path("") is "."
    path = Path(path)
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError: an int past the digit limit
        raise ManifestError(f"manifest {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("databases"), list):
        raise ManifestError(f"manifest {path} must have a 'databases' list")
    if not doc["databases"]:
        raise ManifestError("manifest lists no databases")
    for key in ("training_data", "model"):
        if not isinstance(doc.get(key), (str, type(None))) or doc.get(key) == "":
            raise ManifestError(f"manifest {path}: '{key}' must be a non-empty path")

    base = path.parent
    entries: list[DatabaseEntry] = []
    for i, raw in enumerate(doc["databases"]):
        if not (
            isinstance(raw, dict)
            and isinstance(raw.get("name"), str)
            and raw["name"]
            and isinstance(raw.get("fasta"), str)
        ):
            raise ManifestError(
                f"database entry {i} needs a non-empty 'name' string and a 'fasta' path"
            )
        if not raw["name"].isprintable():  # a line break would split its line of report.txt
            raise ManifestError(
                f"database entry {i}: name {raw['name']!r} holds a character that is not printable"
            )
        fasta_path = base / raw["fasta"]
        if not os.path.isfile(fasta_path):  # False, not an error, for a name too long
            raise ManifestError(
                f"database '{raw['name']}': FASTA not readable: {fasta_path}"
            )
        cds_doc = raw.get("cds", {})
        if not isinstance(cds_doc, dict):
            raise ManifestError(
                f"database '{raw['name']}': 'cds' must map record ids to bounds"
            )
        cds: dict[str, tuple[int, int]] = {}
        for rec_id, bounds in cds_doc.items():
            if (
                not isinstance(bounds, (list, tuple))
                or len(bounds) != 2
                or not all(type(b) is int for b in bounds)  # bool is an int subclass
                or not (1 <= bounds[0] <= bounds[1])
            ):
                raise ManifestError(
                    f"database '{raw['name']}': bad CDS bounds for '{rec_id}'"
                )
            cds[rec_id] = (bounds[0], bounds[1])
        entries.append(DatabaseEntry(raw["name"], fasta_path, cds))

    training = doc.get("training_data")
    model = doc.get("model")
    return DatabaseManifest(
        tuple(entries),
        None if training is None else base / training,
        None if model is None else base / model,
    )


def adopt_reference(
    patient: DnaSequence, manifest: DatabaseManifest
) -> tuple[AdoptedReference, list[RejectedReference]]:
    """Adopt the first database whose top hit passes the GC gate.

    Each database is indexed at DEFAULT_K and searched for the default
    number of hits, and its top hit is gated at GC_GATE_TARGET +/-
    GC_GATE_TOLERANCE percent GC.
    Databases are consulted strictly in manifest priority order; every
    database consulted before the acceptance is recorded as a rejection
    with its gate verdict (or a no-hits note). Raises NoDatabaseAccepted
    with the full verdict list when every database is exhausted.
    """
    rejections: list[RejectedReference] = []
    for entry in manifest.databases:
        db = read_fasta_path(entry.fasta_path)
        hits = search(patient, build_index(db))
        if not hits:
            rejections.append(
                RejectedReference(entry.name, None, "no hits for the patient query")
            )
            continue
        top = hits[0]
        subject = next(r for r in db if r.id == top.subject_id)
        # a hit needs an N-free seed in its subject, so composition is defined
        verdict = gc_gate(composition(subject))
        if not verdict.accepted:
            rejections.append(
                RejectedReference(
                    entry.name,
                    verdict,
                    f"GC {verdict.measured_gc:.1f}% outside "
                    f"{GC_GATE_TARGET}% +/- {GC_GATE_TOLERANCE}%",
                )
            )
            continue
        if subject.id not in entry.cds:
            raise ManifestError(
                f"adopted reference '{subject.id}' from database "
                f"'{entry.name}' has no CDS annotation"
            )
        cds_start, cds_end = entry.cds[subject.id]
        if cds_end > len(subject):
            raise ManifestError(
                f"CDS end {cds_end} exceeds length of '{subject.id}'"
            )
        return (
            AdoptedReference(entry.name, subject, cds_start, cds_end, verdict, top),
            rejections,
        )
    detail = "; ".join(
        f"{r.database_name}: "
        + (f"GC {r.verdict.measured_gc:.2f}%" if r.verdict else r.reason)
        for r in rejections
    )
    raise NoDatabaseAcceptedError(f"all databases rejected ({detail})")


def _obtain_network(
    manifest: DatabaseManifest,
    model_path: str | Path | None,
    adopted: AdoptedReference,
    train_config: TrainConfig,
    trained_path: Path,
) -> tuple[Network, dict]:
    """Load the model if one is given, otherwise train from the manifest's data.

    Returns the network and its provenance. Writes nothing: a network trained
    here is named by `trained_path`, where the caller saves it.
    """
    chosen = manifest.model_path if model_path is None else model_path
    if chosen is not None:  # load_net refuses "", which Path() would make "."
        return load_net(chosen), {"model": str(Path(chosen)), "trained_here": False}
    if manifest.training_data_path is None:
        raise MissingModelAndTrainingDataError(
            "manifest names no model and no training data; supply --model "
            "or add 'training_data' to the manifest"
        )
    rows = load_training_rows(manifest.training_data_path)
    samples = rows_to_samples(rows, adopted.subject, adopted.cds_start, adopted.cds_end)
    net, report = train(NetworkTopology(), samples, train_config)
    return net, {
        "model": str(trained_path),
        "trained_here": True,
        "epochs_run": report.epochs_run,
        "final_mse": report.final_mse,
        "converged": report.converged,
    }


def run_diagnosis(
    patient_path: str | Path,
    manifest_path: str | Path,
    model_path: str | Path | None = None,
    work_dir: str | Path = DEFAULT_WORKDIR,
    train_config: TrainConfig = TrainConfig(),
) -> DiagnosisReport:
    """Run the whole diagnosis, then write the work directory.

    Artifacts, written together once everything is computed: combined.fasta
    (normal + patient), model.json when the classifier is trained on the
    fly, report.txt and report.json. Each goes to a temp file first, and
    none replaces its earlier version unless all were written and no target
    is a directory, so a diagnosis that fails, in writing or before, leaves
    the work directory's files as they were. An empty work directory is
    refused before anything is read: Path("") would name ".".
    """
    if work_dir == "":
        raise IoFailureError("cannot write work directory '': the path is empty")
    wd = Path(work_dir)
    manifest = load_manifest(manifest_path)
    patient_file = read_fasta_path(patient_path)
    if len(patient_file) != 1:
        raise MultiRecordPatientFileError(
            f"patient file has {len(patient_file)} records, expected exactly 1"
        )
    patient = patient_file.records[0]

    adopted, rejected = adopt_reference(patient, manifest)
    ref = adopted.subject
    alignment = global_align(ref, patient)
    mutations = [
        replace(m, effect=classify_effect(m, ref, adopted.cds_start, adopted.cds_end))
        for m in call_mutations(alignment)
    ]
    candidates = [m for m in mutations if is_malignant_candidate(m.effect)]

    net, model = _obtain_network(manifest, model_path, adopted, train_config, wd / "model.json")
    calls = []
    for m in candidates:
        label, score = classify(net, encode(m, ref))
        calls.append(CandidateCall(m, score, label))

    report = DiagnosisReport(
        patient_id=patient.id,
        adopted=adopted,
        rejected=tuple(rejected),
        alignment=alignment,
        mutations=tuple(mutations),
        classifications=tuple(calls),
        model=model,
    )
    text, doc = render_report(report, "text"), render_report(report, "json")
    combined_patient = patient
    if patient.id == ref.id:
        combined_patient = DnaSequence(
            patient.id + ".patient", patient.description, patient.bases
        )

    files = {wd / "combined.fasta": write_fasta(FastaFile((ref, combined_patient)))}
    if model["trained_here"]:
        files[wd / "model.json"] = net_to_json(net)
    files[wd / "report.txt"] = text
    files[wd / "report.json"] = doc
    try:
        wd.mkdir(parents=True, exist_ok=True)
        write_texts_atomic(files)
    except OSError as exc:
        raise IoFailureError(f"cannot write work directory {wd}: {exc}") from exc
    return report


def _effect_dict(e: ProteinEffect | None) -> dict | None:
    if e is None:
        return None
    return {"kind": e.kind.value, "ref_aa": e.ref_aa, "alt_aa": e.alt_aa}


def _mutation_dict(m: Mutation) -> dict:
    return {**mutation_to_dict(m), "effect": _effect_dict(m.effect)}


def _scoring_dict(s: Scoring) -> dict:
    return {
        "match": s.match,
        "mismatch": s.mismatch,
        "gap_open": s.gap_open,
        "gap_extend": s.gap_extend,
    }


def _verdict_dict(v: GateVerdict | None) -> dict | None:
    if v is None:
        return None
    return {
        "accepted": v.accepted,
        "measured_gc": v.measured_gc,
        "target": v.target,
        "tolerance": v.tolerance,
        "gene_band_flag": v.gene_band_flag,
    }


def report_to_dict(report: DiagnosisReport) -> dict:
    return {
        "patient_id": report.patient_id,
        "adopted_reference": {
            "database_name": report.adopted.database_name,
            "subject_id": report.adopted.subject.id,
            "cds_start": report.adopted.cds_start,
            "cds_end": report.adopted.cds_end,
            "gate_verdict": _verdict_dict(report.adopted.verdict),
            "top_hit": hit_to_dict(report.adopted.top_hit),
        },
        "rejected_references": [
            {
                "database_name": r.database_name,
                "gate_verdict": _verdict_dict(r.verdict),
                "reason": r.reason,
            }
            for r in report.rejected
        ],
        "alignment": {
            "score": report.alignment.score,
            "length": len(report.alignment),
            "identity_percent": report.alignment.identity_percent,
            "aligned_reference": report.alignment.aligned_a,
            "aligned_patient": report.alignment.aligned_b,
        },
        "mutations": [_mutation_dict(m) for m in report.mutations],
        "malignant_candidates": [_mutation_dict(m) for m in report.malignant_candidates],
        "classifications": [
            {
                "mutation": _mutation_dict(c.mutation),
                "score": c.score,
                "label": c.label.value,
            }
            for c in report.classifications
        ],
        "overall_label": report.overall_label.value,
        "display": report.overall_label.display,
        "tool_versions": {"mutascan": __version__},
        "config": {  # the module constants the diagnosis ran with, then its model
            "gate_target": GC_GATE_TARGET,
            "gate_tolerance": GC_GATE_TOLERANCE,
            "threshold": RISK_THRESHOLD,
            "search_k": DEFAULT_K,
            "scoring": _scoring_dict(Scoring()),
            **report.model,
        },
    }


def render_report(report: DiagnosisReport, fmt: str = "text") -> str:
    """Render a diagnosis report as human-readable text or stable JSON."""
    if fmt == "json":
        return json.dumps(report_to_dict(report), indent=2) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown report format {fmt!r}")

    a = report.adopted
    v = a.verdict
    lines = [
        "mutascan diagnosis report",
        "=" * 25,
        "",
        f"patient: {report.patient_id}",
        "",
        "reference adoption",
        "-" * 18,
    ]
    for r in report.rejected:
        if r.verdict is None:
            lines.append(f"  {r.database_name}: rejected ({r.reason})")
        else:
            band = ", gene band 45-50%" if r.verdict.gene_band_flag else ""
            lines.append(
                f"  {r.database_name}: rejected, GC {r.verdict.measured_gc:.2f}% "
                f"outside {r.verdict.target:.0f}% +/- {r.verdict.tolerance:.0f}%{band}"
            )
    lines.append(
        f"  {a.database_name}: adopted '{a.subject.id}', GC {v.measured_gc:.2f}% "
        f"within {v.target:.0f}% +/- {v.tolerance:.0f}%"
    )
    lines += [
        "",
        "homology top hit",
        "-" * 16,
        format_hit_table([a.top_hit]).rstrip("\n"),
        "",
        "alignment",
        "-" * 9,
        f"  length {len(report.alignment)}, score {report.alignment.score}, "
        f"identity {report.alignment.identity_percent:.2f}%",
        "",
        f"mutations ({len(report.mutations)})",
        "-" * 9,
    ]
    if report.mutations:
        for m in report.mutations:
            effect = m.effect.describe() if m.effect else "unclassified"
            lines.append(f"  {m.describe()}  [{effect}]")
    else:
        lines.append("  none")
    lines += ["", f"malignant candidates ({len(report.malignant_candidates)})", "-" * 20]
    if report.classifications:
        for c in report.classifications:
            lines.append(
                f"  {c.mutation.describe()}  score {c.score:.6f}  -> {c.label.display}"
            )
    else:
        lines.append("  none")
    lines += ["", f"Diagnosis: {report.overall_label.display}", ""]
    return "\n".join(lines)
