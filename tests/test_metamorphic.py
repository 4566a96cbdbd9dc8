"""Metamorphic relations of a whole diagnosis: changes to the input that must leave
the result as it was, or change it in a way known in advance.

Each example is a generated gene of 0.1-8 kb at 38 % GC, alone in its database,
and a patient made from it by planted substitutions, insertions and deletions. Every
relation runs under both band kernels and with one model."""

import json
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from mutascan.align import apply_mutations
from mutascan.neural import Label
from mutascan.pipeline import run_diagnosis
from mutascan.seqio import DnaSequence, FastaFile, write_fasta

GENE_ID = "gene"


def _gene(rng: random.Random, length: int) -> str:
    """Random bases at 38 % GC, the centre of the GC gate, rounded to whole bases."""
    gc = round(length * 0.38)
    pool = [rng.choice("GC") for _ in range(gc)]
    pool += [rng.choice("AT") for _ in range(length - gc)]
    rng.shuffle(pool)
    return "".join(pool)


def _plant(rng: random.Random, gene: str, edits: int) -> str:
    """`gene` with `edits` substitutions, insertions and deletions of 1-3 bases, at
    least 22 bases apart, so seeds of the search's length survive between them."""
    bases = list(gene)
    for at in sorted(rng.sample(range(5, len(gene) - 5, 25), edits), reverse=True):
        size = rng.randint(1, 3)
        kind = rng.choice(["substitution", "insertion", "deletion"])
        if kind == "substitution":
            old = bases[at : at + size]
            bases[at : at + size] = [rng.choice("ACGT".replace(x, "")) for x in old]
        elif kind == "insertion":
            bases[at:at] = [rng.choice("ACGT") for _ in range(size)]
        else:
            del bases[at : at + size]
    return "".join(bases)


# (gene length, seed, planted edits): a gene of 100 to 8,000 bases, and a patient with up
# to 6 planted edits, at most one per 50 bases of the gene
_CASES = st.tuples(st.integers(100, 8000), st.integers(0, 2**32), st.integers(0, 6))


def _gene_and_patient(case):
    length, seed, edits = case
    rng = random.Random(seed)
    gene = _gene(rng, length)
    return gene, _plant(rng, gene, min(edits, length // 50))


def _inputs(root, gene):
    """Write a one-gene database and its manifest under `root`; return the manifest."""
    (root / "db.fasta").write_text(write_fasta(FastaFile((DnaSequence(GENE_ID, "", gene),))))
    start = len(gene) // 10 + 1
    cds = [start, start + 3 * (len(gene) * 8 // 30) - 1]
    manifest = root / "manifest.json"
    databases = [{"name": "genes", "fasta": "db.fasta", "cds": {GENE_ID: cds}}]
    manifest.write_text(json.dumps({"databases": databases}))
    return manifest


def _diagnose(root, name, fasta_text, manifest, model):
    """Diagnose the patient FASTA `fasta_text`; return the report and report.json's bytes."""
    patient = root / f"{name}.fasta"
    patient.write_bytes(fasta_text.encode("ascii"))
    work = root / f"work-{name}"
    report = run_diagnosis(patient, manifest, model_path=model, work_dir=work)
    return report, (work / "report.json").read_bytes()


def _wrapped(record_id, bases, width):
    lines = [bases[i : i + width] for i in range(0, len(bases), width)]
    return "\n".join([f">{record_id} a patient", *lines]) + "\n"


_FORMATS = {  # the same patient, written another way
    "rewrapped": lambda bases, width: _wrapped("patient", bases, width),
    "lower-cased": lambda bases, width: _wrapped("patient", bases.lower(), 60),
    "CRLF": lambda bases, width: _wrapped("patient", bases, 60).replace("\n", "\r\n"),
    "no final newline": lambda bases, width: _wrapped("patient", bases, 60)[:-1],
}


@settings(max_examples=6, deadline=None)
@given(_CASES, st.integers(1, 200))
@example((8000, 1, 6), 37)
def test_the_patient_fastas_format_leaves_report_json_byte_identical(
    kernels, tmp_path_factory, trained_model, case, width
):
    gene, patient = _gene_and_patient(case)
    root = tmp_path_factory.mktemp("format")
    manifest = _inputs(root, gene)
    reports = set()
    for k, kernel in enumerate(kernels):
        with kernel():
            plain = _wrapped("patient", patient, 60)
            _, want = _diagnose(root, f"plain-{k}", plain, manifest, trained_model)
            for name, write in _FORMATS.items():
                text = write(patient, width)
                _, got = _diagnose(root, f"{name}-{k}", text, manifest, trained_model)
                assert got == want, name
        reports.add(want)
    assert len(reports) == 1  # and the kernels agree


@settings(max_examples=6, deadline=None)
@given(_CASES)
@example((8000, 2, 0))
def test_a_patient_equal_to_its_reference_is_normal_with_no_mutations(
    kernels, tmp_path_factory, trained_model, case
):
    gene, _ = _gene_and_patient(case)
    root = tmp_path_factory.mktemp("identity")
    manifest = _inputs(root, gene)
    for k, kernel in enumerate(kernels):
        with kernel():
            text = _wrapped(GENE_ID, gene, 60)
            report, _ = _diagnose(root, f"self-{k}", text, manifest, trained_model)
        assert report.adopted.subject.id == GENE_ID
        assert report.mutations == () and report.overall_label is Label.NORMAL
        assert report.alignment.identity_percent == 100.0


@settings(max_examples=12, deadline=None)
@given(_CASES)
@example((8000, 3, 6))
def test_the_called_mutations_rebuild_the_patient_from_the_reference(
    kernels, tmp_path_factory, trained_model, case
):
    gene, patient = _gene_and_patient(case)
    root = tmp_path_factory.mktemp("round-trip")
    manifest = _inputs(root, gene)
    for k, kernel in enumerate(kernels):
        with kernel():
            text = _wrapped("patient", patient, 60)
            report, _ = _diagnose(root, f"patient-{k}", text, manifest, trained_model)
        rebuilt = apply_mutations(report.adopted.subject, list(report.mutations))
        assert rebuilt.bases == patient
        assert (report.mutations == ()) == (patient == gene)
