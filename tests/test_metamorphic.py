"""Metamorphic relations of a whole diagnosis: changes to the input that must leave
the result as it was, or change it in a way known in advance.

Each example is a generated gene of 0.1-8 kb at 38 % GC, alone in its database
unless a relation adds records, and a patient made from it by planted
substitutions, insertions and deletions. Every relation runs under both band
kernels and with one model."""

import json
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from mutascan.align import Mutation, MutationKind, apply_mutations, mutation_to_dict
from mutascan.homology import DEFAULT_K
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


def _inputs(root, gene, records=None, later=None, name="manifest"):
    """Write a database of `records`, (id, bases) pairs in order, by default the gene
    alone, and its manifest under `root`; return the manifest. Every record that
    holds the gene has the gene's CDS. `later` is a second database's records,
    listed after the first."""
    start = len(gene) // 10 + 1
    cds = [start, start + 3 * (len(gene) * 8 // 30) - 1]
    databases = []
    for i, db in enumerate([records or [(GENE_ID, gene)]] + ([later] if later else [])):
        fasta = f"db-{name}-{i}.fasta"
        sequences = tuple(DnaSequence(record_id, "", bases) for record_id, bases in db)
        (root / fasta).write_text(write_fasta(FastaFile(sequences)))
        cds_map = {record_id: cds for record_id, bases in db if bases == gene}
        databases.append({"name": f"genes-{i}", "fasta": fasta, "cds": cds_map})
    manifest = root / f"{name}.json"
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


def _unrelated(rng: random.Random, patient: str, length: int) -> str:
    """A generated gene of `length` bases that shares no k-mer of the search with the
    patient, so no seed of the search falls in it."""
    kmers = {patient[i : i + DEFAULT_K] for i in range(len(patient) - DEFAULT_K + 1)}
    while True:
        bases = _gene(rng, length)
        if not any(bases[i : i + DEFAULT_K] in kmers for i in range(length - DEFAULT_K + 1)):
            return bases


def _without_e_value(report_json: bytes) -> dict:
    """report.json's document without the top hit's E-value, which grows with the database."""
    doc = json.loads(report_json)
    del doc["adopted_reference"]["top_hit"]["e_value"]
    return doc


@settings(max_examples=8, deadline=None)
@given(_CASES, st.integers(1, 400), st.booleans())
@example((8000, 4, 6), 400, True)
def test_records_the_search_cannot_reach_leave_the_diagnosis_unchanged(
    kernels, tmp_path_factory, trained_model, case, length, first
):
    """A record that shares no k-mer with the patient, before or after the gene, leaves
    everything but the E-value as it was; a database listed after the adopted one, even
    one that holds the patient itself, is never consulted."""
    gene, patient = _gene_and_patient(case)
    root = tmp_path_factory.mktemp("irrelevant")
    decoy = ("unrelated", _unrelated(random.Random(case[1]), patient, length))
    records = [decoy, (GENE_ID, gene)] if first else [(GENE_ID, gene), decoy]
    manifests = {
        "alone": _inputs(root, gene, name="alone"),
        "unrelated record": _inputs(root, gene, records, name="decoy"),
        "later database": _inputs(root, gene, later=[("patient", patient)], name="later"),
    }
    text = _wrapped("patient", patient, 60)
    for k, kernel in enumerate(kernels):
        with kernel():
            reports = {
                variant: _diagnose(root, f"{variant}-{k}", text, manifest, trained_model)[1]
                for variant, manifest in manifests.items()
            }
        assert reports["later database"] == reports["alone"]
        assert _without_e_value(reports["unrelated record"]) == _without_e_value(reports["alone"])


@settings(max_examples=6, deadline=None)
@given(_CASES, st.permutations(range(4)))
@example((8000, 5, 6), [3, 2, 1, 0])
def test_the_order_of_a_databases_records_leaves_the_diagnosis_unchanged(
    kernels, tmp_path_factory, trained_model, case, order
):
    """The gene, a copy of it under a lower id, which ties it on max score, its first
    half and an unrelated record, in any order: the lower id of the tie is adopted,
    and report.json is the same bytes."""
    gene, patient = _gene_and_patient(case)
    root = tmp_path_factory.mktemp("order")
    records = [
        (GENE_ID, gene),
        ("copy", gene),
        ("half", gene[: len(gene) // 2]),
        ("unrelated", _unrelated(random.Random(case[1]), patient, 300)),
    ]
    given_order = _inputs(root, gene, records, name="given")
    permuted = _inputs(root, gene, [records[i] for i in order], name="permuted")
    text = _wrapped("patient", patient, 60)
    reports = set()
    for k, kernel in enumerate(kernels):
        with kernel():
            for name, manifest in (("given", given_order), ("permuted", permuted)):
                report, report_json = _diagnose(
                    root, f"{name}-{k}", text, manifest, trained_model
                )
                assert report.adopted.subject.id == "copy"
                reports.add(report_json)
    assert len(reports) == 1


def _far_from(mutations, position: int, length: int, distance: int = 12) -> bool:
    """Whether reference position `position` (1-based) lies at least `distance` bases
    from both ends of a `length`-base reference and from every call's span."""
    if not distance < position <= length - distance:
        return False
    for m in mutations:
        lo, hi = m.position, m.position + max(len(m.ref_bases), 1) - 1
        if m.kind is MutationKind.INSERTION:  # between bases `position` and `position` + 1
            lo, hi = m.position, m.position + 1
        if lo - distance < position < hi + distance:
            return False
    return True


@settings(max_examples=10, deadline=None)
@given(_CASES, st.integers(0, 2**32), st.sampled_from("ACGT"))
@example((8000, 6, 6), 17, "A")
def test_one_more_substitution_away_from_the_edits_adds_exactly_that_call(
    kernels, tmp_path_factory, trained_model, case, pick, base
):
    gene, patient = _gene_and_patient(case)
    root = tmp_path_factory.mktemp("one-more-edit")
    manifest = _inputs(root, gene)
    for k, kernel in enumerate(kernels):
        with kernel():
            report, _ = _diagnose(
                root, f"patient-{k}", _wrapped("patient", patient, 60), manifest, trained_model
            )
            calls = list(report.mutations)
            free = [p for p in range(1, len(gene) + 1) if _far_from(calls, p, len(gene))]
            position = free[pick % len(free)]
            old = gene[position - 1]
            new = base if base != old else "ACGT"["ACGT".index(old) - 1]
            added = Mutation(position, MutationKind.SUBSTITUTION, old, new)
            want = sorted([*calls, added], key=lambda m: m.position)
            edited = apply_mutations(report.adopted.subject, want).bases
            again, _ = _diagnose(
                root, f"edited-{k}", _wrapped("patient", edited, 60), manifest, trained_model
            )
        assert [mutation_to_dict(m) for m in again.mutations] == [
            mutation_to_dict(m) for m in want
        ]
