"""The whole diagnosis against `oracles.reference_diagnosis`, which composes the
layer oracles (search, GC gate, global alignment, calls, effects, features,
scores) in plain Python, under both band kernels.

The inputs are the synthetic corpora of seeds 42, 7 and 11, and generated
genes of 100-600 bases with planted substitutions and indels, N runs, edits
at the CDS edges and the sequence ends, decoys tied on score, short decoy
records, and databases with no hits. The generated test runs 40 examples. On a
2-vCPU x86-64 machine the file adds 6-8 s to the suite (the corpora about 2.5 s,
the generated cases 3-5 s), most of it in the oracle's plain-Python search."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_diagnosis

from mutascan.corpus import make_synthetic_corpus
from mutascan.neural import load_net
from mutascan.pipeline import (
    NoDatabaseAcceptedError,
    load_manifest,
    report_to_dict,
    run_diagnosis,
)
from mutascan.seqio import DnaSequence, FastaFile, read_fasta_path, write_fasta


def _diagnoses(kernels, patient_path, manifest_path, model, work):
    """report_to_dict of the diagnosis under each kernel, its model path dropped,
    or None where every database is rejected."""
    reports = []
    for kernel in kernels:
        with kernel():
            try:
                report = run_diagnosis(patient_path, manifest_path, model, work)
            except NoDatabaseAcceptedError:
                reports.append(None)
                continue
        doc = report_to_dict(report)
        del doc["config"]["model"]
        reports.append(doc)
    return reports


@pytest.mark.parametrize("seed", [42, 7, 11])
def test_corpus_diagnoses_match_reference_diagnosis(
    kernels, tmp_path_factory, trained_model, seed
):
    root = tmp_path_factory.mktemp(f"corpus-{seed}")
    corpus = make_synthetic_corpus(seed, root)
    net = load_net(trained_model)
    pairs = (("patient_mutated", "manifest"), ("patient_clean", "manifest_fallback"))
    for patient, manifest in pairs:
        databases = [
            (entry.name, read_fasta_path(entry.fasta_path).records, entry.cds)
            for entry in load_manifest(corpus[manifest]).databases
        ]
        want = reference_diagnosis(read_fasta_path(corpus[patient]).records[0], databases, net)
        assert want is not None
        got = _diagnoses(kernels, corpus[patient], corpus[manifest], trained_model, root / "work")
        assert got == [want, want]


def _random_bases(rng: random.Random, length: int, gc: float = 0.38) -> str:
    """Random bases with round(length * gc) of them G or C."""
    pool = [rng.choice("GC") for _ in range(round(length * gc))]
    pool += [rng.choice("AT") for _ in range(length - len(pool))]
    rng.shuffle(pool)
    return "".join(pool)


def _n_run(rng: random.Random, bases: str) -> str:
    """`bases` with a run of 1-20 of its bases made N."""
    size = rng.randint(1, 20)
    at = rng.randrange(len(bases))
    return bases[:at] + "N" * len(bases[at : at + size]) + bases[at + size :]


_KINDS = ("substitution", "insertion", "deletion")


@st.composite
def _cases(draw):
    """A patient and its databases: (patient bases, [(name, [(id, bases)], {id: CDS})]).

    The patient is the gene with up to 6 planted edits of 1-4 bases, at random
    places, at the CDS edges or at the sequence ends, and maybe an N run. Each
    database holds one of: the gene, maybe with a copy inside random flanks
    (tied on score where the flanks do not extend the hit), gene fragments of
    12-30 bases and records too short to seed; the gene inside GC-rich flanks;
    or only unrelated random records, which seed nothing but by chance. Every
    record has a CDS."""
    # bases from a seeded generator: hypothesis's own randoms favour runs of one base,
    # whose thousands of seeded diagonals the plain-Python search oracle takes seconds on
    rng = random.Random(draw(st.integers(0, 2**32)))
    length = draw(st.integers(100, 600))
    gene = _random_bases(rng, length)
    if draw(st.booleans()):
        gene = _n_run(rng, gene)
    first = draw(st.integers(1, length // 3))
    last = draw(st.integers(first, length))
    edges = [0, 1, first - 1, first, last - 1, last, length - 1, length]
    edit = st.tuples(
        st.sampled_from(_KINDS), st.integers(0, length) | st.sampled_from(edges), st.integers(1, 4)
    )
    bases = list(gene)
    for kind, at, size in sorted(draw(st.lists(edit, max_size=6)), key=lambda t: -t[1]):
        if kind == "substitution":
            old = bases[at : at + size]
            bases[at : at + size] = [rng.choice("ACGT".replace(b, "")) for b in old]
        elif kind == "insertion":
            bases[at:at] = rng.choices("ACGT", k=size)
        else:
            del bases[at : at + size]
    patient = "".join(bases)
    if draw(st.booleans()):
        patient = _n_run(rng, patient)

    kinds = draw(st.lists(st.sampled_from(["gene", "gc-rich", "no-hits"]), max_size=2))
    if not kinds or draw(st.integers(0, 4)):  # mostly a database that adopts the gene last
        kinds.append("gene")
    databases = []
    for d, kind in enumerate(kinds):
        holding = []  # (bases, offset of the gene in them)
        others = [_random_bases(rng, rng.randint(1, 10)) for _ in range(draw(st.integers(0, 2)))]
        if kind == "gene":
            holding.append((gene, 0))
            if draw(st.booleans()):
                head = _random_bases(rng, rng.randint(0, 60))
                holding.append((head + gene + _random_bases(rng, rng.randint(1, 60)), len(head)))
            for _ in range(draw(st.integers(0, 2))):
                at = rng.randrange(length - 30)
                others.append(gene[at : at + rng.randint(12, 30)])
        elif kind == "gc-rich":
            flank_gc = draw(st.sampled_from([0.6, 0.75]))
            head = _random_bases(rng, length // 2, flank_gc)
            holding.append((head + gene + _random_bases(rng, length // 2, flank_gc), len(head)))
        else:
            others += [_random_bases(rng, rng.randint(20, 300)) for _ in range(rng.randint(1, 2))]
        ids = rng.sample([f"rec_{c}" for c in "abcdefg"], len(holding) + len(others))
        records = [(i, b) for i, (b, _) in zip(ids, holding)]
        records += list(zip(ids[len(holding) :], others))
        cds = {i: [first + off, last + off] for i, (_, off) in zip(ids, holding)}
        cds.update({i: [1, len(b)] for i, b in records if i not in cds})
        databases.append((f"db{d}", records, cds))
    return patient, databases


@settings(max_examples=40, deadline=None)
@given(_cases())
def test_generated_diagnoses_match_reference_diagnosis(
    kernels, tmp_path_factory, trained_model, case
):
    patient, databases = case
    root = tmp_path_factory.mktemp("generated")
    entries = []
    for name, records, cds in databases:
        sequences = FastaFile(tuple(DnaSequence(i, "", b) for i, b in records))
        (root / f"{name}.fasta").write_text(write_fasta(sequences))
        entries.append({"name": name, "fasta": f"{name}.fasta", "cds": cds})
    (root / "manifest.json").write_text(json.dumps({"databases": entries}))
    query = DnaSequence("patient", "", patient)
    (root / "patient.fasta").write_text(write_fasta(FastaFile((query,))))

    manifest = [
        (name, [DnaSequence(i, "", b) for i, b in records], {i: tuple(c) for i, c in cds.items()})
        for name, records, cds in databases
    ]
    want = reference_diagnosis(query, manifest, load_net(trained_model))
    got = _diagnoses(
        kernels, root / "patient.fasta", root / "manifest.json", trained_model, root / "work"
    )
    assert got == [want, want]
