"""Seeded input generators for the benchmark's three workloads.

Each generator writes every input file of its workload into an empty
directory and returns a `Workload`: one cycle of patients, each with the
manifest it is diagnosed against and the adoption the diagnosis must reach.
The same seed always writes the same files. The program under test only
ever sees these files.

Patients are seed-drawn variants of a reference gene: single-base
substitutions and one 1-3 bp insertion or deletion at positions spread over
the whole gene, so edits fall both inside and outside the CDS.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from mutascan.pipeline import make_synthetic_corpus
from mutascan.seqio import DnaSequence, FastaFile, read_fasta_path, write_fasta_path

# The paper-scale corpus: its BRCA1_ref, databases and training file are the
# same for every workload seed; only the patients and decoys vary.
CORPUS_SEED = 42
REFERENCE_ID = "BRCA1_ref"
REFERENCE_CDS = (101, 1000)

K = 11  # homology seed length, the SearchParams default
BAND_RADIUS = 16  # homology band half-width, so a band row holds 33 cells

EDIT_SPACING = 12  # minimum distance between two edits of one patient


@dataclass(frozen=True)
class Patient:
    id: str
    path: Path
    bases: str
    manifest: Path
    database: str  # database the reference must be adopted from
    subject: str  # record id the reference must be
    rejected: tuple[str, ...]  # databases that must be rejected on GC first


@dataclass(frozen=True)
class Workload:
    name: str
    patients: tuple[Patient, ...]  # one cycle; the client repeats it in order
    training_data: Path
    sizes: str  # the input sizes, one line
    tail_percentile: int  # see README: ten or more samples lie beyond it
    warmup: int  # untimed diagnoses before timing starts


def write_fasta(path: Path, records: list[tuple[str, str]]) -> None:
    write_fasta_path(FastaFile(tuple(DnaSequence(i, "", b) for i, b in records)), path)


def write_manifest(path: Path, databases: list[tuple[str, str, str, tuple[int, int]]]) -> None:
    """databases: (name, fasta file name, annotated record id, CDS bounds)."""
    doc = {
        "databases": [
            {"name": name, "fasta": fasta, "cds": {rec: list(cds)}}
            for name, fasta, rec, cds in databases
        ]
    }
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def make_variant(
    rng: random.Random, bases: str, substitutions: int
) -> tuple[str, list[tuple[int, int]]]:
    """Return the bases with one 1-3 bp indel and `substitutions` substitutions,
    and the reference spans [lo, hi) each edit touches.

    Every patient carries exactly one indel because each indel adds a seed
    diagonal, and each diagonal costs the homology search a band DP over the
    whole query: with one indel each, every seed asks the same search work.
    Edits sit at least EDIT_SPACING bases apart, so no two of them touch.
    """
    positions: list[int] = []
    while len(positions) < substitutions + 1:
        p = rng.randrange(3, len(bases) - 3)
        if all(abs(p - q) >= EDIT_SPACING for q in positions):
            positions.append(p)
    kinds = ["sub"] * substitutions + ["indel"]
    rng.shuffle(kinds)
    out: list[str] = []
    touched: list[tuple[int, int]] = []
    cursor = 0
    for p, kind in sorted(zip(positions, kinds)):
        out.append(bases[cursor:p])
        size = 1
        if kind == "sub":
            out.append(rng.choice([b for b in "ACGT" if b != bases[p]]))
            cursor = p + 1
        else:
            size = rng.randint(1, 3)
            if rng.random() < 0.5:  # deletion of bases[p : p + size]
                cursor = p + size
            else:  # insertion before bases[p]
                out.append("".join(rng.choice("ACGT") for _ in range(size)))
                cursor = p
                size = 0
        touched.append((p - 1, p + size + 1))
    out.append(bases[cursor:])
    return "".join(out), touched


def kmer_table(subjects: tuple[str, ...]) -> dict[str, list[tuple[int, int]]]:
    """(subject index, offset) of every N-free K-mer, as the search's index holds them."""
    table: dict[str, list[tuple[int, int]]] = {}
    for si, s in enumerate(subjects):
        for off in range(len(s) - K + 1):
            window = s[off : off + K]
            if "N" not in window:
                table.setdefault(window, []).append((si, off))
    return table


def seed_diagonals(query: str, table: dict[str, list[tuple[int, int]]]) -> set[tuple[int, int]]:
    """The distinct (subject, diagonal) groups of the query's exact K-mer seeds."""
    return {
        (si, q_off - s_off)
        for q_off in range(len(query) - K + 1)
        for si, s_off in table.get(query[q_off : q_off + K], ())
    }


def _corpus(out: Path) -> tuple[dict[str, Path], str]:
    paths = make_synthetic_corpus(CORPUS_SEED, out / "corpus")
    return paths, read_fasta_path(paths["db_ncbi"]).records[0].bases


def cohort_corpus(seed: int, out: Path, patients: int = 6) -> Workload:
    """The paper's workflow at paper scale: the seed-42 corpus and its manifests.

    One of every three patients uses manifest.json (ncbi adopted at once);
    the other two use manifest_fallback.json, where ebi is rejected on GC
    before ncbi is adopted. With that 1:2 mix the slower fallback
    diagnoses fill the top two thirds of the sorted latencies, and both
    the median and the p70 tail lie well inside them: neither sits on the
    edge between the two kinds, where it would jump when the sample count
    changes by one.
    """
    rng = random.Random(seed)
    paths, ref = _corpus(out)
    cycle = []
    for i in range(patients):
        bases, _ = make_variant(rng, ref, rng.randint(0, 6))
        pid = f"patient_{i}"
        path = out / f"{pid}.fasta"
        write_fasta(path, [(pid, bases)])
        fallback = i % 3 != 0
        cycle.append(
            Patient(
                pid,
                path,
                bases,
                paths["manifest_fallback" if fallback else "manifest"],
                "ncbi",
                REFERENCE_ID,
                ("ebi",) if fallback else (),
            )
        )
    return Workload(
        "cohort-corpus",
        tuple(cycle),
        paths["training_data"],
        f"3 databases of 3 records (1.2 kb reference, 0.8 kb decoys); "
        f"{patients} patients of ~1.2 kb per cycle, 2 in 3 via the fallback manifest",
        tail_percentile=70,
        warmup=3,
    )


def _kmers(bases: str) -> set[str]:
    return {bases[i : i + K] for i in range(len(bases) - K + 1)}


def _random_decoy(rng: random.Random, length: int, forbidden: set[str]) -> str:
    """Random bases that share no K-mer with `forbidden`."""
    decoy = "".join(rng.choices("ACGT", k=length))
    off = 0
    while off <= length - K:
        if decoy[off : off + K] in forbidden:
            i = off + rng.randrange(K)
            swap = rng.choice([b for b in "ACGT" if b != decoy[i]])
            decoy = decoy[:i] + swap + decoy[i + 1 :]
            off = max(0, i - K + 1)  # recheck every window over the changed base
        else:
            off += 1
    return decoy


def screen_large_db(
    seed: int,
    out: Path,
    subjects: int = 40,
    subject_length: int = 2000,
    chance_seeds: int = 6,
    patients: int = 6,
) -> Workload:
    """One large database: BRCA1_ref among random decoys of equal length.

    The decoys are screened so that they share no K-mer with the reference
    or any patient, then exactly `chance_seeds` K-mers of the reference
    (none touched by any patient's edits) are planted in them. Every
    patient therefore meets the same number of chance seed diagonals,
    each on a diagonal whose band spans the whole query, and every seed
    does the same search work. A random database of this size would hold
    more chance seeds by itself; the count is fixed to keep one diagnosis
    near a second and a run long enough for a median.
    """
    rng = random.Random(seed)
    paths, ref = _corpus(out)
    variants = [
        make_variant(rng, ref, rng.randint(0, 6))
        for _ in range(patients)
    ]
    forbidden = _kmers(ref).union(*(_kmers(v) for v, _ in variants))
    decoys = [_random_decoy(rng, subject_length, forbidden) for _ in range(subjects - 1)]

    touched = [span for _, spans in variants for span in spans]
    free_offsets = [
        q
        for q in range(len(ref) - K + 1)
        if all(q + K <= lo or q >= hi for lo, hi in touched)
    ]
    used: list[list[tuple[int, int]]] = [[] for _ in decoys]
    planted = 0
    while planted < chance_seeds:
        q = rng.choice(free_offsets)
        d = rng.randrange(len(decoys))
        # subject offset s >= q keeps the band over every query row
        s = q + rng.randrange(0, min(700, subject_length - K - q) + 1)
        if any(s < hi and s + K > lo for lo, hi in used[d]):
            continue
        decoys[d] = decoys[d][:s] + ref[q : q + K] + decoys[d][s + K :]
        used[d].append((s - 1, s + K + 1))
        planted += 1

    records = [(f"decoy_{i:03d}", b) for i, b in enumerate(decoys)]
    records.insert(rng.randrange(subjects), (REFERENCE_ID, ref))
    write_fasta(out / "db_screen.fasta", records)
    manifest = out / "manifest_screen.json"
    write_manifest(manifest, [("screen", "db_screen.fasta", REFERENCE_ID, REFERENCE_CDS)])

    cycle = []
    for i, (bases, _) in enumerate(variants):
        pid = f"patient_{i}"
        path = out / f"{pid}.fasta"
        write_fasta(path, [(pid, bases)])
        cycle.append(Patient(pid, path, bases, manifest, "screen", REFERENCE_ID, ()))
    return Workload(
        "screen-large-db",
        tuple(cycle),
        paths["training_data"],
        f"1 database of {subjects} x {subject_length / 1000:g} kb with "
        f"{chance_seeds} chance seeds; {patients} patients of ~1.2 kb per cycle",
        tail_percentile=50,
        warmup=1,
    )


def _gene(rng: random.Random, length: int) -> str:
    """Random bases at exactly 38.0 % GC, the centre of the GC gate, in which
    no K-mer occurs twice, so the gene seeds no diagonal against itself."""
    gc = round(length * 0.38)
    pool = list("GC" * (gc // 2) + "G" * (gc % 2) + "AT" * ((length - gc) // 2))
    pool += ["A"] * (length - len(pool))
    while True:
        rng.shuffle(pool)
        bases = "".join(pool)
        if len(_kmers(bases)) == length - K + 1:
            return bases


def long_gene(
    seed: int,
    out: Path,
    genes: int = 3,
    gene_length: int = 2000,
    rounds: int = 2,
) -> Workload:
    """Long genes, each alone in its own database and manifest.

    The patients cycle through the genes, `rounds` variants per gene. The
    genes share one length and repeat no K-mer, and every patient meets its
    gene on exactly the two seed diagonals around its indel, so every
    diagnosis does the same work and every sample informs the median.
    """
    rng = random.Random(seed)
    paths, _ = _corpus(out)
    cds = (101, 100 + 3 * ((gene_length - 300) // 3))
    references = []
    for g in range(genes):
        gid = f"gene_{g}"
        bases = _gene(rng, gene_length)
        fasta = f"db_{gid}.fasta"
        write_fasta(out / fasta, [(gid, bases)])
        manifest = out / f"manifest_{gid}.json"
        write_manifest(manifest, [(f"db_{gid}", fasta, gid, cds)])
        references.append((gid, bases, manifest))

    cycle = []
    for r in range(rounds):
        for gid, ref, manifest in references:
            table = kmer_table((ref,))
            while True:
                bases, _ = make_variant(rng, ref, rng.randint(1, 4))
                if len(seed_diagonals(bases, table)) == 2:
                    break
            pid = f"patient_{len(cycle)}"
            path = out / f"{pid}.fasta"
            write_fasta(path, [(pid, bases)])
            cycle.append(Patient(pid, path, bases, manifest, f"db_{gid}", gid, ()))
    return Workload(
        "long-gene",
        tuple(cycle),
        paths["training_data"],
        f"{genes} one-gene databases of {gene_length / 1000:g} kb at 38.0 % GC; "
        f"{len(cycle)} patients per cycle",
        tail_percentile=50,
        warmup=1,
    )


WORKLOADS = {
    "cohort-corpus": cohort_corpus,
    "screen-large-db": screen_large_db,
    "long-gene": long_gene,
}
