"""Deterministic synthetic corpus standing in for the unpublished clinical datasets."""

from __future__ import annotations

import json
import random
from dataclasses import replace
from pathlib import Path

from .align import Mutation, MutationKind, apply_mutations, mutation_to_dict
from .errors import MutascanError
from .neural import TRANSITION, encode
from .protein import CODON_TABLE, classify_effect
from .seqio import DnaSequence, FastaFile, write_fasta, write_texts_atomic

_REF_LENGTH = 1200
_CDS_START = 101
_CDS_END = 1000
_GC_COUNT = 456  # exactly 38.0% of 1200

# corpus key -> file name, in the order make_synthetic_corpus returns them
_FILE_NAMES = {
    "manifest": "manifest.json",
    "manifest_fallback": "manifest_fallback.json",
    "db_ncbi": "db_ncbi.fasta",
    "db_ebi": "db_ebi.fasta",
    "db_ensembl": "db_ensembl.fasta",
    "patient_clean": "patient_clean.fasta",
    "patient_mutated": "patient_mutated.fasta",
    "training_data": "training.jsonl",
}


class CorpusError(MutascanError):
    pass


def _mine_substitution_sites(bases: str) -> tuple[list, list, list]:
    """Find codons where a single transition yields each effect class.

    Returns (nonsense, silent, missense) site lists; each site is
    (position, ref_base, alt_base) with a 1-based reference position.
    Every codon contributes to at most one list, so sites never collide.
    """
    nonsense, silent, missense = [], [], []
    n_codons = (_CDS_END - _CDS_START + 1) // 3
    for ci in range(n_codons):
        p = _CDS_START + 3 * ci
        codon = bases[p - 1 : p + 2]
        aa = CODON_TABLE[codon]
        if aa == "*":
            continue
        variants = []  # (amino acid after the transition, site)
        for off in range(3):
            alt_base = TRANSITION[codon[off]]
            alt_aa = CODON_TABLE[codon[:off] + alt_base + codon[off + 1 :]]
            variants.append((alt_aa, (p + off, codon[off], alt_base)))
        # the first class any variant reaches claims the codon; when neither
        # nonsense nor silent is reached, every variant is missense
        for sites, wanted in ((nonsense, "*"), (silent, aa), (missense, None)):
            site = next((s for alt_aa, s in variants if wanted in (None, alt_aa)), None)
            if site is not None:
                sites.append(site)
                break
    return nonsense, silent, missense


def _sub(position: int, ref_base: str, alt_base: str) -> Mutation:
    return Mutation(position, MutationKind.SUBSTITUTION, ref_base, alt_base)


def make_synthetic_corpus(seed: int, out_dir: str | Path) -> dict[str, Path]:
    """Generate the deterministic desk-scale corpus.

    Writes three FASTA databases (the first holds a reference at exactly
    38.0% GC; the second a 50.0%-GC homolog so a fallback manifest can
    demonstrate gate rejection; the third a 43.0%-GC homolog), CDS
    annotations, an 18-row training file (9 malignant split 5 BRCA1 / 4
    BRCA2, 9 benign), two patient samples, and two manifests. Byte-identical
    output for a fixed seed. The eight files are written all together or
    not at all, the manifests renamed into place last.
    """
    if out_dir == "":  # Path("") is ".", the working directory
        raise CorpusError("cannot write corpus to '': the path is empty")
    out = Path(out_dir)
    rng = random.Random(seed)

    # reference with an exact base-count profile: GC = 456/1200 = 38.0%
    pool = (
        ["G"] * (_GC_COUNT // 2)
        + ["C"] * (_GC_COUNT - _GC_COUNT // 2)
        + ["A"] * ((_REF_LENGTH - _GC_COUNT) // 2)
        + ["T"] * (_REF_LENGTH - _GC_COUNT - (_REF_LENGTH - _GC_COUNT) // 2)
    )
    rng.shuffle(pool)
    ref_bases = "".join(pool)
    reference = DnaSequence(
        "BRCA1_ref", "synthetic normal gene, CDS 101..1000", ref_bases
    )

    nonsense_sites, silent_sites, missense_sites = _mine_substitution_sites(ref_bases)
    if len(nonsense_sites) < 3 or len(silent_sites) < 9 or len(missense_sites) < 4:
        raise CorpusError("seed produced too few usable codons; choose another seed")

    # malignant exemplars: 5 BRCA1 (3 nonsense, 1 frameshift insertion,
    # 1 missense) + 4 BRCA2 (1 frameshift deletion, 3 missense)
    fs_ins_pos = silent_sites[7][0]
    fs_del_pos = silent_sites[8][0]
    malignant = [
        ("BRCA1", _sub(*nonsense_sites[0])),
        ("BRCA1", _sub(*nonsense_sites[1])),
        ("BRCA1", _sub(*nonsense_sites[2])),
        ("BRCA1", Mutation(fs_ins_pos, MutationKind.INSERTION, "", "A")),
        ("BRCA1", _sub(*missense_sites[0])),
        ("BRCA2", Mutation(fs_del_pos, MutationKind.DELETION, ref_bases[fs_del_pos - 1], "")),
        ("BRCA2", _sub(*missense_sites[1])),
        ("BRCA2", _sub(*missense_sites[2])),
        ("BRCA2", _sub(*missense_sites[3])),
    ]
    noncoding_positions = [10, 50, 1100]
    benign = [("BRCA1", _sub(*silent_sites[i])) for i in range(6)] + [
        ("BRCA1", _sub(p, ref_bases[p - 1], TRANSITION[ref_bases[p - 1]]))
        for p in noncoding_positions
    ]

    rows = []
    for i, (gene, mut) in enumerate(malignant, start=1):
        rows.append((f"mal-{i}", gene, mut, 1))
    for i, (gene, mut) in enumerate(benign, start=1):
        rows.append((f"ben-{i}", gene, mut, 0))

    # the mutated patient carries the first malignant mutation plus one
    # silent change; the clean patient is the reference verbatim
    patient_muts = sorted(
        [malignant[0][1], _sub(*silent_sites[6])], key=lambda m: m.position
    )
    patient_clean = DnaSequence("patient_clean", "synthetic patient sample", ref_bases)
    patient_mutated = DnaSequence(
        "patient_mutated",
        "synthetic patient sample",
        apply_mutations(reference, patient_muts).bases,
    )

    def homolog(record_id: str, extra_gc: int) -> DnaSequence:
        # flip A/T bases to G/C outside the first 200 bases, so seeds on the
        # shared prefix always anchor the homology search
        candidates = [
            i for i in range(200, _REF_LENGTH) if ref_bases[i] in "AT"
        ]
        flips = set(rng.sample(candidates, extra_gc))
        out_bases = "".join(
            ("G" if ch == "A" else "C") if i in flips else ch
            for i, ch in enumerate(ref_bases)
        )
        return DnaSequence(record_id, "synthetic homolog", out_bases)

    def decoy(record_id: str) -> DnaSequence:
        return DnaSequence(
            record_id, "synthetic decoy", "".join(rng.choice("ACGT") for _ in range(800))
        )

    ebi_homolog = homolog("BRCA1_ebi_homolog", 144)  # GC 600/1200 = 50.0%
    ensembl_homolog = homolog("BRCA1_ensembl_homolog", 60)  # GC 516/1200 = 43.0%

    db_ncbi = FastaFile((reference, decoy("decoy_n1"), decoy("decoy_n2")))
    db_ebi = FastaFile((ebi_homolog, decoy("decoy_e1"), decoy("decoy_e2")))
    db_ensembl = FastaFile((ensembl_homolog, decoy("decoy_s1"), decoy("decoy_s2")))

    training = []
    for row_id, gene, mut, label in rows:
        effect = classify_effect(mut, reference, _CDS_START, _CDS_END)
        features = encode(replace(mut, effect=effect), reference)
        training.append(
            json.dumps(
                {
                    "id": row_id,
                    "gene": gene,
                    "mutation": mutation_to_dict(mut),
                    "features": list(features.values),
                    "label": label,
                }
            )
            + "\n"
        )

    db_entries = {
        "ncbi": {"name": "ncbi", "fasta": "db_ncbi.fasta",
                 "cds": {"BRCA1_ref": [_CDS_START, _CDS_END]}},
        "ebi": {"name": "ebi", "fasta": "db_ebi.fasta",
                "cds": {"BRCA1_ebi_homolog": [_CDS_START, _CDS_END]}},
        "ensembl": {"name": "ensembl", "fasta": "db_ensembl.fasta",
                    "cds": {"BRCA1_ensembl_homolog": [_CDS_START, _CDS_END]}},
    }
    manifest = {
        "databases": [db_entries["ncbi"], db_entries["ebi"], db_entries["ensembl"]],
        "training_data": "training.jsonl",
    }
    fallback = {
        "databases": [db_entries["ebi"], db_entries["ncbi"], db_entries["ensembl"]],
        "training_data": "training.jsonl",
    }

    texts = {  # in renaming order: a manifest never names a file not yet in place
        "db_ncbi": write_fasta(db_ncbi),
        "db_ebi": write_fasta(db_ebi),
        "db_ensembl": write_fasta(db_ensembl),
        "patient_clean": write_fasta(FastaFile((patient_clean,))),
        "patient_mutated": write_fasta(FastaFile((patient_mutated,))),
        "training_data": "".join(training),
        "manifest": json.dumps(manifest, indent=2) + "\n",
        "manifest_fallback": json.dumps(fallback, indent=2) + "\n",
    }
    paths = {key: out / name for key, name in _FILE_NAMES.items()}
    try:
        out.mkdir(parents=True, exist_ok=True)
        write_texts_atomic({paths[key]: text for key, text in texts.items()})
    except OSError as exc:
        raise CorpusError(f"cannot write corpus to {out}: {exc}") from exc
    return paths
