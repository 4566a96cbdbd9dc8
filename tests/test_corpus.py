"""The deterministic synthetic corpus."""

import hashlib
import random

import pytest

import mutascan.corpus as corpus_module
from mutascan import pipeline
from mutascan.corpus import CorpusError, make_synthetic_corpus
from mutascan.errors import MutascanError
from mutascan.neural import load_training_rows
from mutascan.seqio import parse_fasta
from mutascan.seqstats import composition


def _read(path):
    return parse_fasta(path.read_text(encoding="utf-8"))


def test_corpus_is_byte_deterministic(tmp_path):
    a = make_synthetic_corpus(7, tmp_path / "a")
    b = make_synthetic_corpus(7, tmp_path / "b")
    assert set(a) == set(b)
    for key in a:
        assert a[key].read_bytes() == b[key].read_bytes(), key
    c = make_synthetic_corpus(8, tmp_path / "c")
    assert a["db_ncbi"].read_bytes() != c["db_ncbi"].read_bytes()


# One SHA-256 over (seed, file key, byte count, file bytes) for every file of
# the corpora of seeds 0-50, keys in sorted order. Pins the corpus bytes
# across code changes, which comparing two builds of the same code cannot.
GOLDEN_CORPUS_SHA256 = "5e6ce54996d8b65cd594d1dc61755e73be4ce5135803371c9ef9cbb1738df36b"


def test_corpus_bytes_match_golden_hash(kernels, tmp_path):
    for kernel in kernels:
        digest = hashlib.sha256()
        with kernel():
            for seed in range(51):
                paths = make_synthetic_corpus(seed, tmp_path / str(seed))
                for key in sorted(paths):
                    data = paths[key].read_bytes()
                    digest.update(f"{seed}:{key}:{len(data)}\n".encode())
                    digest.update(data)
        assert digest.hexdigest() == GOLDEN_CORPUS_SHA256


def test_pipeline_reexports_the_corpus_generator():
    assert pipeline.make_synthetic_corpus is corpus_module.make_synthetic_corpus


def test_corpus_reference_gc_profile(corpus):
    ref = _read(corpus["db_ncbi"]).records[0]
    assert ref.id == "BRCA1_ref"
    assert len(ref.bases) == 1200
    assert composition(ref).gc_percent == 38.0
    ebi = _read(corpus["db_ebi"]).records[0]
    assert composition(ebi).gc_percent == 50.0
    ensembl = _read(corpus["db_ensembl"]).records[0]
    assert composition(ensembl).gc_percent == 43.0
    for key in ("db_ncbi", "db_ebi", "db_ensembl"):
        assert len(_read(corpus[key])) == 3


def test_corpus_training_rows(corpus):
    rows = load_training_rows(corpus["training_data"])
    assert len(rows) == 18
    malignant = [r for r in rows if r.label == 1]
    benign = [r for r in rows if r.label == 0]
    assert len(malignant) == len(benign) == 9
    assert sum(1 for r in malignant if r.gene == "BRCA1") == 5
    assert sum(1 for r in malignant if r.gene == "BRCA2") == 4
    assert all(r.gene == "BRCA1" for r in benign)
    kinds = [r.mutation["kind"] for r in malignant]
    assert kinds.count("insertion") == 1
    assert kinds.count("deletion") == 1
    assert kinds.count("substitution") == 7
    assert all(r.features is not None for r in rows)


def test_corpus_patients(corpus):
    clean = _read(corpus["patient_clean"])
    mutated = _read(corpus["patient_mutated"])
    assert len(clean) == len(mutated) == 1
    ref = _read(corpus["db_ncbi"]).records[0]
    assert clean.records[0].bases == ref.bases
    assert mutated.records[0].bases != ref.bases
    assert len(mutated.records[0].bases) == len(ref.bases)  # two substitutions


def test_corpus_seeds_vary(tmp_path):
    rng = random.Random(99)
    seeds = [rng.randint(0, 10_000) for _ in range(3)]
    for i, seed in enumerate(seeds):
        paths = make_synthetic_corpus(seed, tmp_path / str(i))
        rows = load_training_rows(paths["training_data"])
        assert len(rows) == 18


def test_too_few_usable_codons_is_a_corpus_error(tmp_path, monkeypatch):
    monkeypatch.setattr(corpus_module, "_mine_substitution_sites", lambda bases: ([], [], []))
    with pytest.raises(CorpusError, match="too few usable codons"):
        make_synthetic_corpus(42, tmp_path / "out")
    assert issubclass(CorpusError, MutascanError)


def test_failed_write_leaves_no_partial_file(tmp_path):
    out = tmp_path / "out"
    (out / "training.jsonl").mkdir(parents=True)  # the rename onto it fails
    with pytest.raises(CorpusError, match="cannot write corpus"):
        make_synthetic_corpus(42, out)
    assert [p.name for p in out.iterdir()] == ["training.jsonl"]  # no file of the run
    assert not any((out / "training.jsonl").iterdir())
