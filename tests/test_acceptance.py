"""Acceptance gate: the eleven release criteria, one test per criterion.

Each test prints one `criterion N (<name>): PASS in <t>s` line (visible with
`pytest -s`); under `pytest -v` the test names themselves give the per-criterion
pass/fail listing. Tolerances and budgets are pinned in the assertions, not
configurable, so a red test here means the build does not meet its contract.
"""

import itertools
import json
import random
import time

import numpy as np
import pytest

from mutascan.align import Scoring, apply_mutations, call_mutations, global_align
from mutascan.cli import main as cli_main
from mutascan.homology import SEARCH_SCORING, build_index, search
from mutascan.neural import (
    Network,
    NetworkTopology,
    TrainConfig,
    forward,
    gradient,
    load_net,
    load_training_rows,
    rows_to_samples,
    save_net,
    train,
)
from mutascan.protein import CODON_TABLE, STOP, translate
from mutascan.seqio import DnaSequence, FastaFile
from mutascan.seqstats import composition, gc_gate

from oracles import (
    codon_to_aa,
    count_composition,
    enumerate_global_score,
    finite_difference_gradients,
    smith_waterman_score,
    translate_dna,
)


class _Timer:
    def __init__(self, number, name, budget_s=None):
        self.number, self.name, self.budget = number, name, budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        state = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number} ({self.name}): {state} in {elapsed:.2f}s")
        if exc_type is None and self.budget is not None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget "
                f"({elapsed:.2f}s)"
            )
        return False


def _seq(bases, rec_id="s"):
    return DnaSequence(rec_id, "", bases)


def test_criterion_01_composition_exactness():
    with _Timer(1, "composition exactness", budget_s=5.0):
        rng = random.Random(1001)
        for i in range(1000):
            n = rng.randint(1, 10_000)
            alphabet = "ACGTN" if i % 4 == 0 else "ACGT"
            bases = "".join(rng.choices(alphabet, k=n))
            if bases.count("N") == len(bases):
                bases = bases[:-1] + "A"
            stats = composition(_seq(bases))
            want = count_composition(bases)
            assert (
                stats.count_a, stats.count_c, stats.count_g,
                stats.count_t, stats.count_n,
            ) == (want["A"], want["C"], want["G"], want["T"], want["N"])
            unambiguous = n - want["N"]
            assert stats.gc_percent == 100.0 * (want["G"] + want["C"]) / unambiguous
            assert stats.at_percent == 100.0 * (want["A"] + want["T"]) / unambiguous
            if want["N"] == 0:
                assert abs(stats.gc_percent + stats.at_percent - 100.0) <= 1e-9


def test_criterion_02_gc_gate_decisions():
    with _Timer(2, "GC gate decisions"):
        v38 = gc_gate(composition(_seq("G" * 19 + "A" * 31)))  # 38.0%
        v40 = gc_gate(composition(_seq("G" * 20 + "A" * 30)))  # 40.0%
        v47 = gc_gate(composition(_seq("G" * 47 + "A" * 53)))  # 47.0%
        assert (v38.measured_gc, v40.measured_gc, v47.measured_gc) == (38.0, 40.0, 47.0)
        assert v38.accepted is True
        assert v40.accepted is True
        assert v47.accepted is False
        assert v47.gene_band_flag is True


def test_criterion_03_alignment_optimality():
    with _Timer(3, "alignment optimality", budget_s=30.0):
        rng = random.Random(1003)
        scoring = Scoring()
        for _ in range(500):
            a = "".join(rng.choices("ACGT", k=rng.randint(1, 6)))
            b = "".join(rng.choices("ACGT", k=rng.randint(1, 6)))
            got = global_align(_seq(a, "a"), _seq(b, "b"), scoring).score
            want = enumerate_global_score(
                a, b, scoring.match, scoring.mismatch,
                scoring.gap_open, scoring.gap_extend,
            )
            assert got == want, (a, b, got, want)


def _engineer_edits(rng, ref, max_edits=10):
    bases = list(ref)
    n_edits = rng.randint(0, max_edits)
    positions = sorted(
        rng.sample(range(len(bases)), min(n_edits, len(bases))), reverse=True
    )
    for pos in positions:
        roll = rng.random()
        if roll < 0.5:
            bases[pos] = rng.choice("ACGT".replace(bases[pos], ""))
        elif roll < 0.75:
            bases.insert(pos, rng.choice("ACGT"))
        elif len(bases) > 1:
            del bases[pos]
    return "".join(bases)


def test_criterion_04_mutation_round_trip():
    with _Timer(4, "mutation round-trip"):
        rng = random.Random(1004)
        for case in range(200):
            length = rng.randint(1800, 2000) if case % 20 == 0 else rng.randint(100, 800)
            ref = "".join(rng.choices("ACGT", k=length))
            patient = _engineer_edits(rng, ref)
            alignment = global_align(_seq(ref, "ref"), _seq(patient, "patient"))
            calls = call_mutations(alignment)
            rebuilt = apply_mutations(_seq(ref, "ref"), calls)
            assert rebuilt.bases == patient


def test_criterion_05_homology_soundness_and_completeness():
    with _Timer(5, "homology soundness + completeness", budget_s=60.0):
        rng = random.Random(1005)
        s = SEARCH_SCORING

        def oracle(query, subject):
            return smith_waterman_score(
                query, subject, s.match, s.mismatch, s.gap_open, s.gap_extend
            )

        for db_round in range(5):
            n_subjects = rng.randint(8, 20)
            subjects = [
                (f"s{j:02d}", "".join(rng.choices("ACGT", k=rng.randint(300, 900))))
                for j in range(n_subjects)
            ]
            index = build_index(
                FastaFile(tuple(DnaSequence(i, "", b) for i, b in subjects))
            )
            by_id = dict(subjects)

            for _ in range(20):  # exact-substring queries: found and exact
                sid, sbases = subjects[rng.randrange(n_subjects)]
                qlen = rng.randint(60, 150)
                start = rng.randint(0, len(sbases) - qlen)
                query = sbases[start : start + qlen]
                hits = search(_seq(query, "q"), index)
                mine = [h for h in hits if h.subject_id == sid]
                assert mine, f"exact substring of {sid} not found"
                top = mine[0]
                assert top.max_ident == 100.0
                assert top.query_cover == 100.0
                assert top.max_score == oracle(query, sbases) == qlen

            for _ in range(20):  # mutated queries: never above the optimum
                sid, sbases = subjects[rng.randrange(n_subjects)]
                qlen = rng.randint(60, 150)
                start = rng.randint(0, len(sbases) - qlen)
                query = _engineer_edits(rng, sbases[start : start + qlen], max_edits=8)
                if len(query) < index.k:
                    continue
                hits = search(_seq(query, "q"), index)
                for h in hits:
                    assert h.max_score <= oracle(query, by_id[h.subject_id])


def test_criterion_06_genetic_code():
    with _Timer(6, "genetic code"):
        codons = ["".join(c) for c in itertools.product("ACGT", repeat=3)]
        assert len(codons) == 64
        for codon in codons:
            assert translate(codon) == codon_to_aa(codon)
        assert sum(1 for c in codons if CODON_TABLE[c] == STOP) == 3
        rng = random.Random(1006)
        for _ in range(100):
            bases = "".join(rng.choices("ACGTN", k=rng.randint(0, 120)))
            frame = rng.choice([0, 1, 2])
            assert translate(bases, frame) == translate_dna(bases, frame)


def _random_case(rng, force_default=False):
    if force_default:
        sizes = [10, 4, 1]
    else:
        depth = rng.choice([3, 3, 4])
        sizes = [rng.randint(1, 10) for _ in range(depth - 1)] + [1]
    nprng = np.random.default_rng(rng.randint(0, 2**31))
    net = Network(
        NetworkTopology(tuple(sizes)),
        [nprng.uniform(-1, 1, (sizes[i + 1], sizes[i])) for i in range(len(sizes) - 1)],
        [nprng.uniform(-1, 1, (sizes[i + 1],)) for i in range(len(sizes) - 1)],
    )
    x = [rng.uniform(0, 1) for _ in range(sizes[0])]
    t = rng.choice([0.0, 1.0])
    return net, x, t


def test_criterion_07_gradient_check():
    with _Timer(7, "gradient check"):
        rng = random.Random(1007)
        for case in range(50):
            net, x, t = _random_case(rng, force_default=(case % 5 == 0))
            dw, db = gradient(net, (x, t))

            def loss(params):
                layers = len(net.weights)
                probe = Network(net.topology, params[:layers], params[layers:])
                return (forward(probe, x) - t) ** 2

            fd = finite_difference_gradients(loss, net.weights + net.biases, h=1e-5)
            for analytic, numeric in zip(dw + db, fd):
                num = np.abs(analytic - numeric)
                den = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-3)
                rel = num / den
                assert rel.max() <= 1e-6, f"case {case}: rel err {rel.max():.3e}"


def test_criterion_08_training_convergence(corpus):
    with _Timer(8, "training convergence", budget_s=120.0):
        rows = load_training_rows(corpus["training_data"])
        samples = rows_to_samples(rows)
        assert len(samples) == 18
        assert sum(t for _, t in samples) == 9

        # one full-budget run at the configured 1e-9 default target
        cfg_default = TrainConfig()  # lr 0.5, momentum 0.9, target 1e-9, 500k epochs
        net, report = train(NetworkTopology((10, 4, 1)), samples, cfg_default)
        below_1e6 = next(
            (i + 1 for i, mse in enumerate(report.history) if mse <= 1e-6), None
        )
        assert below_1e6 is not None and below_1e6 <= 500_000, (
            f"MSE never reached 1e-6 within the cap (final {report.final_mse:.3e})"
        )
        # informational per contract: whether the 1e-9 default was also reached
        print(
            f"  MSE <= 1e-6 at epoch {below_1e6}; 1e-9 target "
            + (
                f"reached at epoch {report.epochs_run}"
                if report.converged
                else f"not reached in {report.epochs_run} epochs "
                f"(final MSE {report.final_mse:.3e})"
            )
        )

        # deterministically: a rerun gated at 1e-6 walks the identical curve
        cfg_1e6 = TrainConfig(target_mse=1e-6)
        net_b, report_b = train(NetworkTopology((10, 4, 1)), samples, cfg_1e6)
        assert report_b.converged and report_b.epochs_run == below_1e6
        assert report_b.history == report.history[: report_b.epochs_run]


def test_criterion_09_xor_sanity():
    with _Timer(9, "XOR sanity", budget_s=30.0):
        data = [
            ([0.0, 0.0], 0.0),
            ([0.0, 1.0], 1.0),
            ([1.0, 0.0], 1.0),
            ([1.0, 1.0], 0.0),
        ]
        cfg = TrainConfig(target_mse=1e-3, max_epochs=100_000, seed=42)
        net, report = train(NetworkTopology((2, 4, 1)), data, cfg)
        assert report.converged
        assert report.final_mse < 1e-3
        assert report.epochs_run <= 100_000
        for x, t in data:
            assert abs(forward(net, x) - t) < 0.5  # all four corners on the right side


def test_criterion_10_end_to_end(tmp_path, monkeypatch, capsys):
    with _Timer(10, "end to end", budget_s=60.0):
        corpus_dir = tmp_path / "corpus"
        assert cli_main(["gen-corpus", "--seed", "42", "--out", str(corpus_dir)]) == 0

        model = tmp_path / "model.json"
        assert cli_main(
            [
                "train", "--data", str(corpus_dir / "training.jsonl"),
                "--out", str(model), "--target-mse", "1e-6",
            ]
        ) == 0
        assert "converged" in capsys.readouterr().out

        def diagnose(patient, manifest, workdir):
            monkeypatch.setenv("MUTASCAN_WORKDIR", str(workdir))
            rc = cli_main(
                [
                    "diagnose", "--patient", str(corpus_dir / patient),
                    "--manifest", str(corpus_dir / manifest), "--model", str(model),
                ]
            )
            return rc, capsys.readouterr().out

        rc, out = diagnose("patient_clean.fasta", "manifest.json", tmp_path / "wd-clean")
        assert rc == 0
        assert "Diagnosis: Normal" in out

        rc, out = diagnose("patient_mutated.fasta", "manifest.json", tmp_path / "wd-mut")
        assert rc == 0
        assert "Diagnosis: highly risk of breast cancer" in out

        # fallback: first database rejected on GC, second adopted, both verdicts present
        rc, out = diagnose(
            "patient_clean.fasta", "manifest_fallback.json", tmp_path / "wd-fb"
        )
        assert rc == 0
        assert "ebi: rejected, GC 50.00%" in out
        assert "ncbi: adopted 'BRCA1_ref', GC 38.00%" in out
        doc = json.loads((tmp_path / "wd-fb" / "report.json").read_text(encoding="utf-8"))
        assert doc["rejected_references"][0]["gate_verdict"]["measured_gc"] == 50.0
        assert doc["adopted_reference"]["gate_verdict"]["measured_gc"] == 38.0
        assert doc["adopted_reference"]["gate_verdict"]["accepted"] is True

        # byte-identical reports across repeated runs
        rc, _ = diagnose("patient_mutated.fasta", "manifest.json", tmp_path / "wd-mut2")
        assert rc == 0
        for name in ("report.json", "report.txt"):
            assert (tmp_path / "wd-mut" / name).read_bytes() == (
                tmp_path / "wd-mut2" / name
            ).read_bytes()


def test_criterion_11_model_persistence(tmp_path):
    with _Timer(11, "model persistence"):
        rng = random.Random(1011)
        data = [([rng.uniform(0, 1) for _ in range(10)], i % 2) for i in range(12)]
        net, _ = train(
            NetworkTopology((10, 4, 1)), data,
            TrainConfig(target_mse=1e-3, max_epochs=20_000),
        )
        path = tmp_path / "model.json"
        save_net(net, path)
        loaded = load_net(path)
        assert loaded == net  # parameter arrays bit-exact
        for _ in range(100):
            x = [rng.uniform(0, 1) for _ in range(10)]
            assert forward(loaded, x) == forward(net, x)
