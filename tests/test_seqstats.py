"""Composition statistics, the GC acceptance gate, and windowed GC."""

import random

import pytest

from mutascan.seqio import DnaSequence
from mutascan.seqstats import (
    AllAmbiguousError,
    PositionOutOfRangeError,
    composition,
    gc_gate,
    windowed_gc,
)

from oracles import count_composition, gc_percent, random_bases, window_gc_fraction


def _seq(bases):
    return DnaSequence("s", "", bases)


def test_counts_and_percentages():
    stats = composition(_seq("ACGTACGTAA"))
    assert (stats.count_a, stats.count_c, stats.count_g, stats.count_t) == (4, 2, 2, 2)
    assert stats.count_n == 0
    assert stats.length == 10
    assert stats.gc_percent == 40.0
    assert stats.at_percent == 60.0


def test_n_excluded_from_both_sides():
    stats = composition(_seq("ACGTNN"))
    assert stats.count_n == 2
    assert stats.length == 6
    assert stats.gc_percent == 50.0
    assert stats.at_percent == 50.0


def test_all_ambiguous_rejected():
    with pytest.raises(AllAmbiguousError):
        composition(_seq("NNNN"))


def test_composition_matches_counting_oracle():
    rng = random.Random(11)
    for _ in range(200):
        bases = random_bases(rng, rng.randint(1, 500), "ACGTN")
        if bases.count("N") == len(bases):
            continue
        stats = composition(_seq(bases))
        want = count_composition(bases)
        assert (stats.count_a, stats.count_c, stats.count_g, stats.count_t, stats.count_n) == (
            want["A"],
            want["C"],
            want["G"],
            want["T"],
            want["N"],
        )
        assert stats.gc_percent == gc_percent(bases)
        assert abs(stats.gc_percent + stats.at_percent - 100.0) < 1e-9


def _gc_exact(gc_count, total):
    # deterministic layout; only the counts matter to the statistics
    return "G" * gc_count + "A" * (total - gc_count)


def test_gate_boundaries_inclusive():
    accepted_36 = gc_gate(composition(_seq(_gc_exact(36, 100))))
    accepted_40 = gc_gate(composition(_seq(_gc_exact(40, 100))))
    rejected_41 = gc_gate(composition(_seq(_gc_exact(41, 100))))
    rejected_35 = gc_gate(composition(_seq(_gc_exact(35, 100))))
    assert accepted_36.accepted and accepted_40.accepted
    assert not rejected_41.accepted and not rejected_35.accepted
    assert gc_gate(composition(_seq(_gc_exact(19, 50)))).accepted  # exactly 38.0


def test_gate_verdict_carries_measurement():
    verdict = gc_gate(composition(_seq(_gc_exact(47, 100))))
    assert verdict.measured_gc == 47.0
    assert verdict.target == 38.0
    assert verdict.tolerance == 2.0
    assert not verdict.accepted


def test_gene_band_flag():
    assert gc_gate(composition(_seq(_gc_exact(45, 100)))).gene_band_flag
    assert gc_gate(composition(_seq(_gc_exact(47, 100)))).gene_band_flag
    assert gc_gate(composition(_seq(_gc_exact(50, 100)))).gene_band_flag
    assert not gc_gate(composition(_seq(_gc_exact(44, 100)))).gene_band_flag
    assert not gc_gate(composition(_seq(_gc_exact(51, 100)))).gene_band_flag
    assert not gc_gate(composition(_seq(_gc_exact(38, 100)))).gene_band_flag


def test_gate_parameters_override():
    stats = composition(_seq(_gc_exact(43, 100)))
    assert not gc_gate(stats).accepted
    wide = gc_gate(stats, target=38.0, tolerance=5.0)
    assert wide.accepted
    assert wide.tolerance == 5.0


def test_windowed_gc_rejects_bad_center():
    seq = _seq("ACGT")
    with pytest.raises(PositionOutOfRangeError):
        windowed_gc(seq, 0)
    with pytest.raises(PositionOutOfRangeError):
        windowed_gc(seq, 5)


def test_windowed_gc_basic_cases():
    seq = _seq("A" * 10 + "G" * 21 + "A" * 10)  # G at positions 11..31
    # the window is 21 bases centred on the position
    assert windowed_gc(seq, 21) == 1.0
    assert windowed_gc(seq, 11) == pytest.approx(11 / 21)
    assert windowed_gc(seq, 31) == pytest.approx(11 / 21)
    # clipped at the left edge: position 1 sees bases 1..11
    assert windowed_gc(seq, 1) == pytest.approx(1 / 11)
    # clipped at the right edge: position 41 sees bases 31..41
    assert windowed_gc(seq, 41) == pytest.approx(1 / 11)


def test_windowed_gc_all_n_window_is_neutral():
    assert windowed_gc(_seq("A" * 10 + "N" * 21 + "G" * 10), 21) == 0.5
    assert windowed_gc(_seq("NNNNN"), 3) == 0.5
    # N inside a mixed window is excluded, not counted as AT
    assert windowed_gc(_seq("GNA"), 2) == 0.5


def test_windowed_gc_matches_oracle():
    rng = random.Random(12)
    for _ in range(100):
        bases = random_bases(rng, rng.randint(1, 80), "ACGTN")
        seq = _seq(bases)
        for center in range(1, len(bases) + 1):  # every center, those near either end too
            assert windowed_gc(seq, center) == pytest.approx(
                window_gc_fraction(bases, center, 21)
            )
