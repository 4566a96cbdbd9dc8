"""Codon translation and protein-effect classification."""

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mutascan.align import Mutation, MutationKind
from mutascan.protein import (
    CODON_TABLE,
    STOP,
    EffectKind,
    PositionOutOfRangeError,
    classify_effect,
    is_malignant_candidate,
    translate,
    translate_codon,
)
from mutascan.seqio import DnaSequence

from oracles import codon_to_aa, random_bases, translate_dna


def _seq(bases):
    return DnaSequence("ref", "", bases)


def _sub(pos, ref, alt):
    return Mutation(pos, MutationKind.SUBSTITUTION, ref, alt)


def test_table_covers_all_64_codons_and_matches_oracle():
    codons = ["".join(c) for c in itertools.product("ACGT", repeat=3)]
    assert sorted(CODON_TABLE) == sorted(codons)
    for codon in codons:
        assert CODON_TABLE[codon] == codon_to_aa(codon)


def test_exactly_three_stop_codons():
    stops = {c for c, aa in CODON_TABLE.items() if aa == STOP}
    assert stops == {"TAA", "TAG", "TGA"}
    assert CODON_TABLE["ATG"] == "M"


def test_ambiguous_codon_translates_to_x():
    assert translate_codon("ANG") == "X"
    assert translate_codon("NNN") == "X"


def test_translate_basic():
    assert translate("ATGAAATAG") == "MK*"


def test_translate_frames_and_partial_codons():
    assert translate("ATGA") == "M"
    assert translate("AATGAAA", frame=1) == "MK"  # ATG AAA
    assert translate("AAATGA", frame=2) == "M"
    with pytest.raises(ValueError):
        translate("ATG", frame=3)


def test_translate_does_not_stop_at_stop_codons():
    assert translate("TAAATG") == "*M"


def test_translate_matches_oracle():
    rng = random.Random(21)
    for _ in range(100):
        bases = random_bases(rng, rng.randint(0, 90), "ACGTN")
        frame = rng.choice([0, 1, 2])
        assert translate(bases, frame) == translate_dna(bases, frame)


def test_silent_substitution():
    # CGA and CGG both encode Arg
    ref = _seq("ATGCGATTT")
    eff = classify_effect(_sub(6, "A", "G"), ref, 1, 9)
    assert eff.kind is EffectKind.SILENT
    assert eff.describe() == "Silent"
    assert not is_malignant_candidate(eff)


def test_missense_substitution():
    # GAT (Asp) -> AAT (Asn)
    ref = _seq("ATGGATTTT")
    eff = classify_effect(_sub(4, "G", "A"), ref, 1, 9)
    assert eff.kind is EffectKind.MISSENSE
    assert (eff.ref_aa, eff.alt_aa) == ("D", "N")
    assert eff.describe() == "Missense(D->N)"
    assert is_malignant_candidate(eff)


def test_nonsense_substitution():
    # CAA (Gln) -> TAA (stop)
    ref = _seq("ATGCAAGGG")
    eff = classify_effect(_sub(4, "C", "T"), ref, 1, 9)
    assert eff.kind is EffectKind.NONSENSE
    assert eff.ref_aa == "Q"
    assert eff.describe() == "Nonsense(Q->*)"
    assert is_malignant_candidate(eff)


def test_frameshift_indels():
    ref = _seq("ATGCAAGGG")
    ins = Mutation(4, MutationKind.INSERTION, "", "A")
    dele = Mutation(4, MutationKind.DELETION, "CA", "")
    assert classify_effect(ins, ref, 1, 9).kind is EffectKind.FRAMESHIFT
    assert classify_effect(dele, ref, 1, 9).kind is EffectKind.FRAMESHIFT
    assert is_malignant_candidate(classify_effect(ins, ref, 1, 9))


def test_in_frame_indel_is_missense_without_amino_acids():
    ref = _seq("ATGCAAGGG")
    dele = Mutation(4, MutationKind.DELETION, "CAA", "")
    eff = classify_effect(dele, ref, 1, 9)
    assert eff.kind is EffectKind.MISSENSE
    assert eff.ref_aa is None and eff.alt_aa is None
    assert eff.describe() == "Missense"


def test_frameshift_iff_length_not_multiple_of_three():
    rng = random.Random(22)
    ref = _seq(random_bases(rng, 60))
    for length in range(1, 7):
        ins = Mutation(10, MutationKind.INSERTION, "", "A" * length)
        kind = classify_effect(ins, ref, 1, 60).kind
        if length % 3 == 0:
            assert kind is EffectKind.MISSENSE
        else:
            assert kind is EffectKind.FRAMESHIFT


def test_non_coding_positions():
    ref = _seq("TTATGCAAGGGTT")
    eff = classify_effect(_sub(1, "T", "A"), ref, 3, 11)
    assert eff.kind is EffectKind.NON_CODING
    assert classify_effect(_sub(12, "T", "A"), ref, 3, 11).kind is EffectKind.NON_CODING
    assert not is_malignant_candidate(eff)


def test_insertion_before_first_base_is_non_coding():
    ref = _seq("ATGCAAGGG")
    ins = Mutation(0, MutationKind.INSERTION, "", "T")
    assert classify_effect(ins, ref, 1, 9).kind is EffectKind.NON_CODING


# ATG at 13-15, TAA at 28-30
EDGE_REF = "ACGT" * 3 + "ATGAAACCCGGGTTTTAA" + "ACGT" * 3


@pytest.mark.parametrize(
    "mut,want",
    [
        (_sub(12, "TA", "GT"), "Missense(M->L)"),  # ATG -> TTG
        (Mutation(12, MutationKind.DELETION, "TA", ""), "Frameshift"),
        (Mutation(30, MutationKind.INSERTION, "", "A"), "NonCoding"),  # after the stop's last base
        (Mutation(12, MutationKind.INSERTION, "", "A"), "NonCoding"),  # before the ATG
        (Mutation(29, MutationKind.INSERTION, "", "A"), "Frameshift"),
        (_sub(30, "AA", "GG"), "Silent"),  # TAA -> TAG
        (_sub(11, "GT", "AC"), "NonCoding"),
    ],
    ids=lambda v: v.describe() if isinstance(v, Mutation) else v,
)
def test_variants_at_the_cds_edges(mut, want):
    assert classify_effect(mut, _seq(EDGE_REF), 13, 30).describe() == want


@st.composite
def _variant_and_cds(draw):
    n = draw(st.integers(1, 30))
    bases = draw(st.text("ACGT", min_size=n, max_size=n))
    cds_start = draw(st.integers(1, n))
    cds_end = draw(st.integers(cds_start, n))
    kind = draw(st.sampled_from(MutationKind))
    if kind is MutationKind.INSERTION:
        mut = Mutation(draw(st.integers(0, n)), kind, "", draw(st.text("ACGT", min_size=1)))
    else:
        pos = draw(st.integers(1, n))
        ref = bases[pos - 1 : pos - 1 + draw(st.integers(1, n - pos + 1))]
        alt = "" if kind is MutationKind.DELETION else draw(
            st.text("ACGT", min_size=len(ref), max_size=len(ref))
        )
        mut = Mutation(pos, kind, ref, alt)
    return _seq(bases), cds_start, cds_end, mut


@given(case=_variant_and_cds())
def test_non_coding_iff_the_variant_misses_the_cds(case):
    ref, cds_start, cds_end, mut = case
    if mut.kind is MutationKind.INSERTION:
        misses = not cds_start <= mut.position < cds_end
    else:
        last = mut.position + len(mut.ref_bases) - 1
        misses = last < cds_start or mut.position > cds_end
    kind = classify_effect(mut, ref, cds_start, cds_end).kind
    assert (kind is EffectKind.NON_CODING) == misses


def test_position_and_cds_validation():
    ref = _seq("ATGCAAGGG")
    with pytest.raises(PositionOutOfRangeError):
        classify_effect(_sub(10, "A", "C"), ref, 1, 9)
    with pytest.raises(PositionOutOfRangeError):
        classify_effect(_sub(0, "A", "C"), ref, 1, 9)
    with pytest.raises(ValueError):
        classify_effect(_sub(1, "A", "C"), ref, 0, 9)
    with pytest.raises(ValueError):
        classify_effect(_sub(1, "A", "C"), ref, 5, 4)
    with pytest.raises(ValueError):
        classify_effect(_sub(1, "A", "C"), ref, 1, 10)


def test_substitution_spanning_two_codons():
    # AAA|AAA -> AAG|GAA: first codon stays Lys, second becomes Glu
    ref = _seq("AAAAAA")
    eff = classify_effect(_sub(3, "AA", "GG"), ref, 1, 6)
    assert eff.kind is EffectKind.MISSENSE
    assert (eff.ref_aa, eff.alt_aa) == ("K", "E")


def test_stop_gain_wins_over_missense_in_multi_codon_substitution():
    # AAA|CAA -> AAC|TAA: codon 1 is missense, codon 2 gains a stop
    ref = _seq("AAACAA")
    eff = classify_effect(_sub(3, "AC", "CT"), ref, 1, 6)
    assert eff.kind is EffectKind.NONSENSE
    assert eff.ref_aa == "Q"


def test_substitution_past_cds_end_judged_on_cds_codons_only():
    ref = _seq("AAATTTGGGGGG")
    eff = classify_effect(_sub(5, "TTGG", "CCCC"), ref, 1, 6)
    assert eff.kind is EffectKind.MISSENSE
    assert (eff.ref_aa, eff.alt_aa) == ("F", "S")


def test_silent_substitutions_preserve_full_frame():
    rng = random.Random(23)
    checked = 0
    while checked < 200:
        cds_len = 3 * rng.randint(5, 40)
        bases = random_bases(rng, cds_len)
        codon_idx = rng.randrange(cds_len // 3)
        codon = bases[codon_idx * 3 : codon_idx * 3 + 3]
        options = []
        for off in range(3):
            for alt in "ACGT".replace(codon[off], ""):
                cand = codon[:off] + alt + codon[off + 1 :]
                if CODON_TABLE[cand] == CODON_TABLE[codon]:
                    options.append((off, alt))
        if not options:
            continue
        off, alt = rng.choice(options)
        pos = codon_idx * 3 + off + 1
        ref = _seq(bases)
        eff = classify_effect(_sub(pos, bases[pos - 1], alt), ref, 1, cds_len)
        assert eff.kind is EffectKind.SILENT
        mutated = bases[: pos - 1] + alt + bases[pos:]
        assert translate_dna(mutated) == translate_dna(bases)
        checked += 1
