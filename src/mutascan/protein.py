"""Standard-genetic-code translation and protein-effect classification."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .align import Mutation, MutationKind
from .errors import PositionOutOfRangeError
from .seqio import DnaSequence

STOP = "*"
UNKNOWN_AA = "X"

CODON_TABLE = {
    "TTT": "F", "TTC": "F", "TTA": "L", "TTG": "L",
    "CTT": "L", "CTC": "L", "CTA": "L", "CTG": "L",
    "ATT": "I", "ATC": "I", "ATA": "I", "ATG": "M",
    "GTT": "V", "GTC": "V", "GTA": "V", "GTG": "V",
    "TCT": "S", "TCC": "S", "TCA": "S", "TCG": "S",
    "CCT": "P", "CCC": "P", "CCA": "P", "CCG": "P",
    "ACT": "T", "ACC": "T", "ACA": "T", "ACG": "T",
    "GCT": "A", "GCC": "A", "GCA": "A", "GCG": "A",
    "TAT": "Y", "TAC": "Y", "TAA": STOP, "TAG": STOP,
    "CAT": "H", "CAC": "H", "CAA": "Q", "CAG": "Q",
    "AAT": "N", "AAC": "N", "AAA": "K", "AAG": "K",
    "GAT": "D", "GAC": "D", "GAA": "E", "GAG": "E",
    "TGT": "C", "TGC": "C", "TGA": STOP, "TGG": "W",
    "CGT": "R", "CGC": "R", "CGA": "R", "CGG": "R",
    "AGT": "S", "AGC": "S", "AGA": "R", "AGG": "R",
    "GGT": "G", "GGC": "G", "GGA": "G", "GGG": "G",
}


class EffectKind(Enum):
    SILENT = "Silent"
    MISSENSE = "Missense"
    NONSENSE = "Nonsense"
    FRAMESHIFT = "Frameshift"
    NON_CODING = "NonCoding"


@dataclass(frozen=True)
class ProteinEffect:
    """Protein-level consequence of one mutation.

    ref_aa/alt_aa are set for Missense; ref_aa alone for Nonsense. In-frame
    indels are reported as Missense with both letters unset.
    """

    kind: EffectKind
    ref_aa: str | None = None
    alt_aa: str | None = None

    def describe(self) -> str:
        if self.kind is EffectKind.MISSENSE and self.ref_aa:
            return f"Missense({self.ref_aa}->{self.alt_aa})"
        if self.kind is EffectKind.NONSENSE and self.ref_aa:
            return f"Nonsense({self.ref_aa}->{STOP})"
        return self.kind.value


def translate_codon(codon: str) -> str:
    if "N" in codon:
        return UNKNOWN_AA
    return CODON_TABLE[codon]


def translate(bases: str, frame: int = 0) -> str:
    """Translate every complete codon starting at offset `frame` (0, 1, or 2).

    Stop codons render as '*' and do not terminate translation, so the full
    frame stays comparable downstream. The trailing partial codon is ignored.
    """
    if frame not in (0, 1, 2):
        raise ValueError(f"frame must be 0, 1 or 2, got {frame}")
    out = []
    for i in range(frame, len(bases) - 2, 3):
        out.append(translate_codon(bases[i : i + 3]))
    return "".join(out)


def classify_effect(
    mut: Mutation, ref: DnaSequence, cds_start: int, cds_end: int
) -> ProteinEffect:
    """Classify a mutation's protein effect against a single contiguous CDS.

    A substitution or deletion is coding when its reference span meets
    [cds_start, cds_end]; an insertion after base p when cds_start <= p <
    cds_end. Anything else is NonCoding. Indels are Frameshift unless their
    length is a multiple of 3 (then Missense with amino acids unset).
    Substitutions compare reference codons against mutated codons: unchanged
    protein is Silent, a new stop is Nonsense, anything else Missense. A
    substitution is judged over the complete CDS codons its in-CDS bases touch.
    """
    if not 1 <= cds_start <= cds_end <= len(ref.bases):
        raise ValueError(
            f"invalid CDS [{cds_start}, {cds_end}] for length {len(ref.bases)}"
        )
    pos = mut.position
    max_pos = len(ref.bases)
    if pos < 0 or pos > max_pos or (mut.kind is not MutationKind.INSERTION and pos < 1):
        raise PositionOutOfRangeError(
            f"mutation position {pos} outside reference of length {max_pos}"
        )

    if mut.kind is MutationKind.INSERTION:
        coding = cds_start <= pos < cds_end
    else:
        coding = pos <= cds_end and pos + len(mut.ref_bases) > cds_start
    if not coding:
        return ProteinEffect(EffectKind.NON_CODING)

    if mut.kind in (MutationKind.INSERTION, MutationKind.DELETION):
        indel_len = len(mut.alt_bases) if mut.kind is MutationKind.INSERTION else len(mut.ref_bases)
        if indel_len % 3 != 0:
            return ProteinEffect(EffectKind.FRAMESHIFT)
        return ProteinEffect(EffectKind.MISSENSE)  # in-frame indel, AAs unset

    cds = ref.bases[cds_start - 1 : cds_end]
    offset = pos - cds_start  # negative when the substitution starts before the CDS
    lo, hi = max(offset, 0), min(offset + len(mut.alt_bases), len(cds))  # its bases in the CDS
    mutated = cds[:lo] + mut.alt_bases[lo - offset : hi - offset] + cds[hi:]

    first_codon = lo // 3
    last_codon = min((hi - 1) // 3, len(cds) // 3 - 1)
    ref_aa = translate(cds[first_codon * 3 : (last_codon + 1) * 3])
    alt_aa = translate(mutated[first_codon * 3 : (last_codon + 1) * 3])

    if ref_aa == alt_aa:
        return ProteinEffect(EffectKind.SILENT)
    for r, a in zip(ref_aa, alt_aa):
        if r != a and a == STOP:
            return ProteinEffect(EffectKind.NONSENSE, ref_aa=r)
    # the translations have one length and differ, so a changed amino acid exists
    r, a = next((r, a) for r, a in zip(ref_aa, alt_aa) if r != a)
    return ProteinEffect(EffectKind.MISSENSE, ref_aa=r, alt_aa=a)


def is_malignant_candidate(effect: ProteinEffect) -> bool:
    """Candidates forwarded to the classifier: any protein-altering effect."""
    return effect.kind not in (EffectKind.SILENT, EffectKind.NON_CODING)
