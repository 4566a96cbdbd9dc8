"""Base composition, GC%/AT%, and the 38%-GC reference-acceptance gate."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MutascanError, PositionOutOfRangeError
from .seqio import DnaSequence

GC_GATE_TARGET = 38.0
GC_GATE_TOLERANCE = 2.0

# Genes cluster in this GC band even though the genome-wide figure sits near 38%.
GENE_BAND_LOW = 45.0
GENE_BAND_HIGH = 50.0

GC_WINDOW = 21


class SeqstatsError(MutascanError):
    pass


class AllAmbiguousError(SeqstatsError):
    """Sequence is entirely N; GC%/AT% are undefined."""


@dataclass(frozen=True)
class CompositionStats:
    """Exact base counts plus GC%/AT% over the unambiguous bases.

    N is excluded from both percentage numerators and the denominator, so
    gc_percent + at_percent == 100 holds for every sequence with at least
    one unambiguous base.
    """

    count_a: int
    count_c: int
    count_g: int
    count_t: int
    count_n: int
    length: int
    gc_percent: float
    at_percent: float


@dataclass(frozen=True)
class GateVerdict:
    """Outcome of the GC acceptance gate for one candidate reference."""

    accepted: bool
    measured_gc: float
    target: float
    tolerance: float
    gene_band_flag: bool


def composition(seq: DnaSequence) -> CompositionStats:
    """Count bases and compute GC%/AT% for one record.

    Raises AllAmbiguousError when the sequence consists solely of N.
    """
    a = seq.bases.count("A")
    c = seq.bases.count("C")
    g = seq.bases.count("G")
    t = seq.bases.count("T")
    n = seq.bases.count("N")
    denom = a + c + g + t
    if denom == 0:
        raise AllAmbiguousError(
            f"record {seq.id!r} is all-N; composition percentages undefined"
        )
    return CompositionStats(
        count_a=a,
        count_c=c,
        count_g=g,
        count_t=t,
        count_n=n,
        length=len(seq.bases),
        gc_percent=100.0 * (g + c) / denom,
        at_percent=100.0 * (a + t) / denom,
    )


def gc_gate(
    stats: CompositionStats,
    target: float = GC_GATE_TARGET,
    tolerance: float = GC_GATE_TOLERANCE,
) -> GateVerdict:
    """Accept a candidate reference iff |GC% - target| <= tolerance (inclusive).

    gene_band_flag marks sequences whose GC% falls in the 45-50% band
    typical of genes, regardless of acceptance.
    """
    gc = stats.gc_percent
    return GateVerdict(
        accepted=abs(gc - target) <= tolerance,
        measured_gc=gc,
        target=target,
        tolerance=tolerance,
        gene_band_flag=GENE_BAND_LOW <= gc <= GENE_BAND_HIGH,
    )


def windowed_gc(seq: DnaSequence, center: int) -> float:
    """GC fraction in the `GC_WINDOW` bases centred on a 1-based position,
    clipped to the sequence.

    N is excluded from numerator and denominator; an all-N window returns
    the neutral value 0.5.
    """
    if not 1 <= center <= len(seq.bases):
        raise PositionOutOfRangeError(
            f"center {center} outside [1, {len(seq.bases)}] for record {seq.id!r}"
        )
    half = GC_WINDOW // 2
    lo = max(0, center - 1 - half)
    hi = min(len(seq.bases), center + half)
    chunk = seq.bases[lo:hi]
    denom = len(chunk) - chunk.count("N")
    if denom == 0:
        return 0.5
    return (chunk.count("G") + chunk.count("C")) / denom
