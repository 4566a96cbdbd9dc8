"""Spans and counts recorded from outside the program.

`Tracer.install` rebinds the public functions that `mutascan.pipeline`
calls, in the pipeline module's own namespace, so that each call records a
span: its module-qualified function name, start, end, parent span and
diagnosis id. The same wrappers note the sizes each call worked on. Spans
stay in memory until `write_jsonl` at the end of the run; counts that need
more than a length (seed diagonals of a search) are derived at the end from
the recorded inputs, so the wrappers cost the diagnosis almost nothing.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from workloads import BAND_RADIUS, kmer_table, seed_diagonals

# names looked up in mutascan.pipeline at call time -> metric stem
TRACED = {
    "run_diagnosis": "pipeline.diagnosis",
    "load_manifest": "pipeline.load_manifest",
    "adopt_reference": "pipeline.adopt_reference",
    "render_report": "pipeline.render_report",
    "read_fasta_path": "seqio.read",
    "write_fasta_path": "seqio.write",
    "build_index": "homology.build_index",
    "search": "homology.search",
    "composition": "seqstats.composition",
    "global_align": "align.global_align",
    "call_mutations": "align.call_mutations",
    "classify_effect": "protein.classify_effect",
    "encode": "neural.encode",
    "classify": "neural.classify",
    "load_net": "neural.load_net",
}
LAYERS = ("seqio", "seqstats", "homology", "align", "protein", "neural", "pipeline")


class Tracer:
    def __init__(self) -> None:
        # [name, metric stem, start, end, parent index, diagnosis id]
        self.spans: list[list] = []
        self.diagnosis = None  # id stamped on new spans; None during set-up
        self.counts: dict = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []
        self._searches: list[tuple] = []  # (diagnosis, query bases, subjects)
        self._subjects_of_index: dict[int, tuple[str, ...]] = {}

    def _open(self, name: str, stem: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, stem, 0.0, 0.0, parent, self.diagnosis])
        self._stack.append(index)
        self.spans[index][2] = time.perf_counter()
        return index

    def _close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, stem: str):
        index = self._open(name, stem)
        try:
            yield
        finally:
            self._close(index)

    def count(self, name: str, n) -> None:
        self.counts[self.diagnosis][name] += n

    def install(self, pipeline_module):
        """Wrap the traced names in `pipeline_module`; returns an undo function."""
        originals = {attr: getattr(pipeline_module, attr) for attr in TRACED}
        for attr, fn in originals.items():
            name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
            setattr(pipeline_module, attr, self._wrap(fn, name, TRACED[attr]))

        def undo():
            for attr, fn in originals.items():
                setattr(pipeline_module, attr, fn)

        return undo

    def _wrap(self, fn, name: str, stem: str):
        note = getattr(self, "_note_" + fn.__name__, None)

        def traced(*args, **kwargs):
            index = self._open(name, stem)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if note is not None:
                note(result, *args, **kwargs)
            return result

        return traced

    # size notes, one per traced function that has a count

    def _note_read_fasta_path(self, result, path, *args, **kwargs):
        self.count("seqio.read_bytes", os.path.getsize(path))

    def _note_build_index(self, index, db, *args, **kwargs):
        subjects = tuple(r.bases for r in db)
        self._subjects_of_index[id(index)] = subjects
        self.count("homology.build_index_calls", 1)
        self.count("homology.indexed_bases", sum(len(s) for s in subjects))

    def _note_search(self, hits, query, index, *args, **kwargs):
        subjects = self._subjects_of_index[id(index)]
        self._searches.append((self.diagnosis, query.bases, subjects))
        self.count("homology.search_calls", 1)
        self.count("homology.hits", len(hits))

    def _note_global_align(self, result, a, b, *args, **kwargs):
        m, n = len(a.bases), len(b.bases)
        self.count("align.dp_cells", m * n)
        self.counts[self.diagnosis]["align.matrix_bytes"] = max(
            self.counts[self.diagnosis]["align.matrix_bytes"], 3 * (m + 1) * (n + 1) * 4
        )

    def _note_run_diagnosis(self, report, *args, **kwargs):
        self.count("pipeline.databases_consulted", len(report.rejected) + 1)
        self.count("protein.candidates", len(report.malignant_candidates))

    def finish_counts(self) -> None:
        """Derive seed-diagonal counts for every recorded search."""
        tables: dict[tuple[str, ...], dict[str, list[tuple[int, int]]]] = {}
        for diagnosis, query, subjects in self._searches:
            if subjects not in tables:
                tables[subjects] = kmer_table(subjects)
            groups = seed_diagonals(query, tables[subjects])
            # rows of the band around diagonal d that lie inside the DP matrix
            rows = 0
            m = len(query)
            for si, d in groups:
                lo = max(1, 1 + d - BAND_RADIUS)
                hi = min(m, len(subjects[si]) + d + BAND_RADIUS)
                rows += max(0, hi - lo + 1)
            self.counts[diagnosis]["homology.diagonal_groups"] += len(groups)
            self.counts[diagnosis]["homology.band_cells"] += rows * (2 * BAND_RADIUS + 1)
        self._searches.clear()

    def retime(self, clock) -> None:
        """Move every span's start and end through `clock`, a map of perf_counter readings."""
        for span in self.spans:
            span[2], span[3] = clock(span[2]), clock(span[3])

    def layer_times(self, diagnoses) -> dict[str, float]:
        """Total busy and self seconds per layer and per traced function.

        Only spans stamped with one of `diagnoses` count. A layer's busy time
        is the time any of its spans is open; its self time excludes the
        time covered by child spans.
        """
        wanted = set(diagnoses)
        child_time = defaultdict(float)
        for name, stem, start, end, parent, diag in self.spans:
            if parent is not None and diag in wanted:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, stem, start, end, parent, diag) in enumerate(self.spans):
            if diag not in wanted:
                continue
            layer = stem.split(".", 1)[0]
            duration = end - start
            out[stem + "_s"] += duration
            out[layer + ".self_s"] += duration - child_time[i]
            if parent is None or self.spans[parent][1].split(".", 1)[0] != layer:
                out[layer + ".busy_s"] += duration
        return out

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][2] if self.spans else 0.0
        with path.open("w", encoding="utf-8") as fh:
            for i, (name, stem, start, end, parent, diag) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "start_s": start - t0,
                            "end_s": end - t0,
                            "parent": parent,
                            "diagnosis": diag,
                        }
                    )
                    + "\n"
                )
