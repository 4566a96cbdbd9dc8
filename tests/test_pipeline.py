"""End-to-end diagnosis pipeline and manifests."""

import dataclasses
import hashlib
import inspect
import json
import os
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mutascan import pipeline
from mutascan.align import MutationKind, Scoring, global_align
from mutascan.errors import MutascanError
from mutascan.homology import _build_index, search
from mutascan.neural import (
    CorruptFileError,
    Label,
    NetworkTopology,
    NeuralError,
    TrainConfig,
    classify,
    load_training_rows,
    rows_to_samples,
    save_net,
    train,
)
from mutascan.pipeline import (
    DatabaseEntry,
    DatabaseManifest,
    IoFailureError,
    ManifestError,
    MissingModelAndTrainingDataError,
    MultiRecordPatientFileError,
    NoDatabaseAcceptedError,
    adopt_reference,
    load_manifest,
    render_report,
    report_to_dict,
    run_diagnosis,
)
from mutascan.protein import EffectKind
from mutascan.seqio import (
    DnaSequence,
    FastaFile,
    parse_fasta,
    write_fasta,
    write_fasta_path,
    write_texts_atomic,
)
from mutascan.seqstats import composition, gc_gate, windowed_gc

from conftest import FAST_TRAIN
from oracles import json_values, plausible_or_any


def _read(path):
    return parse_fasta(path.read_text(encoding="utf-8"))


def _edited_manifest(corpus, tmp_path, edit):
    """The seed-42 manifest with its databases named by absolute path, changed
    by `edit(doc)` and written to tmp_path."""
    doc = json.loads(corpus["manifest"].read_text(encoding="utf-8"))
    for entry in doc["databases"]:
        entry["fasta"] = str(corpus["manifest"].parent / entry["fasta"])
    edit(doc)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _drop_training_data(doc):
    del doc["training_data"]


# --- manifest loading -------------------------------------------------------


def test_load_manifest_resolves_relative_paths(corpus):
    m = load_manifest(corpus["manifest"])
    assert [d.name for d in m.databases] == ["ncbi", "ebi", "ensembl"]
    for entry in m.databases:
        assert entry.fasta_path.is_absolute()
        assert entry.fasta_path.exists()
    assert m.databases[0].cds == {"BRCA1_ref": (101, 1000)}
    assert m.training_data_path == corpus["training_data"]
    assert m.model_path is None


def test_load_manifest_errors(tmp_path):
    with pytest.raises(ManifestError):
        load_manifest(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    for text in ("{oops", "[1" + "0" * 5000 + "]"):
        bad.write_text(text, encoding="utf-8")
        with pytest.raises(ManifestError):
            load_manifest(bad)
    bad.write_text(json.dumps({"databases": []}), encoding="utf-8")
    with pytest.raises(ManifestError):
        load_manifest(bad)
    bad.write_text(
        json.dumps({"databases": [{"name": "x", "fasta": "nope.fasta", "cds": {}}]}),
        encoding="utf-8",
    )
    with pytest.raises(ManifestError):
        load_manifest(bad)


def test_load_manifest_rejects_non_utf8(tmp_path):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"databases": [{"name": "caf\xe9", "fasta": "x.fasta"}]}')
    with pytest.raises(ManifestError) as exc:
        load_manifest(bad)
    assert str(bad) in str(exc.value) and "not UTF-8" in str(exc.value)


def test_load_manifest_rejects_bad_cds(tmp_path):
    fasta = tmp_path / "db.fasta"
    fasta.write_text(">r\nACGTACGTACGTACGT\n", encoding="utf-8")
    doc = {"databases": [{"name": "x", "fasta": "db.fasta", "cds": {"r": [5, 4]}}]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ManifestError):
        load_manifest(path)
    doc["databases"][0]["cds"] = {"r": [0, 4]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ManifestError):
        load_manifest(path)


def test_load_manifest_rejects_mistyped_fields(tmp_path):
    (tmp_path / "db.fasta").write_text(">r\nACGTACGTACGTACGT\n", encoding="utf-8")
    good = {"name": "x", "fasta": "db.fasta"}
    path = tmp_path / "m.json"
    for doc in (
        {"databases": [{"name": "x", "fasta": 5}]},
        {"databases": [{"name": "x", "fasta": "db.fasta\u0000"}]},
        {"databases": [good], "training_data": 7},
        {"databases": [good], "model": ["m.json"]},
        {"databases": [{**good, "cds": [1, 2]}]},
        *({"databases": [{**good, "cds": cds}]} for cds in ([], 0, False, "", None)),
        {"databases": [{**good, "cds": {"r": [True, True]}}]},
    ):
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ManifestError):
            load_manifest(path)


@pytest.mark.parametrize("key", ["training_data", "model"])
def test_load_manifest_refuses_an_empty_path(tmp_path, key):
    """An empty path is an error, as an empty 'fasta' path is, and never "no file"."""
    (tmp_path / "db.fasta").write_text(">r\nACGTACGTACGTACGT\n", encoding="utf-8")
    path = tmp_path / "m.json"
    doc = {"databases": [{"name": "x", "fasta": "db.fasta"}], key: ""}
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ManifestError, match=f"'{key}' must be a non-empty path"):
        load_manifest(path)


@pytest.mark.parametrize("name", [None, 5, 1.5, True, ["a"], {"a": 1}, ""])
def test_load_manifest_refuses_a_name_that_is_not_a_non_empty_string(tmp_path, name):
    """The name is printed in both reports and in NoDatabaseAcceptedError as written:
    str() would make null the database "None" and ["a"] the database "['a']"."""
    (tmp_path / "db.fasta").write_text(">r\nACGTACGTACGTACGT\n", encoding="utf-8")
    path = tmp_path / "m.json"
    doc = {"databases": [{"name": "x", "fasta": "db.fasta"}, {"name": name, "fasta": "db.fasta"}]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ManifestError, match="^database entry 1 needs a non-empty 'name' string"):
        load_manifest(path)


@pytest.mark.parametrize("name", ["nc\nbi", "a\rb", "a\x00b"], ids=["line feed", "return", "nul"])
def test_load_manifest_refuses_a_name_that_is_not_printable(tmp_path, name):
    """`report.txt` writes each database's name on its own line."""
    (tmp_path / "db.fasta").write_text(">r\nACGTACGTACGTACGT\n", encoding="utf-8")
    path = tmp_path / "m.json"
    doc = {"databases": [{"name": "x", "fasta": "db.fasta"}, {"name": name, "fasta": "db.fasta"}]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ManifestError, match="^database entry 1: name .* not printable"):
        load_manifest(path)


_MANIFEST_ENTRY = st.fixed_dictionaries(
    {},
    optional={
        "name": plausible_or_any("x"),
        "fasta": plausible_or_any("db.fasta", "missing.fasta", "", "x" * 300),
        "cds": plausible_or_any({}, {"r": [1, 8]})
        | st.dictionaries(st.sampled_from(["r", "q"]), plausible_or_any([1, 8], [2, 1])),
    },
)
_MANIFEST_DOC = json_values | st.fixed_dictionaries(
    {},
    optional={
        "databases": st.lists(_MANIFEST_ENTRY | json_values, max_size=3) | json_values,
        "training_data": plausible_or_any("t.jsonl"),
        "model": plausible_or_any("m.json"),
    },
)


@settings(max_examples=300, deadline=None)
@given(doc=_MANIFEST_DOC)
def test_any_json_manifest_loads_or_raises_a_mutascan_error(tmp_path_factory, doc):
    base = tmp_path_factory.getbasetemp() / "manifest-fuzz"
    base.mkdir(exist_ok=True)
    (base / "db.fasta").write_text(">r\nACGTACGTACGTACGT\n", encoding="utf-8")
    path = base / "m.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    try:
        manifest = load_manifest(path)
    except MutascanError:
        return
    assert all(e.fasta_path.is_file() for e in manifest.databases)
    assert all(type(e.name) is str and e.name and e.name.isprintable() for e in manifest.databases)


def test_deep_json_manifest_is_a_manifest_error(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    with pytest.raises(ManifestError):
        load_manifest(path)


# --- reference adoption -------------------------------------------------------


def test_first_database_adopted_when_gate_passes(corpus):
    m = load_manifest(corpus["manifest"])
    patient = _read(corpus["patient_clean"]).records[0]
    adopted, rejected = adopt_reference(patient, m)
    assert adopted.database_name == "ncbi"
    assert adopted.subject.id == "BRCA1_ref"
    assert adopted.verdict.accepted
    assert adopted.verdict.measured_gc == 38.0
    assert (adopted.cds_start, adopted.cds_end) == (101, 1000)
    assert rejected == []


def test_fallback_to_second_database(corpus):
    m = load_manifest(corpus["manifest_fallback"])
    patient = _read(corpus["patient_clean"]).records[0]
    adopted, rejected = adopt_reference(patient, m)
    assert adopted.database_name == "ncbi"
    assert len(rejected) == 1
    assert rejected[0].database_name == "ebi"
    assert rejected[0].verdict.measured_gc == 50.0
    assert rejected[0].verdict.gene_band_flag


def test_all_databases_rejected(corpus):
    m = load_manifest(corpus["manifest_fallback"])
    entries = tuple(d for d in m.databases if d.name in ("ebi", "ensembl"))
    strict = DatabaseManifest(entries, m.training_data_path, None)
    patient = _read(corpus["patient_clean"]).records[0]
    with pytest.raises(NoDatabaseAcceptedError) as exc:
        adopt_reference(patient, strict)
    assert "ebi" in str(exc.value) and "ensembl" in str(exc.value)


def test_database_without_hits_is_rejected_with_reason(tmp_path, corpus):
    unrelated = tmp_path / "unrelated.fasta"
    unrelated.write_text(">far\n" + "T" * 400 + "\n", encoding="utf-8")
    entry = DatabaseEntry("far", unrelated, {"far": (1, 300)})
    manifest = DatabaseManifest((entry,), None, None)
    patient = DnaSequence("p", "", "ACGT" * 40)
    with pytest.raises(NoDatabaseAcceptedError):
        adopt_reference(patient, manifest)
    m = load_manifest(corpus["manifest"])
    combined = DatabaseManifest((entry,) + m.databases, None, None)
    adopted, rejected = adopt_reference(
        _read(corpus["patient_clean"]).records[0], combined
    )
    assert adopted.database_name == "ncbi"
    assert rejected[0].database_name == "far"
    assert rejected[0].verdict is None
    assert "no hits" in rejected[0].reason


def test_adoption_requires_cds_annotation(corpus):
    m = load_manifest(corpus["manifest"])
    ncbi = m.databases[0]
    patient = _read(corpus["patient_clean"]).records[0]
    without_cds = DatabaseManifest(
        (DatabaseEntry(ncbi.name, ncbi.fasta_path, {}),), None, None
    )
    with pytest.raises(ManifestError):
        adopt_reference(patient, without_cds)
    oversized = DatabaseManifest(
        (DatabaseEntry(ncbi.name, ncbi.fasta_path, {"BRCA1_ref": (1, 2000)}),),
        None,
        None,
    )
    with pytest.raises(ManifestError):
        adopt_reference(patient, oversized)


# --- work directory -----------------------------------------------------------


def test_the_work_directory_is_an_argument_not_the_environment(
    corpus, trained_model, tmp_path, monkeypatch
):
    """The library defaults to ./mutascan-work; MUTASCAN_WORKDIR is the CLI's."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("MUTASCAN_WORKDIR", str(tmp_path / "from-env"))
    run_diagnosis(corpus["patient_clean"], corpus["manifest"], model_path=trained_model)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["mutascan-work"]
    assert (tmp_path / "mutascan-work" / "report.json").exists()


def test_an_empty_work_directory_is_refused_before_any_work(
    corpus, trained_model, tmp_path, monkeypatch
):
    """Path("") is ".", so an empty work directory would write into the working one."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(IoFailureError, match="cannot write work directory '': "):
        run_diagnosis(
            corpus["patient_mutated"], corpus["manifest"], model_path=trained_model, work_dir=""
        )
    with pytest.raises(IoFailureError, match="''"):  # refused before the inputs are read
        run_diagnosis(tmp_path / "missing.fasta", tmp_path / "missing.json", work_dir="")
    assert list(tmp_path.iterdir()) == []


# --- diagnosis ----------------------------------------------------------------


def test_clean_patient_is_normal(corpus, trained_model, tmp_path):
    report = run_diagnosis(
        corpus["patient_clean"],
        corpus["manifest"],
        model_path=trained_model,
        work_dir=tmp_path / "wd",
    )
    assert report.overall_label is Label.NORMAL
    assert report.mutations == ()
    assert report.malignant_candidates == ()
    assert report.classifications == ()
    assert report.alignment.score == 2 * 1200
    assert report.alignment.identity_percent == 100.0
    text = render_report(report, "text")
    assert "Diagnosis: Normal" in text
    assert "patient: patient_clean" in text


def test_mutated_patient_is_at_risk(corpus, trained_model, tmp_path):
    report = run_diagnosis(
        corpus["patient_mutated"],
        corpus["manifest"],
        model_path=trained_model,
        work_dir=tmp_path / "wd",
    )
    assert report.overall_label is Label.AT_RISK
    kinds = sorted((m.effect.kind for m in report.mutations), key=lambda k: k.value)
    assert kinds == [EffectKind.NONSENSE, EffectKind.SILENT]
    assert len(report.malignant_candidates) == 1
    assert report.malignant_candidates[0].effect.kind is EffectKind.NONSENSE
    assert len(report.classifications) == 1
    call = report.classifications[0]
    assert call.label is Label.AT_RISK
    assert call.score >= 0.5
    text = render_report(report, "text")
    assert "Diagnosis: highly risk of breast cancer" in text


def test_artifacts_written_to_workdir(corpus, trained_model, tmp_path):
    wd = tmp_path / "artifacts"
    run_diagnosis(
        corpus["patient_mutated"],
        corpus["manifest"],
        model_path=trained_model,
        work_dir=wd,
    )
    assert (wd / "report.txt").exists()
    assert (wd / "report.json").exists()
    combined = _read(wd / "combined.fasta")
    assert [r.id for r in combined] == ["BRCA1_ref", "patient_mutated"]
    doc = json.loads((wd / "report.json").read_text(encoding="utf-8"))
    assert doc["overall_label"] == "AtRisk"
    assert doc["display"] == "highly risk of breast cancer"


def test_failed_report_write_keeps_the_earlier_report(
    corpus, trained_model, tmp_path, monkeypatch
):
    wd = tmp_path / "artifacts"
    run_diagnosis(
        corpus["patient_mutated"], corpus["manifest"], model_path=trained_model, work_dir=wd
    )
    earlier = (wd / "report.json").read_bytes()

    def unwritable_render(report, fmt="text"):
        # a lone surrogate has no UTF-8 encoding, so writing the JSON report
        # fails after its file is opened
        return render_report(report, fmt) + ("\ud800" if fmt == "json" else "")

    monkeypatch.setattr(pipeline, "render_report", unwritable_render)
    with pytest.raises(UnicodeEncodeError):
        run_diagnosis(
            corpus["patient_clean"], corpus["manifest"], model_path=trained_model, work_dir=wd
        )
    assert (wd / "report.json").read_bytes() == earlier
    assert sorted(p.name for p in wd.iterdir()) == [
        "combined.fasta", "report.json", "report.txt"
    ]


def test_patient_id_collision_renamed_in_combined_fasta(corpus, trained_model, tmp_path):
    ref_text = corpus["db_ncbi"].read_text(encoding="utf-8")
    first = parse_fasta(ref_text).records[0]
    patient_path = tmp_path / "same-id.fasta"
    patient_path.write_text(write_fasta(FastaFile((first,))), encoding="utf-8")
    wd = tmp_path / "wd"
    report = run_diagnosis(
        patient_path, corpus["manifest"], model_path=trained_model, work_dir=wd
    )
    assert report.patient_id == "BRCA1_ref"
    combined = _read(wd / "combined.fasta")
    assert [r.id for r in combined] == ["BRCA1_ref", "BRCA1_ref.patient"]


def test_multi_record_patient_rejected(corpus, trained_model, tmp_path):
    bad = tmp_path / "two.fasta"
    bad.write_text(">a\nACGT\n>b\nACGT\n", encoding="utf-8")
    with pytest.raises(MultiRecordPatientFileError):
        run_diagnosis(bad, corpus["manifest"], model_path=trained_model,
                      work_dir=tmp_path / "wd")


@pytest.mark.parametrize("role", ["patient", "database"])
@pytest.mark.parametrize(
    "name,wording",
    [
        ("missing.fasta", "cannot read "),
        ("a-directory", "cannot read "),
        ("latin1.fasta", "is not ASCII text"),
    ],
)
def test_unreadable_fasta_is_a_mutascan_error_naming_the_file(
    corpus, trained_model, tmp_path, role, name, wording
):
    (tmp_path / "a-directory").mkdir()
    (tmp_path / "latin1.fasta").write_bytes(b">r caf\xe9\nACGT\n")
    bad = tmp_path / name
    with pytest.raises(MutascanError) as exc:
        if role == "patient":
            run_diagnosis(bad, corpus["manifest"], model_path=trained_model,
                          work_dir=tmp_path / "wd")
        else:  # a manifest read earlier, whose database has since become unreadable
            manifest = load_manifest(corpus["manifest"])
            entry = dataclasses.replace(manifest.databases[0], fasta_path=bad)
            adopt_reference(
                _read(corpus["patient_clean"]).records[0],
                dataclasses.replace(manifest, databases=(entry,)),
            )
    assert str(bad) in str(exc.value) and wording in str(exc.value)


def test_missing_model_and_training_data(corpus, tmp_path):
    stripped = _edited_manifest(corpus, tmp_path, _drop_training_data)
    with pytest.raises(MissingModelAndTrainingDataError):
        run_diagnosis(
            corpus["patient_clean"], stripped, work_dir=tmp_path / "wd"
        )


def test_an_empty_model_path_is_an_error_not_no_model(corpus, tmp_path):
    """`--model ""` fails to load; it does not fall back to the manifest's training data."""
    wd = tmp_path / "wd"
    with pytest.raises(CorruptFileError):
        run_diagnosis(
            corpus["patient_mutated"], corpus["manifest"], model_path="", work_dir=wd,
            train_config=FAST_TRAIN,
        )
    assert not wd.exists()


def test_diverged_training_on_the_fly_writes_nothing(corpus, tmp_path):
    wd = tmp_path / "wd"
    cfg = TrainConfig(learning_rate=1.7e308, momentum=0.99, max_epochs=300)
    with pytest.raises(NeuralError, match="diverged"):
        run_diagnosis(corpus["patient_mutated"], corpus["manifest"], work_dir=wd, train_config=cfg)
    assert not wd.exists()


def _snapshot(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


@pytest.mark.parametrize(
    "failure,error",
    [
        ("no model and no training data", MissingModelAndTrainingDataError),
        ("corrupt model", CorruptFileError),
    ],
    ids=["no model and no training data", "corrupt model"],
)
def test_failed_diagnosis_leaves_the_work_directory_unchanged(
    corpus, trained_model, tmp_path, failure, error
):
    wd = tmp_path / "wd"
    run_diagnosis(
        corpus["patient_mutated"], corpus["manifest"], model_path=trained_model, work_dir=wd
    )
    before = _snapshot(wd)
    manifest, model = corpus["manifest"], tmp_path / "corrupt.json"
    if failure == "corrupt model":
        model.write_text("{not json", encoding="utf-8")
    else:
        manifest, model = _edited_manifest(corpus, tmp_path, _drop_training_data), None
    with pytest.raises(error):
        run_diagnosis(corpus["patient_clean"], manifest, model_path=model, work_dir=wd)
    assert _snapshot(wd) == before


def test_blocked_model_file_is_an_io_failure(corpus, tmp_path):
    wd = tmp_path / "wd"
    (wd / "model.json").mkdir(parents=True)
    with pytest.raises(IoFailureError):
        run_diagnosis(
            corpus["patient_mutated"], corpus["manifest"], work_dir=wd, train_config=FAST_TRAIN
        )
    assert not list(wd.glob("report.*"))


def test_blocked_write_leaves_no_mixed_work_directory(corpus, tmp_path):
    wd = tmp_path / "wd"
    run_diagnosis(
        corpus["patient_mutated"], corpus["manifest"], work_dir=wd, train_config=FAST_TRAIN
    )
    (wd / "model.json").unlink()
    (wd / "model.json").mkdir()
    before = {p.name: p.read_bytes() for p in wd.iterdir() if p.is_file()}
    assert sorted(before) == ["combined.fasta", "report.json", "report.txt"]
    with pytest.raises(IoFailureError):
        run_diagnosis(
            corpus["patient_clean"], corpus["manifest"], work_dir=wd, train_config=FAST_TRAIN
        )
    assert {p.name: p.read_bytes() for p in wd.iterdir() if p.is_file()} == before
    assert sorted(p.name for p in wd.iterdir()) == sorted([*before, "model.json"])


def test_workdir_collision_with_file_fails_cleanly(corpus, trained_model, tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("not a directory", encoding="utf-8")
    with pytest.raises(IoFailureError):
        run_diagnosis(
            corpus["patient_clean"],
            corpus["manifest"],
            model_path=trained_model,
            work_dir=blocker,
        )


def test_training_on_the_fly_writes_model(corpus, tmp_path):
    wd = tmp_path / "wd"
    report = run_diagnosis(
        corpus["patient_mutated"],
        corpus["manifest"],
        work_dir=wd,
        train_config=FAST_TRAIN,
    )
    assert report.model["trained_here"] is True
    assert report.model["converged"] is True
    assert (wd / "model.json").exists()
    assert report.overall_label is Label.AT_RISK
    # the settings are written from the module constants, then the provenance
    config = json.loads((wd / "report.json").read_text(encoding="utf-8"))["config"]
    assert list(config) == [
        "gate_target", "gate_tolerance", "threshold", "search_k", "scoring",
        "model", "trained_here", "epochs_run", "final_mse", "converged",
    ]
    assert config["model"] == str(wd / "model.json")


def test_diagnosis_settings_are_constants():
    # one scoring system, gate and threshold: no caller can set another
    def parameters(fn):
        return tuple(inspect.signature(fn).parameters)

    assert parameters(run_diagnosis) == (
        "patient_path", "manifest_path", "model_path", "work_dir", "train_config",
    )
    assert inspect.signature(run_diagnosis).parameters["work_dir"].default == "mutascan-work"
    # and the report stores none of them, only what the diagnosis found
    assert [f.name for f in dataclasses.fields(pipeline.DiagnosisReport)] == [
        "patient_id", "adopted", "rejected", "alignment", "mutations", "classifications",
        "model",
    ]
    assert parameters(adopt_reference) == ("patient", "manifest")
    assert parameters(global_align) == ("a", "b", "scoring")
    assert parameters(search) == ("query", "index", "max_hits")
    # values that only tests used to set are module constants
    assert parameters(classify) == ("net", "x")
    assert parameters(windowed_gc) == ("seq", "center")
    assert parameters(write_fasta) == ("file",)
    assert parameters(write_fasta_path) == ("file", "path")
    assert parameters(write_texts_atomic) == ("texts",)


def test_reports_are_byte_identical_across_runs(corpus, trained_model, tmp_path):
    texts = []
    for name in ("one", "two"):
        wd = tmp_path / name
        run_diagnosis(
            corpus["patient_mutated"],
            corpus["manifest"],
            model_path=trained_model,
            work_dir=wd,
        )
        texts.append((wd / "report.json").read_bytes())
        assert (wd / "report.txt").read_bytes()
    assert texts[0] == texts[1]


def test_a_model_rewritten_between_diagnoses_scores_the_second(corpus, trained_model, tmp_path):
    model = tmp_path / "model.json"
    shutil.copyfile(trained_model, model)
    scores = []
    for name in ("trained", "zeroed"):
        report = run_diagnosis(
            corpus["patient_mutated"],
            corpus["manifest"],
            model_path=model,
            work_dir=tmp_path / name,
        )
        scores.append([c.score for c in report.classifications])
        # other weights in the same file: every parameter 0, so every candidate scores 0.5
        doc = json.loads(model.read_text(encoding="utf-8"))
        doc["weights"] = [[[0.0] * len(row) for row in w] for w in doc["weights"]]
        doc["biases"] = [[0.0] * len(b) for b in doc["biases"]]
        model.write_text(json.dumps(doc), encoding="utf-8")
    assert len(scores[0]) == 1 and scores[0][0] != 0.5
    assert scores[1] == [0.5]


def test_report_records_hold_every_field_of_their_dataclass():
    # built field by field, not through dataclasses.asdict: a new field must be added there too
    verdict = gc_gate(composition(parse_fasta(">r\nACGTTGCA\n").records[0]))
    assert pipeline._verdict_dict(verdict) == dataclasses.asdict(verdict)
    assert pipeline._verdict_dict(None) is None
    assert pipeline._scoring_dict(Scoring()) == dataclasses.asdict(Scoring())


def test_report_dict_shape(corpus, trained_model, tmp_path):
    report = run_diagnosis(
        corpus["patient_mutated"],
        corpus["manifest"],
        model_path=trained_model,
        work_dir=tmp_path / "wd",
    )
    doc = report_to_dict(report)
    json.dumps(doc)  # must be serializable as-is
    assert doc["patient_id"] == "patient_mutated"
    assert doc["adopted_reference"]["database_name"] == "ncbi"
    assert doc["adopted_reference"]["top_hit"]["max_ident"] > 99.0
    assert len(doc["mutations"]) == 2
    assert len(doc["classifications"]) == 1
    assert doc["classifications"][0]["label"] == "AtRisk"
    assert 0.0 <= doc["classifications"][0]["score"] <= 1.0
    assert doc["config"]["threshold"] == 0.5
    assert doc["tool_versions"]["mutascan"]


def test_fallback_report_mentions_rejection(corpus, trained_model, tmp_path):
    report = run_diagnosis(
        corpus["patient_clean"],
        corpus["manifest_fallback"],
        model_path=trained_model,
        work_dir=tmp_path / "wd",
    )
    assert [r.database_name for r in report.rejected] == ["ebi"]
    text = render_report(report, "text")
    assert "ebi: rejected, GC 50.00%" in text
    assert "gene band 45-50%" in text
    assert "ncbi: adopted 'BRCA1_ref'" in text
    with pytest.raises(ValueError):
        render_report(report, "html")


def test_report_names_a_database_without_hits(corpus, trained_model, tmp_path):
    """A database that shares no 11-mer with the patient is rejected without a gate
    verdict, and both reports say why."""
    (tmp_path / "poly_c.fasta").write_text(">poly_c\n" + "C" * 300 + "\n", encoding="ascii")
    manifest = _edited_manifest(
        corpus, tmp_path,
        lambda doc: doc["databases"].insert(0, {"name": "poly_c", "fasta": "poly_c.fasta"}),
    )
    run_diagnosis(
        corpus["patient_mutated"],
        manifest,
        model_path=trained_model,
        work_dir=tmp_path / "wd",
    )
    text = (tmp_path / "wd" / "report.txt").read_text(encoding="utf-8").splitlines()
    assert "  poly_c: rejected (no hits for the patient query)" in text
    assert "  ncbi: adopted 'BRCA1_ref', GC 38.00% within 38% +/- 2%" in text
    doc = json.loads((tmp_path / "wd" / "report.json").read_text(encoding="utf-8"))
    first = doc["rejected_references"][0]
    assert first["database_name"] == "poly_c" and first["gate_verdict"] is None


# --- golden output --------------------------------------------------------------

# SHA-256 of the seed-42 report.json with the work directory written as $WORK.
# The reports pin both alignment kernels' output byte for byte: the homology
# top hit's best local alignment and the global reference/patient alignment.
GOLDEN_REPORT_SHA256 = {
    ("patient_mutated", "manifest"):
        "aac10c3de02bae172744ff4756cf9b7acad58ae0a5239e26b11751162751ea98",
    ("patient_clean", "manifest_fallback"):
        "863c0a6bb90832b7159bc0354e10abdc4e4d589c2f41489808e207aa6280946c",
}
GOLDEN_TRAIN = TrainConfig(max_epochs=2_000)


@pytest.mark.parametrize("patient,manifest", sorted(GOLDEN_REPORT_SHA256))
def test_report_json_matches_golden_hash(kernels, corpus, tmp_path, patient, manifest):
    rows = load_training_rows(corpus["training_data"])
    net, _ = train(NetworkTopology(), rows_to_samples(rows), GOLDEN_TRAIN)
    save_net(net, tmp_path / "model.json")
    for kernel in kernels:
        with kernel():
            run_diagnosis(
                corpus[patient], corpus[manifest],
                model_path=tmp_path / "model.json", work_dir=tmp_path / "wd",
            )
        text = (tmp_path / "wd" / "report.json").read_text(encoding="utf-8")
        text = text.replace(json.dumps(str(tmp_path))[1:-1], "$WORK")
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == GOLDEN_REPORT_SHA256[(patient, manifest)]


# --- databases read on every diagnosis, parsed and indexed once per content ---


def test_each_database_is_indexed_once_per_content(corpus, tmp_path):
    rows = load_training_rows(corpus["training_data"])
    net, _ = train(NetworkTopology(), rows_to_samples(rows), GOLDEN_TRAIN)
    save_net(net, tmp_path / "model.json")
    _build_index.cache_clear()  # earlier tests may have indexed these databases
    grown, texts = [], []
    for _ in range(2):
        misses = _build_index.cache_info().misses
        report = run_diagnosis(
            corpus["patient_clean"], corpus["manifest_fallback"],
            model_path=tmp_path / "model.json", work_dir=tmp_path / "wd",
        )
        grown.append(_build_index.cache_info().misses - misses)
        texts.append((tmp_path / "wd" / "report.json").read_text(encoding="utf-8"))
    consulted = len(report.rejected) + 1
    assert consulted == 2
    assert grown == [consulted, 0]
    assert texts[0] == texts[1]
    text = texts[0].replace(json.dumps(str(tmp_path))[1:-1], "$WORK")
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == GOLDEN_REPORT_SHA256[("patient_clean", "manifest_fallback")]


def test_database_rewritten_in_place_is_read_anew(corpus, trained_model, tmp_path):
    work = tmp_path / "corpus"
    shutil.copytree(corpus["manifest"].parent, work)
    db = work / "db_ncbi.fasta"

    def diagnose():
        return run_diagnosis(
            work / "patient_clean.fasta", work / "manifest.json",
            model_path=trained_model, work_dir=tmp_path / "wd",
        )

    first = diagnose()
    assert first.adopted.subject.id == "BRCA1_ref"
    before = db.stat()
    text = db.read_text(encoding="ascii")
    # one base of BRCA1_ref, the first record, swapped A<->T or C<->G:
    # same byte length and GC content, one mismatch against the patient
    i = text.index("\n") + 301
    assert text[i] in "ACGT"
    db.write_text(text[:i] + text[i].translate(str.maketrans("ACGT", "TGCA")) + text[i + 1:],
                  encoding="ascii")
    os.utime(db, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert (db.stat().st_size, db.stat().st_mtime_ns) == (before.st_size, before.st_mtime_ns)

    second = diagnose()
    assert second.adopted.subject.id == "BRCA1_ref"
    assert second.adopted.subject.bases != first.adopted.subject.bases
    assert second.adopted.top_hit.max_score < first.adopted.top_hit.max_score
    assert len(second.mutations) == len(first.mutations) + 1
