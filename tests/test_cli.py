"""Command-line interface: each subcommand plus exit codes."""

import json

import pytest

from mutascan import __version__
from mutascan.cli import main
from mutascan.neural import load_net

from conftest import FAST_TRAIN


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert f"mutascan {__version__}" in capsys.readouterr().out


def test_no_command_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_stats_command(tmp_path, capsys):
    fasta = tmp_path / "x.fasta"
    fasta.write_text(">g1\n" + "G" * 19 + "A" * 31 + "\n>all_n\nNNN\n", encoding="utf-8")
    assert main(["stats", str(fasta)]) == 0
    out = capsys.readouterr().out
    assert ">g1 length 50" in out
    assert "GC% 38.0000" in out
    assert "gate: accepted" in out
    assert "all bases ambiguous" in out


def test_stats_custom_gate(tmp_path, capsys):
    fasta = tmp_path / "x.fasta"
    fasta.write_text(">g\n" + "G" * 47 + "A" * 53 + "\n", encoding="utf-8")
    assert main(["stats", str(fasta)]) == 0
    assert "rejected" in capsys.readouterr().out
    assert main(["stats", str(fasta), "--target", "47", "--tolerance", "1"]) == 0
    out = capsys.readouterr().out
    assert "gate: accepted" in out
    assert "[gene band 45-50%]" in out


def test_stats_missing_file_exits_1(tmp_path, capsys):
    assert main(["stats", str(tmp_path / "nope.fasta")]) == 1
    assert "error:" in capsys.readouterr().err


def test_search_command(corpus, capsys):
    rc = main(
        ["search", "--db", str(corpus["db_ncbi"]), "--query", str(corpus["patient_clean"])]
    )
    assert rc == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].startswith("Description | Max score")
    assert lines[1].startswith("BRCA1_ref | 1200 | ")
    assert "100%" in lines[1]


def test_search_k_below_4_is_a_usage_error(corpus, capsys):
    with pytest.raises(SystemExit) as exc:
        main(
            ["search", "--db", str(corpus["db_ncbi"]),
             "--query", str(corpus["patient_clean"]), "--k", "3"]
        )
    assert exc.value.code == 2
    assert "--k: must be at least 4" in capsys.readouterr().err


def test_search_k_above_32_is_a_usage_error(corpus, capsys):
    with pytest.raises(SystemExit) as exc:
        main(
            ["search", "--db", str(corpus["db_ncbi"]),
             "--query", str(corpus["patient_clean"]), "--k", "33"]
        )
    assert exc.value.code == 2
    assert "--k: must be at most 32" in capsys.readouterr().err


def test_search_max_hits_below_1_is_a_usage_error(corpus, capsys):
    with pytest.raises(SystemExit) as exc:
        main(
            ["search", "--db", str(corpus["db_ncbi"]),
             "--query", str(corpus["patient_mutated"]), "--max-hits", "-1"]
        )
    assert exc.value.code == 2
    assert "--max-hits: must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags,message",
    [
        (["train", "--lr", "nan"], "learning rate must be finite and positive"),
        (["train", "--lr", "inf"], "learning rate must be finite and positive"),
        (["train", "--target-mse", "nan"], "target MSE must be finite and positive"),
        (["train", "--momentum", "1"], "momentum must be in [0, 1)"),
        (["train", "--max-epochs", "0"], "max epochs must be at least 1"),
        (["train", "--seed", "-1"], "seed must be non-negative"),
        (["align", "--width", "0"], "--width: must be at least 1"),
        (["stats", "--target", "nan"], "--target: must be finite, got nan"),
        (["stats", "--target", "inf"], "--target: must be finite, got inf"),
        (["stats", "--target", "200"], "--target: must be at most 100, got 200.0"),
        (["stats", "--tolerance", "-5"], "--tolerance: must be at least 0, got -5.0"),
        (["stats", "--tolerance", "nan"], "--tolerance: must be finite, got nan"),
        (["search", "--k", "abc"], "--k: invalid int 'abc'"),
        (["stats", "--target", "x"], "--target: invalid float 'x'"),
    ],
)
def test_bad_flag_value_is_a_usage_error(corpus, tmp_path, capsys, flags, message):
    files = {
        "train": ["--data", str(corpus["training_data"]), "--out", str(tmp_path / "m.json")],
        "align": ["--ref", str(corpus["db_ncbi"]), "--alt", str(corpus["patient_clean"])],
        "stats": [str(corpus["db_ncbi"])],
        "search": ["--db", str(corpus["db_ncbi"]), "--query", str(corpus["patient_clean"])],
    }
    with pytest.raises(SystemExit) as exc:
        main(flags[:1] + files[flags[0]] + flags[1:])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert message in err and out == ""
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["stats", ""],
        ["search", "--db", "", "--query", "{patient}"],
        ["search", "--db", "{db}", "--query", ""],
        ["align", "--ref", "", "--alt", "{patient}"],
        ["align", "--ref", "{db}", "--alt", ""],
        ["train", "--data", "", "--out", "m.json"],
        ["train", "--data", "{training}", "--out", "", "--max-epochs", "5"],
        ["predict", "--model", "", "--features", "{training}"],
        ["predict", "--model", "{model}", "--features", ""],
        ["diagnose", "--patient", "", "--manifest", "{manifest}", "--model", "{model}"],
        ["diagnose", "--patient", "{patient}", "--manifest", "", "--model", "{model}"],
        ["diagnose", "--patient", "{patient}", "--manifest", "{manifest}", "--model", ""],
        ["gen-corpus", "--out", ""],
    ],
    ids=lambda argv: " ".join(a or "''" for a in argv),
)
def test_an_empty_path_exits_1_naming_itself(
    corpus, trained_model, tmp_path, monkeypatch, capsys, argv
):
    """An empty path is refused as itself, never read or written as ".", the
    working directory that Path("") names."""
    files = {
        "patient": corpus["patient_mutated"], "db": corpus["db_ncbi"],
        "training": corpus["training_data"], "manifest": corpus["manifest"],
        "model": trained_model,
    }
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("MUTASCAN_WORKDIR", "wd")
    assert main([a.format(**files) for a in argv]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and "''" in err and out == ""
    assert list(tmp_path.iterdir()) == []


def test_train_to_a_missing_directory_names_the_target(corpus, tmp_path, capsys):
    out = tmp_path / "no" / "such" / "m.json"
    argv = ["train", "--data", str(corpus["training_data"]), "--out", str(out),
            "--max-epochs", "5"]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: [Errno 2] No such file or directory: '{out}'\n"
    )


def test_diverged_training_exits_1_and_writes_no_model(kernels, corpus, tmp_path, capsys):
    """The MSE is nan from epoch 57 on, and the run stops there on both kernels."""
    out = tmp_path / "m.json"
    argv = ["train", "--data", str(corpus["training_data"]), "--out", str(out),
            "--lr", "1.7e308", "--momentum", "0.99"]
    for kernel in kernels:
        with kernel():
            assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: training diverged after 57 epochs, final MSE nan\n"
        assert captured.out == "" and not out.exists()


def test_search_json_output(corpus, capsys):
    rc = main(
        [
            "search", "--db", str(corpus["db_ncbi"]),
            "--query", str(corpus["patient_mutated"]), "--json",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    json_lines = [l for l in out.splitlines() if l.startswith("{")]
    assert json_lines
    top = json.loads(json_lines[0])
    assert top["subject_id"] == "BRCA1_ref"
    assert top["max_score"] > 1000


def test_align_command(tmp_path, capsys):
    ref = tmp_path / "ref.fasta"
    alt = tmp_path / "alt.fasta"
    ref.write_text(">r\nACGT\n", encoding="utf-8")
    alt.write_text(">a\nAGGT\n", encoding="utf-8")
    assert main(["align", "--ref", str(ref), "--alt", str(alt)]) == 0
    out = capsys.readouterr().out
    assert "score 5" in out
    assert "2 C>G" in out
    assert main(["align", "--ref", str(ref), "--alt", str(alt), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out.splitlines()[0])
    assert doc == {"position": 2, "kind": "substitution", "ref": "C", "alt": "G"}


def test_train_and_predict_commands(corpus, tmp_path, capsys):
    model = tmp_path / "model.json"
    rc = main(
        [
            "train", "--data", str(corpus["training_data"]), "--out", str(model),
            "--target-mse", str(FAST_TRAIN.target_mse),
            "--max-epochs", str(FAST_TRAIN.max_epochs),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "converged: epochs" in out
    assert load_net(model).topology.layer_sizes == (10, 4, 1)

    rc = main(["predict", "--model", str(model), "--features", str(corpus["training_data"])])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 18
    mal = [l for l in lines if l.startswith("mal-")]
    ben = [l for l in lines if l.startswith("ben-")]
    assert len(mal) == 9 and len(ben) == 9
    assert all(l.endswith("highly risk of breast cancer") for l in mal)
    assert all(l.endswith("Normal") for l in ben)


def test_predict_accepts_bare_arrays(tmp_path, capsys, trained_model):
    feats = tmp_path / "feats.jsonl"
    feats.write_text(json.dumps([0.5] * 10) + "\n", encoding="utf-8")
    assert main(["predict", "--model", str(trained_model), "--features", str(feats)]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("line-1\t")


def test_predict_row_without_features_names_the_line(tmp_path, capsys, trained_model):
    feats = tmp_path / "feats.jsonl"
    feats.write_text(json.dumps([0.5] * 10) + "\n" + json.dumps({"id": "x"}) + "\n",
                     encoding="utf-8")
    assert main(["predict", "--model", str(trained_model), "--features", str(feats)]) == 1
    err = capsys.readouterr().err
    assert f"{feats}:2:" in err and "'features' array" in err


def test_predict_non_json_line_names_the_line(tmp_path, capsys, trained_model):
    feats = tmp_path / "feats.jsonl"
    feats.write_text(json.dumps([0.5] * 10) + "\nnot json\n", encoding="utf-8")
    assert main(["predict", "--model", str(trained_model), "--features", str(feats)]) == 1
    assert f"error: {feats}:2: invalid JSON: " in capsys.readouterr().err


def test_predict_reads_a_line_separator_inside_an_id(tmp_path, capsys, trained_model):
    feats = tmp_path / "feats.jsonl"
    row = json.dumps({"id": "a\u2028b", "features": [0.5] * 10}, ensure_ascii=False)
    feats.write_text(row + "\n{broken\n", encoding="utf-8")
    assert main(["predict", "--model", str(trained_model), "--features", str(feats)]) == 1
    out, err = capsys.readouterr()
    assert out.startswith("a\u2028b\t") and out.count("\n") == 1
    assert err.startswith(f"error: {feats}:2: invalid JSON: ")


@pytest.mark.parametrize(
    "row",
    [
        "[1" + "0" * 400 + ", 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5]",  # float() overflows
        json.dumps([2.0] + [0.5] * 9),  # outside [0, 1]
        json.dumps({"features": ["x"] * 10}),
        json.dumps({"features": 5}),
        # JSON that is not an array of numbers, each of which predict scored before
        pytest.param(json.dumps({"features": "0101010101"}), id="a string of ten digits"),
        pytest.param(json.dumps([True] * 10), id="booleans"),
        pytest.param(json.dumps({"features": ["0.5"] * 10}), id="numeric strings"),
        pytest.param(
            json.dumps({"features": {f"0.{i}": 1 for i in range(10)}}),
            id="an object with ten numeric keys",
        ),
    ],
)
def test_predict_bad_feature_names_the_line(tmp_path, capsys, trained_model, row):
    feats = tmp_path / "feats.jsonl"
    feats.write_text(row + "\n", encoding="utf-8")
    assert main(["predict", "--model", str(trained_model), "--features", str(feats)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {feats}:1: bad row: ")
    assert "Traceback" not in err


def _assert_predict_refuses_model(tmp_path, capsys, doc):
    """`predict` with model document `doc` exits 1 with one "malformed" error line."""
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc), encoding="utf-8")
    feats = tmp_path / "feats.jsonl"
    feats.write_text(json.dumps([0.5] * 10) + "\n", encoding="utf-8")
    assert main(["predict", "--model", str(model), "--features", str(feats)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: model file {model} is malformed: ")
    assert "Traceback" not in err


def test_predict_with_an_overflowing_model_config_exits_1(tmp_path, capsys, trained_model):
    doc = json.loads(trained_model.read_text(encoding="utf-8"))
    doc["train_config"]["learning_rate"] = 10**400  # float() of it overflows
    _assert_predict_refuses_model(tmp_path, capsys, doc)


@pytest.mark.parametrize("field", ["weights", "biases"])
def test_predict_with_an_overflowing_weight_or_bias_exits_1(tmp_path, capsys, trained_model, field):
    doc = json.loads(trained_model.read_text(encoding="utf-8"))
    output_layer = doc[field][-1]  # weights [[w, w, w, w]], biases [b]
    if field == "weights":
        output_layer = output_layer[0]
    output_layer[0] = 10**400  # numpy's float64 of it overflows
    _assert_predict_refuses_model(tmp_path, capsys, doc)


@pytest.mark.parametrize("field", ["weights", "biases"])
@pytest.mark.parametrize("value", ["0.25", True], ids=["a numeric string", "true"])
def test_predict_with_a_weight_or_bias_not_a_json_number_exits_1(
    tmp_path, capsys, trained_model, field, value
):
    doc = json.loads(trained_model.read_text(encoding="utf-8"))
    output_layer = doc[field][-1]  # weights [[w, w, w, w]], biases [b]
    if field == "weights":
        output_layer = output_layer[0]
    output_layer[0] = value  # loaded as 0.25 and 1.0 before
    _assert_predict_refuses_model(tmp_path, capsys, doc)


def test_non_ascii_fasta_exits_1_naming_the_file(tmp_path, capsys):
    fasta = tmp_path / "latin1.fasta"
    fasta.write_bytes(b">r caf\xe9\nACGT\n")
    assert main(["stats", str(fasta)]) == 1
    err = capsys.readouterr().err
    assert str(fasta) in err and "not ASCII" in err


def test_diagnose_command_text_and_json(corpus, trained_model, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MUTASCAN_WORKDIR", str(tmp_path / "wd"))
    rc = main(
        [
            "diagnose", "--patient", str(corpus["patient_mutated"]),
            "--manifest", str(corpus["manifest"]), "--model", str(trained_model),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "Diagnosis: highly risk of breast cancer" in out
    assert (tmp_path / "wd" / "report.json").exists()

    rc = main(
        [
            "diagnose", "--patient", str(corpus["patient_clean"]),
            "--manifest", str(corpus["manifest"]), "--model", str(trained_model),
            "--json",
        ]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["display"] == "Normal"
    assert doc["overall_label"] == "Normal"


def test_diagnose_missing_manifest_exits_1(corpus, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MUTASCAN_WORKDIR", str(tmp_path / "wd"))
    rc = main(
        [
            "diagnose", "--patient", str(corpus["patient_clean"]),
            "--manifest", str(tmp_path / "missing.json"),
        ]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["nc\nbi", "a\rb", "a\x00b"], ids=["line feed", "return", "nul"])
def test_diagnose_with_an_unprintable_database_name_exits_1_and_writes_nothing(
    corpus, trained_model, tmp_path, monkeypatch, capsys, name
):
    doc = json.loads(corpus["manifest"].read_text(encoding="utf-8"))
    for db in doc["databases"]:
        db["fasta"] = str(corpus["manifest"].parent / db["fasta"])
    doc["databases"][0]["name"] = name
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.setenv("MUTASCAN_WORKDIR", str(tmp_path / "wd"))
    rc = main(
        [
            "diagnose", "--patient", str(corpus["patient_mutated"]),
            "--manifest", str(manifest), "--model", str(trained_model),
        ]
    )
    assert rc == 1
    assert "database entry 0: name" in capsys.readouterr().err
    assert not (tmp_path / "wd").exists()


@pytest.mark.parametrize(
    "value,rc,written",
    [(None, 0, ["mutascan-work"]), ("from-env", 0, ["from-env"]), ("", 1, [])],
    ids=["unset", "set", "empty"],
)
def test_mutascan_workdir_chooses_the_work_directory(
    corpus, trained_model, tmp_path, monkeypatch, capsys, value, rc, written
):
    """Unset, `diagnose` writes ./mutascan-work; set but empty, it is an error
    naming '', not the working directory that Path("") names."""
    monkeypatch.chdir(tmp_path)
    if value is None:
        monkeypatch.delenv("MUTASCAN_WORKDIR", raising=False)
    else:
        monkeypatch.setenv("MUTASCAN_WORKDIR", value)
    argv = [
        "diagnose", "--patient", str(corpus["patient_clean"]),
        "--manifest", str(corpus["manifest"]), "--model", str(trained_model),
    ]
    assert main(argv) == rc
    assert sorted(p.name for p in tmp_path.iterdir()) == written
    if rc:
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and "''" in err and out == ""
    else:
        assert (tmp_path / written[0] / "report.json").exists()


def test_gen_corpus_command(tmp_path, capsys):
    out_dir = tmp_path / "corpus"
    assert main(["gen-corpus", "--seed", "42", "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "manifest:" in out
    for name in (
        "manifest.json", "manifest_fallback.json", "db_ncbi.fasta", "db_ebi.fasta",
        "db_ensembl.fasta", "patient_clean.fasta", "patient_mutated.fasta",
        "training.jsonl",
    ):
        assert (out_dir / name).exists()


def test_gen_corpus_unwritable_out_exits_1(tmp_path, capsys):
    out_file = tmp_path / "taken"
    out_file.write_text("", encoding="utf-8")
    assert main(["gen-corpus", "--out", str(out_file)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write corpus to {out_file}: ")
