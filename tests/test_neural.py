"""Feed-forward classifier: forward pass, gradients, training, persistence."""

import dataclasses
import hashlib
import itertools
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mutascan import neural
from mutascan.align import Mutation, MutationKind
from mutascan.errors import MutascanError
from mutascan.neural import (
    DISPLAY_AT_RISK,
    DISPLAY_NORMAL,
    RISK_THRESHOLD,
    CorruptFileError,
    DimensionMismatchError,
    EmptyDatasetError,
    FeatureVector,
    Label,
    Network,
    NetworkTopology,
    NeuralError,
    TrainConfig,
    VersionMismatchError,
    classify,
    encode,
    forward,
    gradient,
    load_net,
    load_training_rows,
    net_to_json,
    rows_to_samples,
    save_net,
    train,
    _fixed_exp,
    _sigmoid,
    _sigmoid_float,
)
from mutascan.protein import EffectKind, ProteinEffect, classify_effect
from mutascan.seqio import DnaSequence
from mutascan.seqstats import windowed_gc

from oracles import (
    finite_difference_gradients,
    fixed_sigmoid_scalar,
    json_values,
    plausible_or_any,
    random_bases,
    reference_fixed_train,
    reference_sigmoid,
    reference_train,
    sigmoid_scalar,
)


def _zero_network(topology, train_config=None):
    """A network whose weights and biases are all 0: every input scores exactly 0.5."""
    sizes = topology.layer_sizes
    return Network(
        topology,
        [np.zeros((n_out, n_in)) for n_in, n_out in zip(sizes, sizes[1:])],
        [np.zeros(n_out) for n_out in sizes[1:]],
        train_config=train_config,
    )


def _net_111(w1, b1, w2, b2):
    return Network(
        NetworkTopology((1, 1, 1)),
        [np.array([[w1]]), np.array([[w2]])],
        [np.array([b1]), np.array([b2])],
    )


def _random_net(rng, sizes):
    nprng = np.random.default_rng(rng.randint(0, 2**31))
    return Network(
        NetworkTopology(tuple(sizes)),
        [nprng.uniform(-1, 1, (sizes[i + 1], sizes[i])) for i in range(len(sizes) - 1)],
        [nprng.uniform(-1, 1, (sizes[i + 1],)) for i in range(len(sizes) - 1)],
    )


def test_topology_validation():
    assert NetworkTopology().layer_sizes == (10, 4, 1)
    with pytest.raises(ValueError):
        NetworkTopology((10, 1))
    with pytest.raises(ValueError):
        NetworkTopology((10, 4, 2))
    with pytest.raises(ValueError):
        NetworkTopology((10, 0, 1))
    for sizes in ((10.9, 4, 1), (10, 4, True), (10, "4", 1)):
        with pytest.raises(ValueError):
            NetworkTopology(sizes)


def test_train_config_validation():
    cfg = TrainConfig()
    assert (cfg.learning_rate, cfg.momentum) == (0.5, 0.9)
    assert (cfg.target_mse, cfg.max_epochs, cfg.seed) == (1e-9, 500_000, 42)
    assert cfg.init_range == (-0.5, 0.5)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0)
    with pytest.raises(ValueError):
        TrainConfig(momentum=1.0)
    with pytest.raises(ValueError):
        TrainConfig(target_mse=0)
    with pytest.raises(ValueError):
        TrainConfig(init_range=(0.5, -0.5))
    for bad in (
        {"learning_rate": math.nan},
        {"learning_rate": math.inf},
        {"target_mse": math.nan},
        {"target_mse": math.inf},
        {"init_range": (math.nan, 0.5)},
        {"init_range": (-math.inf, 0.5)},
        {"init_range": ()},
        {"init_range": (0.0, 0.1, 0.2)},
        {"seed": -1},
        {"max_epochs": 2.5},
        {"max_epochs": True},
        {"seed": True},
        {"seed": 1.0},
        {"learning_rate": True},
        {"target_mse": True},
        {"momentum": False},
        {"init_range": (False, True)},
        {"learning_rate": "0.5"},
        {"momentum": None},
        {"target_mse": 1j},
        {"init_range": ("-0.5", 0.5)},
        {"learning_rate": 10**400},  # float() overflows
        {"target_mse": 10**400},
        {"momentum": 10**400},
        {"init_range": (-(10**400), 0.5)},
    ):
        with pytest.raises(ValueError):
            TrainConfig(**bad)
    # values are stored as given, so a model file's bytes do not move
    cfg = TrainConfig(learning_rate=1, momentum=0, init_range=(-1, 1))
    assert (cfg.learning_rate, cfg.momentum, cfg.init_range) == (1, 0, (-1, 1))
    assert type(cfg.learning_rate) is int


def test_zero_network_outputs_exactly_half():
    net = _zero_network(NetworkTopology())
    assert forward(net, [0.0] * 10) == 0.5
    assert forward(net, [1.0] * 10) == 0.5


def test_forward_single_chain_matches_scalar_sigmoid():
    net = _net_111(1.0, 0.0, 1.0, 0.0)
    h = sigmoid_scalar(0.0)
    assert forward(net, [0.0]) == pytest.approx(sigmoid_scalar(h), abs=1e-15)
    assert forward(net, [0.0]) == pytest.approx(0.6224593312018546, abs=1e-12)


def test_sigmoid_is_bit_identical_to_the_plain_float_form():
    tiny = 5e-324  # the smallest subnormal
    edges = [0.0, -0.0, math.inf, -math.inf, math.nan, tiny, -tiny, 800.0, -800.0]
    z = edges + np.random.default_rng(3).normal(0.0, 20.0, 2000).tolist()
    want = np.array([fixed_sigmoid_scalar(v) for v in z])
    assert _sigmoid(np.array(z)).tobytes() == want.tobytes()
    assert np.array([_sigmoid_float(v) for v in z]).tobytes() == want.tobytes()
    # at the edges the fixed exp gives np.exp's sigmoid exactly
    assert _sigmoid(np.array(edges)).tobytes() == reference_sigmoid(np.array(edges)).tobytes()


def test_fixed_exp_is_within_3_ulp_of_numpy_exp():
    x = -np.linspace(0.0, 708.0, 1_000_001)  # exp(-708) is still a normal float
    got, want = _fixed_exp(x), np.exp(x)
    assert (np.abs(got - want) <= 3 * np.spacing(want)).all()
    special = np.array([-math.inf, math.nan, -746.0, -800.0])
    assert _fixed_exp(special).tobytes() == np.exp(special).tobytes()


def test_forward_matches_manual_composition():
    rng = random.Random(41)
    for _ in range(20):
        net = _random_net(rng, [2, 3, 1])
        x = [rng.uniform(0, 1), rng.uniform(0, 1)]
        h = [
            sigmoid_scalar(net.weights[0][i] @ np.array(x) + net.biases[0][i])
            for i in range(3)
        ]
        want = sigmoid_scalar(float(net.weights[1][0] @ np.array(h) + net.biases[1][0]))
        assert forward(net, x) == pytest.approx(want, abs=1e-12)


def test_forward_rejects_wrong_width():
    net = _zero_network(NetworkTopology())
    with pytest.raises(DimensionMismatchError):
        forward(net, [0.0] * 3)


def test_network_shape_validation():
    with pytest.raises(DimensionMismatchError):
        Network(
            NetworkTopology((2, 2, 1)),
            [np.zeros((2, 2))],
            [np.zeros(2)],
        )
    with pytest.raises(DimensionMismatchError):
        Network(
            NetworkTopology((2, 2, 1)),
            [np.zeros((3, 2)), np.zeros((1, 3))],
            [np.zeros(3), np.zeros(1)],
        )


def test_gradient_zero_at_exact_target():
    rng = random.Random(42)
    net = _random_net(rng, [4, 3, 1])
    x = [0.1, 0.9, 0.4, 0.7]
    t = forward(net, x)
    dw, db = gradient(net, (x, t))
    assert all(np.allclose(g, 0.0) for g in dw)
    assert all(np.allclose(g, 0.0) for g in db)
    dw2, db2 = gradient(net, (x, t))  # each call returns new arrays
    assert not any(np.shares_memory(a, b) for a, b in zip(dw + db, dw2 + db2))


def test_gradient_closed_form_single_chain():
    w1, b1, w2, b2 = 0.3, -0.1, 0.7, 0.2
    x, t = 0.9, 1.0
    net = _net_111(w1, b1, w2, b2)
    h = sigmoid_scalar(w1 * x + b1)
    o = sigmoid_scalar(w2 * h + b2)
    # derivative of (o - t)^2, including the factor 2 from the square
    d_o = 2.0 * (o - t) * o * (1.0 - o)
    dw, db = gradient(net, ([x], t))
    assert dw[1][0, 0] == pytest.approx(d_o * h, rel=1e-12)
    assert db[1][0] == pytest.approx(d_o, rel=1e-12)
    d_h = d_o * w2 * h * (1.0 - h)
    assert dw[0][0, 0] == pytest.approx(d_h * x, rel=1e-12)
    assert db[0][0] == pytest.approx(d_h, rel=1e-12)


def test_gradient_matches_finite_differences():
    rng = random.Random(43)
    for sizes in ([1, 1, 1], [3, 2, 1], [10, 4, 1], [4, 5, 3, 1]):
        net = _random_net(rng, sizes)
        x = [rng.uniform(0, 1) for _ in range(sizes[0])]
        t = rng.choice([0.0, 1.0])
        dw, db = gradient(net, (x, t))

        def loss(params):
            layers = len(net.weights)
            return (forward(Network(net.topology, params[:layers], params[layers:]), x) - t) ** 2

        fd = finite_difference_gradients(loss, net.weights + net.biases)
        for got, want in zip(dw + db, fd):
            assert np.allclose(got, want, rtol=1e-6, atol=1e-9)


def test_train_rejects_empty_and_mismatched_data():
    with pytest.raises(EmptyDatasetError):
        train(NetworkTopology(), [])
    with pytest.raises(DimensionMismatchError):
        train(NetworkTopology(), [([0.0, 1.0], 1)])


def test_diverged_training_is_an_error(kernels, corpus):
    """The corpus's MSE is nan from epoch 57 on: both kernels stop there, not at
    the default 500,000 epochs."""
    samples = rows_to_samples(load_training_rows(corpus["training_data"]))
    cfg = TrainConfig(learning_rate=1.7e308, momentum=0.99)
    for kernel in kernels:
        with kernel(), pytest.raises(NeuralError, match="diverged after 57 epochs, final MSE nan"):
            train(NetworkTopology(), samples, cfg)


def test_train_returns_the_one_network_it_checked(monkeypatch):
    checked, check = [], Network.__post_init__
    monkeypatch.setattr(
        Network, "__post_init__", lambda net: checked.append((net, net_to_json(net))) or check(net)
    )
    net, _ = train(NetworkTopology((2, 3, 1)), [([0.2, 0.9], 1.0)], TrainConfig(max_epochs=5))
    [(got, text)] = checked  # one construction, holding the trained parameters
    assert got is net and text == net_to_json(net)


def test_network_fields_cannot_be_reassigned():
    net = _zero_network(NetworkTopology())
    for f in dataclasses.fields(Network):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(net, f.name, getattr(net, f.name))


def test_network_parameters_cannot_be_written():
    weights, biases = [np.zeros((4, 10)), np.zeros((1, 4))], [np.zeros(4), np.zeros(1)]
    net = Network(NetworkTopology(), weights, biases)
    weights[0][0, 0] = biases[1][0] = math.nan  # the caller's arrays are not the network's
    trained, _ = train(NetworkTopology((2, 3, 1)), [([0.2, 0.9], 1.0)], TrainConfig(max_epochs=5))
    for a in net.weights + net.biases + trained.weights + trained.biases:
        with pytest.raises(ValueError):
            a[...] = math.nan
        with pytest.raises(ValueError):
            a.flags.writeable = True
    assert forward(net, [0.3] * 10) == 0.5


def test_network_parameter_lists_cannot_be_changed():
    """No caller can swap in an array the checks did not see, or add a layer."""
    net = Network(
        NetworkTopology((2, 2, 1)), [np.zeros((2, 2)), np.zeros((1, 2))], [np.zeros(2), np.zeros(1)]
    )
    for params in (net.weights, net.biases):
        with pytest.raises(TypeError):
            params[0] = np.full(params[0].shape, math.nan)
        with pytest.raises(AttributeError):
            params.append(np.zeros(1))
        assert len(params) == 2
    assert forward(net, [0.3, 0.7]) == 0.5


def test_zero_init_half_targets_is_a_fixed_point():
    data = [([0.0] * 10, 0.5), ([1.0] * 10, 0.5)]
    cfg = TrainConfig(init_range=(0.0, 0.0), max_epochs=10)
    net, report = train(NetworkTopology(), data, cfg)
    assert report.epochs_run == 1
    assert report.final_mse == 0.0
    assert report.converged
    assert forward(net, [0.0] * 10) == 0.5


def test_training_is_deterministic_and_seed_sensitive():
    rng = random.Random(44)
    data = [([rng.uniform(0, 1) for _ in range(10)], i % 2) for i in range(8)]
    cfg = TrainConfig(target_mse=1e-3, max_epochs=5000)
    net_a, rep_a = train(NetworkTopology(), data, cfg)
    net_b, rep_b = train(NetworkTopology(), data, cfg)
    assert net_a == net_b
    assert rep_a.history == rep_b.history
    net_c, _ = train(NetworkTopology(), data, TrainConfig(target_mse=1e-3, max_epochs=5000, seed=7))
    assert net_c != net_a


def test_plain_gradient_descent_descends():
    rng = random.Random(45)
    data = [([rng.uniform(0, 1) for _ in range(10)], i % 2) for i in range(6)]
    cfg = TrainConfig(learning_rate=0.01, momentum=0.0, target_mse=1e-12, max_epochs=400)
    _, report = train(NetworkTopology(), data, cfg)
    assert report.epochs_run == 400 and not report.converged
    for earlier, later in zip(report.history, report.history[1:]):
        assert later <= earlier + 1e-12


def test_history_records_post_update_mse():
    rng = random.Random(46)
    data = [([rng.uniform(0, 1) for _ in range(10)], i % 2) for i in range(4)]
    cfg = TrainConfig(target_mse=1e-2, max_epochs=3000)
    net, report = train(NetworkTopology(), data, cfg)
    batch_mse = sum((forward(net, x) - t) ** 2 for x, t in data) / len(data)
    assert report.final_mse == pytest.approx(batch_mse, rel=1e-12)
    assert report.final_mse == report.history[-1]
    assert report.epochs_run == len(report.history)


def _assert_same_training(got, want):
    (net, report), (ref_net, ref_report) = got, want
    assert report == ref_report  # history tuples included
    assert all(np.array_equal(a, b) for a, b in zip(net.weights, ref_net.weights))
    assert all(np.array_equal(a, b) for a, b in zip(net.biases, ref_net.biases))
    assert net_to_json(net) == net_to_json(ref_net)
    # the returned parameters are the caller's own arrays
    arrays = net.weights + net.biases
    assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(arrays, 2))


@st.composite
def _training_case(draw):
    sizes = [draw(st.integers(1, 6)) for _ in range(draw(st.integers(2, 4)))] + [1]
    unit = st.floats(0.0, 1.0)
    features = st.lists(unit, min_size=sizes[0], max_size=sizes[0])
    sample = st.tuples(features, st.sampled_from([0, 1]) | unit)
    data = draw(st.lists(sample, min_size=1, max_size=20))
    cfg = TrainConfig(
        learning_rate=draw(st.sampled_from([0.5, 2.0]) | st.floats(1e-3, 5.0)),
        momentum=draw(st.sampled_from([0.0, 0.9]) | st.floats(0.0, 0.99)),
        target_mse=draw(st.sampled_from([1e-1, 1e-2, 1e-3, 1e-9])),  # 1e-9: runs to the cap
        max_epochs=draw(st.integers(1, 300)),
        seed=draw(st.integers(0, 2**32)),
        init_range=draw(st.sampled_from([(-0.5, 0.5), (-2.0, 2.0), (0.0, 0.0), (0.1, 0.3)])),
    )
    return NetworkTopology(tuple(sizes)), data, cfg


@settings(max_examples=60, deadline=None)
@given(case=_training_case())
def test_training_matches_the_per_layer_reference(kernels, case):
    topology, data, cfg = case
    want = reference_fixed_train(topology, data, cfg)
    for kernel in kernels:
        with kernel():
            _assert_same_training(train(topology, data, cfg), want)


# SHA-256 of the seed-42 corpus's model.json at MSE 1e-5: the same bits on every machine
GOLDEN_MODEL_1E5_SHA256 = "400377f2efda2df169f9d5403e4d255866e4474133888767e0e73eb3b5f2ed61"


def test_corpus_training_matches_the_per_layer_reference(kernels, corpus):
    samples = rows_to_samples(load_training_rows(corpus["training_data"]))
    cfg = TrainConfig(target_mse=1e-5)
    want = reference_fixed_train(NetworkTopology(), samples, cfg)
    assert want[1].converged and want[1].epochs_run == 11_504
    model_json = net_to_json(want[0]).encode("utf-8")
    assert hashlib.sha256(model_json).hexdigest() == GOLDEN_MODEL_1E5_SHA256
    for kernel in kernels:
        with kernel():
            _assert_same_training(train(NetworkTopology(), samples, cfg), want)


def test_corpus_training_keeps_the_matmul_trainers_epochs_and_weights(corpus):
    """The fixed order of operations moves the weights by rounding only: the
    corpus crosses each MSE at the same epoch as under numpy's `@` and `np.exp`."""
    samples = rows_to_samples(load_training_rows(corpus["training_data"]))
    cfg = TrainConfig(target_mse=1e-6)
    net, report = train(NetworkTopology(), samples, cfg)
    ref_net, ref_report = reference_train(NetworkTopology(), samples, cfg)
    for history in (report.history, ref_report.history):
        crossed = [next(i for i, mse in enumerate(history, 1) if mse <= t) for t in (1e-4, 1e-5, 1e-6)]
        assert crossed == [1_361, 11_504, 102_227]
    assert report.epochs_run == ref_report.epochs_run == 102_227
    for got, want in zip(net.weights + net.biases, ref_net.weights + ref_net.biases):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_training_allocates_nothing_by_max_epochs(kernels):
    xor = [([0.0, 0.0], 0.0), ([0.0, 1.0], 1.0), ([1.0, 0.0], 1.0), ([1.0, 1.0], 0.0)]
    cfg = TrainConfig(target_mse=0.3, max_epochs=10**15)  # a buffer of 10**15 floats is 8 PB
    for kernel in kernels:
        with kernel():
            _, report = train(NetworkTopology((2, 4, 1)), xor, cfg)
        assert report.converged and report.epochs_run < 100


@pytest.mark.parametrize(
    "target,chunk,epochs",
    [(1e-3, 7, 40), (0.2, 11, 33)],
    ids=["to the cap", "converged on the last epoch of a call"],
)
def test_training_runs_past_one_kernel_call(kernels, monkeypatch, target, chunk, epochs):
    monkeypatch.setattr(neural, "_CHUNK_EPOCHS", chunk)
    data = [([0.2, 0.9], 1.0), ([0.8, 0.1], 0.0), ([0.5, 0.5], 1.0)]
    cfg = TrainConfig(target_mse=target, max_epochs=40)
    want = reference_fixed_train(NetworkTopology((2, 3, 1)), data, cfg)
    assert want[1].epochs_run == epochs
    for kernel in kernels:
        with kernel():
            _assert_same_training(train(NetworkTopology((2, 3, 1)), data, cfg), want)


def test_classify_threshold_is_inclusive():
    net = _zero_network(NetworkTopology())  # always outputs exactly 0.5
    label, score = classify(net, [0.3] * 10)
    assert score == RISK_THRESHOLD == 0.5
    assert label is Label.AT_RISK
    net = dataclasses.replace(net, biases=[net.biases[0], np.array([-1e-9])])  # just below 0.5
    label, score = classify(net, [0.3] * 10)
    assert score < 0.5
    assert label is Label.NORMAL


def test_label_display_strings():
    assert Label.AT_RISK.display == DISPLAY_AT_RISK == "highly risk of breast cancer"
    assert Label.NORMAL.display == DISPLAY_NORMAL == "Normal"
    assert Label.AT_RISK.value == "AtRisk"


def test_feature_vector_validation():
    FeatureVector(tuple([0.5] * 10))
    with pytest.raises(ValueError):
        FeatureVector(tuple([0.5] * 9))
    with pytest.raises(ValueError):
        FeatureVector(tuple([0.5] * 9 + [1.5]))
    with pytest.raises(ValueError):
        FeatureVector(tuple([0.5] * 9 + [float("nan")]))


def _effect(kind, ref_aa=None, alt_aa=None):
    return ProteinEffect(kind, ref_aa, alt_aa)


def test_encode_transition_substitution():
    ref = DnaSequence("r", "", random_bases(random.Random(47), 100))
    base = ref.bases[39]
    alt = {"A": "G", "G": "A", "C": "T", "T": "C"}[base]
    mut = Mutation(40, MutationKind.SUBSTITUTION, base, alt, _effect(EffectKind.MISSENSE, "A", "V"))
    vec = encode(mut, ref).values
    assert vec[0] == pytest.approx(40 / 100)
    assert vec[1:4] == (1.0, 0.0, 0.0)
    assert vec[4:7] == (0.0, 1.0, 0.0)
    assert vec[7] == 0.0
    assert vec[8] == pytest.approx(windowed_gc(ref, 40))
    assert vec[9] == 1.0


def test_encode_transversion_and_multi_base_rule():
    ref = DnaSequence("r", "", "ACGTACGTACGT")
    tv = Mutation(2, MutationKind.SUBSTITUTION, "C", "G", _effect(EffectKind.SILENT))
    assert encode(tv, ref).values[9] == 0.0
    assert encode(tv, ref).values[4:7] == (1.0, 0.0, 0.0)
    both_ts = Mutation(2, MutationKind.SUBSTITUTION, "CG", "TA", _effect(EffectKind.MISSENSE, "T", "I"))
    assert encode(both_ts, ref).values[9] == 1.0  # C>T and G>A are both transitions
    mixed = Mutation(2, MutationKind.SUBSTITUTION, "CG", "TC", _effect(EffectKind.MISSENSE, "T", "I"))
    assert encode(mixed, ref).values[9] == 0.0  # G>C transversion breaks the rule
    # unchanged columns are ignored by the transition rule
    partial = Mutation(2, MutationKind.SUBSTITUTION, "CG", "TG", _effect(EffectKind.MISSENSE, "T", "I"))
    assert encode(partial, ref).values[9] == 1.0


def test_encode_indels_and_frameshift_flag():
    ref = DnaSequence("r", "", "ACGTACGTACGT")
    ins = Mutation(4, MutationKind.INSERTION, "", "A", _effect(EffectKind.FRAMESHIFT))
    vec = encode(ins, ref).values
    assert vec[1:4] == (0.0, 1.0, 0.0)
    assert vec[4:7] == (0.0, 0.0, 0.0)
    assert vec[7] == 1.0
    assert vec[9] == 0.5
    dele = Mutation(4, MutationKind.DELETION, "TAC", "", _effect(EffectKind.MISSENSE))
    vec = encode(dele, ref).values
    assert vec[1:4] == (0.0, 0.0, 1.0)
    assert vec[7] == 0.0
    assert vec[9] == 0.5


def test_encode_insertion_before_start_clamps_window_center():
    ref = DnaSequence("r", "", "GCGCGCGCGC")
    ins = Mutation(0, MutationKind.INSERTION, "", "A", _effect(EffectKind.NON_CODING))
    vec = encode(ins, ref).values
    assert vec[0] == 0.0
    assert vec[8] == pytest.approx(windowed_gc(ref, 1))


def test_encode_requires_effect():
    ref = DnaSequence("r", "", "ACGT")
    with pytest.raises(ValueError):
        encode(Mutation(1, MutationKind.SUBSTITUTION, "A", "G"), ref)


def test_save_load_round_trip(tmp_path):
    rng = random.Random(48)
    net = _random_net(rng, [10, 4, 1])
    path = tmp_path / "model.json"
    save_net(net, path)
    loaded = load_net(path)
    assert loaded == net
    assert loaded.train_config is None
    for _ in range(100):
        x = [rng.uniform(0, 1) for _ in range(10)]
        assert forward(loaded, x) == forward(net, x)  # bit-exact


def test_save_load_preserves_train_config(tmp_path):
    data = [([0.1] * 10, 1)]
    net, _ = train(NetworkTopology(), data, TrainConfig(target_mse=0.5, max_epochs=5))
    path = tmp_path / "model.json"
    save_net(net, path)
    assert load_net(path).train_config == net.train_config


def test_load_rejects_corrupt_files(tmp_path):
    path = tmp_path / "bad.json"
    for text in ("{not json", "[" * 100_000, "[1" + "0" * 5000 + "]"):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(CorruptFileError):
            load_net(path)
    path.write_text(json.dumps({"format": "other", "version": 1}), encoding="utf-8")
    with pytest.raises(CorruptFileError):
        load_net(path)
    with pytest.raises(CorruptFileError):
        load_net(tmp_path / "missing.json")
    doc = {
        "format": "mutascan-model",
        "version": 1,
        "topology": [2, 2, 1],
        "weights": [[[0.0, 0.0]], [[0.0]]],  # wrong shapes for the topology
        "biases": [[0.0], [0.0]],
        "train_config": None,
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(CorruptFileError):
        load_net(path)

    net = _zero_network(NetworkTopology(), TrainConfig())
    save_net(net, path)
    good = json.loads(path.read_text(encoding="utf-8"))
    load_net(path)
    for edit in (
        {"topology": [10.9, 4, True]},  # int() would read it as (10, 4, 1)
        {"topology": [10, 4, 1.0]},
        {"train_config": {**good["train_config"], "max_epochs": 2.5}},
        {"train_config": {**good["train_config"], "seed": True}},
        {"train_config": {**good["train_config"], "learning_rate": 10**400}},
        {"train_config": {**good["train_config"], "momentum": False}},
        {"weights": [[[10**400] * 10] + good["weights"][0][1:], good["weights"][1]]},
        {"biases": [good["biases"][0], [10**400]]},  # numpy's float64() overflows
    ):
        path.write_text(json.dumps({**good, **edit}), encoding="utf-8")
        with pytest.raises(CorruptFileError):
            load_net(path)


def test_load_rejects_other_versions(tmp_path):
    net = _zero_network(NetworkTopology((2, 2, 1)))
    path = tmp_path / "model.json"
    save_net(net, path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["version"] = 2
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(VersionMismatchError):
        load_net(path)


def _write_rows(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_load_training_rows(tmp_path):
    path = tmp_path / "rows.jsonl"
    _write_rows(
        path,
        [
            json.dumps({"id": "a", "gene": "g", "features": [0.1] * 10, "label": 1}),
            "",
            json.dumps(
                {
                    "id": "b",
                    "gene": "g",
                    "mutation": {"position": 4, "kind": "substitution", "ref": "C", "alt": "T"},
                    "label": 0,
                }
            ),
        ],
    )
    rows = load_training_rows(path)
    assert [r.id for r in rows] == ["a", "b"]
    assert rows[0].features.values == tuple([0.1] * 10)
    assert rows[1].features is None and rows[1].mutation["position"] == 4


def test_load_training_rows_reports_line_numbers(tmp_path):
    path = tmp_path / "rows.jsonl"
    _write_rows(
        path,
        [
            json.dumps({"id": "a", "gene": "g", "features": [0.1] * 10, "label": 1}),
            json.dumps({"id": "b", "gene": "g", "features": [0.1] * 10, "label": 3}),
        ],
    )
    with pytest.raises(CorruptFileError) as exc:
        load_training_rows(path)
    assert ":2:" in str(exc.value)
    _write_rows(path, ["{broken"])
    with pytest.raises(CorruptFileError) as exc:
        load_training_rows(path)
    assert ":1:" in str(exc.value)
    _write_rows(path, [json.dumps({"id": "a", "gene": "g", "label": 1})])
    with pytest.raises(CorruptFileError):
        load_training_rows(path)
    path.write_text("", encoding="utf-8")
    with pytest.raises(EmptyDatasetError):
        load_training_rows(path)


def test_json_lines_split_only_at_newline(tmp_path):
    """U+2028, U+2029 and U+0085 may stand unescaped in a JSON string; CRLF still ends a line."""
    path = tmp_path / "rows.jsonl"
    row = {"id": "a\u2028b\u2029c\x85d", "gene": "g", "features": [0.1] * 10, "label": 1}
    path.write_text(json.dumps(row, ensure_ascii=False) + "\r\n", encoding="utf-8", newline="")
    [got] = load_training_rows(path)
    assert got.id == row["id"]
    bad = json.dumps({**row, "label": 3})
    _write_rows(path, [json.dumps(row, ensure_ascii=False), "", bad])
    with pytest.raises(CorruptFileError, match=r":3: label must be 0 or 1"):
        load_training_rows(path)


@pytest.mark.parametrize("load", [load_net, load_training_rows])
def test_missing_model_or_training_file_is_a_corrupt_file_error(tmp_path, load):
    path = tmp_path / "missing.json"
    with pytest.raises(CorruptFileError) as exc:
        load(path)
    assert str(exc.value) == f"cannot read {path}: No such file or directory"


def test_load_training_rows_rejects_non_utf8(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(b'{"id": "caf\xe9", "gene": "g", "features": [], "label": 1}\n')
    with pytest.raises(CorruptFileError) as exc:
        load_training_rows(path)
    assert str(path) in str(exc.value) and "not UTF-8" in str(exc.value)


def test_load_training_rows_checks_labels_and_features(tmp_path):
    path = tmp_path / "rows.jsonl"
    good = json.dumps({"id": "a", "gene": "g", "features": [0.1] * 10, "label": 1})
    for bad in (
        good.replace('"label": 1', '"label": 1e400'),
        good.replace('"label": 1', '"label": 0.7'),
        good.replace('"label": 1', '"label": "1"'),
        good.replace('"label": 1', '"label": true'),
        json.dumps({"id": "b", "gene": "g", "features": [0.1] * 9, "label": 1}),
        json.dumps({"id": "b", "gene": "g", "features": [0.1] * 9 + [1.5], "label": 0}),
        "[" * 100_000,
        "[1" + "0" * 5000 + "]",  # past int's string-conversion digit limit
    ):
        _write_rows(path, [good, bad])
        with pytest.raises(CorruptFileError) as exc:
            load_training_rows(path)
        assert f"{path}:2:" in str(exc.value)


_NOT_NUMBER_FEATURES = {  # each of these loaded as ten features before
    "a string of ten digits": "0101010101",
    "booleans": [True] * 10,
    "one boolean": [0.5] * 9 + [False],
    "numeric strings": ["0.5"] * 10,
    "an object with ten numeric keys": {f"0.{i}": 1 for i in range(10)},
}


@pytest.mark.parametrize(
    "features", _NOT_NUMBER_FEATURES.values(), ids=_NOT_NUMBER_FEATURES.keys()
)
def test_load_training_rows_refuses_features_that_are_not_json_numbers(tmp_path, features):
    path = tmp_path / "rows.jsonl"
    good = {"id": "a", "gene": "g", "features": [0.5] * 10, "label": 1}
    _write_rows(path, [json.dumps(good), json.dumps({**good, "features": features})])
    with pytest.raises(CorruptFileError) as exc:
        load_training_rows(path)
    assert str(exc.value).startswith(f"{path}:2: bad row: ")


@pytest.mark.parametrize("field", ["weights", "biases"])
@pytest.mark.parametrize("value", ["0.25", True], ids=["a numeric string", "true"])
def test_load_net_refuses_parameters_that_are_not_json_numbers(tmp_path, field, value):
    path = tmp_path / "model.json"
    save_net(_zero_network(NetworkTopology()), path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    first_layer = doc[field][0]  # weights [[w] * 10] * 4, biases [b] * 4
    (first_layer[0] if field == "weights" else first_layer)[0] = value
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(CorruptFileError) as exc:
        load_net(path)
    assert str(exc.value).startswith(f"model file {path} is malformed: ")


_TRAINING_ROW = st.fixed_dictionaries(
    {},
    optional={
        "id": plausible_or_any("a"),
        "gene": plausible_or_any("g"),
        "label": plausible_or_any(0, 1) | st.floats(),
        "features": st.lists(st.floats(-0.5, 1.5) | json_values, max_size=11)
        | json_values,
        "mutation": plausible_or_any(
            {"position": 4, "kind": "substitution", "ref": "C", "alt": "T"}
        ),
    },
)
_DESCRIPTOR_ROW = st.fixed_dictionaries(
    {
        "id": st.just("d"),
        "gene": st.just("g"),
        "label": st.sampled_from([0, 1]),
        "mutation": st.fixed_dictionaries(
            {
                "position": st.sampled_from([0, 4, 9, 13, 1.7, True, "4"]),
                "kind": st.sampled_from(["substitution", "insertion", "deletion"]),
                "ref": st.sampled_from(["", "C", "CA", 7]),
                "alt": st.sampled_from(["", "T", "X", "TN", "t"]),
            }
        )
        | json_values,
    }
)
_TRAINING_LINE = st.one_of(
    _TRAINING_ROW.map(json.dumps),
    _DESCRIPTOR_ROW.map(json.dumps),
    json_values.map(json.dumps),
    st.text(max_size=30),
)


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(_TRAINING_LINE, max_size=4))
def test_any_json_lines_text_loads_or_raises_a_mutascan_error(tmp_path_factory, lines):
    path = tmp_path_factory.getbasetemp() / "training-fuzz.jsonl"
    path.write_bytes("\n".join(lines).encode("utf-8", "surrogatepass"))
    try:
        rows = load_training_rows(path)
    except MutascanError:
        return
    assert rows and all(r.label in (0, 1) for r in rows)
    rows_to_samples([r for r in rows if r.features is not None])
    ref = DnaSequence("r", "", "ATGCAAGGGTTT")
    try:
        rows_to_samples(rows, ref=ref, cds_start=1, cds_end=9)
    except MutascanError:
        pass


def test_rows_to_samples_descriptor_path(tmp_path):
    ref = DnaSequence("r", "", "ATGCAAGGGTTT")
    path = tmp_path / "rows.jsonl"
    _write_rows(
        path,
        [
            json.dumps(
                {
                    "id": "m1",
                    "gene": "g",
                    "mutation": {"position": 4, "kind": "substitution", "ref": "C", "alt": "T"},
                    "label": 1,
                }
            )
        ],
    )
    rows = load_training_rows(path)
    with pytest.raises(NeuralError):
        rows_to_samples(rows)
    samples = rows_to_samples(rows, ref=ref, cds_start=1, cds_end=9)
    assert len(samples) == 1
    vec, label = samples[0]
    assert label == 1
    effect = classify_effect(
        Mutation(4, MutationKind.SUBSTITUTION, "C", "T"), ref, 1, 9
    )
    assert effect.kind is EffectKind.NONSENSE
    assert vec.values[6] == 1.0  # nonsense one-hot
    assert vec.values[9] == 1.0  # C>T transition

    for bad in (
        {"position": 1e400, "kind": "substitution", "ref": "C", "alt": "T"},
        {"position": 1.7, "kind": "substitution", "ref": "C", "alt": "T"},
        {"position": "4", "kind": "substitution", "ref": "C", "alt": "T"},
        {"position": True, "kind": "substitution", "ref": "A", "alt": "T"},
        {"position": 4, "kind": "substitution", "ref": 7, "alt": "T"},
        {"position": 4, "kind": "substitution", "ref": "C", "alt": "X"},
        {"position": 4, "kind": "substitution", "ref": "c", "alt": "t"},
        {"position": 4, "kind": "insertion", "alt": ["T"]},
        {"position": 4, "kind": "substitution", "ref": "A", "alt": "G"},  # base 4 is C
        {"position": 9, "kind": "deletion", "ref": "GTTTT"},  # runs past base 12
        {"position": 40, "kind": "substitution", "ref": "A", "alt": "G"},  # outside the reference
    ):
        _write_rows(path, [json.dumps({"id": "m2", "gene": "g", "label": 1, "mutation": bad})])
        with pytest.raises(CorruptFileError, match="row m2: bad mutation descriptor"):
            rows_to_samples(load_training_rows(path), ref=ref, cds_start=1, cds_end=9)
