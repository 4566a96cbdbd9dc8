"""Feed-forward backpropagation classifier for malignant-candidate mutations.

A from-scratch multi-layer perceptron: logistic sigmoid on every non-input
layer, full-batch gradient descent on mean squared error with momentum,
seeded uniform weight initialization, zero-initialized biases. The default
topology is 10-4-1 (ten mutation features, four hidden units, one risk
output). Models persist as versioned JSON and round-trip bit-exactly.

Training and scoring run one fixed sequence of IEEE operations, so a model
and its scores have the same bits whatever SIMD extensions the CPU has and
whether or not a compiler is found.
The sigmoid's exp(-|z|) is built from floor, +, * and ldexp only
(`_fixed_exp`); a unit's input is summed one term at a time in index order,
then its bias is added; gradients are summed over samples in sample order.
`train` runs the epochs in the compiled kernel (`_native.Kernel.train`) or,
without one, in `_train_numpy`, which spells the same operations in numpy.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
from dataclasses import asdict, dataclass, field, replace
from enum import Enum
from functools import reduce
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from . import _native
from .align import Mutation, MutationKind, apply_mutations, mutation_from_dict
from .errors import MutascanError, PositionOutOfRangeError
from .protein import EffectKind, classify_effect
from .seqio import DnaSequence, read_text, write_texts_atomic
from .seqstats import windowed_gc

MODEL_FORMAT = "mutascan-model"
MODEL_VERSION = 1

# a candidate scoring at or above this is labelled AtRisk
RISK_THRESHOLD = 0.5

# epochs per kernel call: no buffer grows with max_epochs, and Ctrl-C lands between calls
_CHUNK_EPOCHS = 65_536

# The fixed exp's constants, as `_band.c` spells them: exp(x) rounds to 0 at
# and below _EXP_LO; ln 2 split for the Cody-Waite reduction, the high part
# with its low 21 bits 0; and 1/0! .. 1/12!, each correctly rounded.
_EXP_LO = -746.0
_INV_LN2 = float.fromhex("0x1.71547652b82fep+0")
_LN2_HI = float.fromhex("0x1.62e42feep-1")
_LN2_LO = float.fromhex("0x1.a39ef35793c76p-33")
_TAYLOR = tuple(1.0 / math.factorial(i) for i in range(13))

DISPLAY_AT_RISK = "highly risk of breast cancer"
DISPLAY_NORMAL = "Normal"


class NeuralError(MutascanError):
    pass


class DimensionMismatchError(NeuralError):
    pass


class EmptyDatasetError(NeuralError):
    pass


class CorruptFileError(NeuralError):
    pass


class VersionMismatchError(NeuralError):
    pass


class Label(Enum):
    AT_RISK = "AtRisk"
    NORMAL = "Normal"

    @property
    def display(self) -> str:
        return DISPLAY_AT_RISK if self is Label.AT_RISK else DISPLAY_NORMAL


@dataclass(frozen=True)
class FeatureVector:
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) != 10:
            raise ValueError("feature vector must have exactly 10 components")
        for i, v in enumerate(self.values):
            if not (0.0 <= v <= 1.0) or not math.isfinite(v):
                raise ValueError(f"feature {i + 1} = {v} outside [0, 1]")


@dataclass(frozen=True)
class NetworkTopology:
    layer_sizes: tuple[int, ...] = (10, 4, 1)

    def __post_init__(self):
        if len(self.layer_sizes) < 3:
            raise ValueError("need input, at least one hidden, and output layer")
        if any(type(s) is not int or s < 1 for s in self.layer_sizes):  # bool is an int
            raise ValueError(f"layer sizes must be positive integers, got {self.layer_sizes!r}")
        if self.layer_sizes[-1] != 1:
            raise ValueError("output layer must have exactly one node")

    @property
    def input_size(self) -> int:
        return self.layer_sizes[0]


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.5
    momentum: float = 0.9
    target_mse: float = 1e-9
    max_epochs: int = 500_000
    seed: int = 42
    init_range: tuple[float, float] = (-0.5, 0.5)

    def __post_init__(self):
        lr = _real("learning rate", self.learning_rate)
        momentum = _real("momentum", self.momentum)
        target = _real("target MSE", self.target_mse)
        if not (math.isfinite(lr) and lr > 0):
            raise ValueError(f"learning rate must be finite and positive, got {self.learning_rate}")
        if not (0.0 <= momentum < 1.0):
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if not (math.isfinite(target) and target > 0):
            raise ValueError(f"target MSE must be finite and positive, got {self.target_mse}")
        if type(self.max_epochs) is not int or type(self.seed) is not int:  # bool is an int
            raise ValueError(
                f"max epochs and seed must be integers, got {self.max_epochs!r}, {self.seed!r}"
            )
        if self.max_epochs < 1:
            raise ValueError(f"max epochs must be at least 1, got {self.max_epochs}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        bounds = [_real("init range bound", b) for b in self.init_range]
        if len(bounds) != 2 or not all(map(math.isfinite, bounds)):
            raise ValueError(f"init range must be two finite bounds, got {self.init_range}")
        if bounds[0] > bounds[1]:
            raise ValueError("init range lower bound exceeds upper bound")


def _real(name: str, value) -> float:
    """A number read from a file or given as a config value, as a float: any real
    number but a bool, never a numeric string. A config field keeps the value as given."""
    # bool is an int; int and float come before the ABC, which is ten times slower to check
    if isinstance(value, bool) or not isinstance(value, (int, float, numbers.Real)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:  # an int too large for a float
        raise ValueError(f"{name} is too large for a float") from exc


@dataclass(frozen=True)
class TrainReport:
    epochs_run: int
    final_mse: float
    converged: bool
    history: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class Network:
    """A checked network. Its weights and biases are tuples of read-only copies,
    views over immutable bytes that no caller can make writeable again, so no
    one can write or swap a parameter the checks did not see."""

    topology: NetworkTopology
    weights: tuple[np.ndarray, ...]  # per layer pair, shape (to_size, from_size)
    biases: tuple[np.ndarray, ...]  # per non-input layer, shape (to_size,)
    train_config: TrainConfig | None = None

    def __post_init__(self):
        sizes = self.topology.layer_sizes
        if len(self.weights) != len(sizes) - 1 or len(self.biases) != len(sizes) - 1:
            raise DimensionMismatchError("parameter count does not match topology")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (sizes[i + 1], sizes[i]) or b.shape != (sizes[i + 1],):
                raise DimensionMismatchError(
                    f"layer {i} parameters have shape {w.shape}/{b.shape}, "
                    f"expected {(sizes[i + 1], sizes[i])}/{(sizes[i + 1],)}"
                )
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError("network parameters must be finite")
        for name in ("weights", "biases"):
            frozen = tuple(
                np.frombuffer(np.asarray(a, dtype=np.float64).tobytes()).reshape(a.shape)
                for a in getattr(self, name)
            )
            object.__setattr__(self, name, frozen)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Network):
            return NotImplemented
        return (
            self.topology == other.topology
            and all(np.array_equal(a, b) for a, b in zip(self.weights, other.weights))
            and all(np.array_equal(a, b) for a, b in zip(self.biases, other.biases))
        )


def _layer_views(
    flat: np.ndarray, sizes: Sequence[int]
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer (weights, biases) views into one flat buffer laid out W0, b0, W1, b1, ..."""
    weights, biases, at = [], [], 0
    for n_in, n_out in zip(sizes, sizes[1:]):
        weights.append(flat[at : at + n_out * n_in].reshape(n_out, n_in))
        at += n_out * n_in
        biases.append(flat[at : at + n_out])
        at += n_out
    return weights, biases


def _fixed_exp(x: np.ndarray) -> np.ndarray:
    """exp(x) for x <= 0, and a nan as np.exp returns it, from floor, +, * and ldexp.

    Cody-Waite reduction by ln 2, x = k ln 2 + r with |r| <= ln 2 / 2, then
    the degree-12 Taylor polynomial of e^r in Horner form, then ldexp(p, k):
    the operations of the exp in `_band.c`'s sigmoid_layer, so the bits do
    not depend on numpy's SIMD dispatch. Clamping at _EXP_LO, where exp
    rounds to 0, keeps k an int; a nan is put back in at the end.
    """
    c = np.fmax(x, _EXP_LO)  # fmax gives _EXP_LO for a nan, so no nan becomes an int
    k = np.floor(c * _INV_LN2 + 0.5)
    r = (c - k * _LN2_HI) - k * _LN2_LO
    p = np.full_like(r, _TAYLOR[-1])
    for coefficient in _TAYLOR[-2::-1]:
        p *= r
        p += coefficient
    return np.where(np.isnan(x), x, np.ldexp(p, k.astype(np.int32)))


def _exp_float(x: float) -> float:
    """`_fixed_exp` on one Python float, with the same operations and bits."""
    if x != x:
        return x
    c = x if x > _EXP_LO else _EXP_LO
    k = math.floor(c * _INV_LN2 + 0.5)
    r = (c - k * _LN2_HI) - k * _LN2_LO
    p = _TAYLOR[-1]
    for coefficient in _TAYLOR[-2::-1]:
        p = p * r + coefficient
    return math.ldexp(p, k)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-|z|) never overflows; one division serves both signs' split forms,
    # 1 / (1 + e) for z >= 0 and e / (1 + e) below
    e = _fixed_exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _sigmoid_float(z: float) -> float:
    """`_sigmoid` on one Python float, with the same operations and bits."""
    e = _exp_float(-abs(z))
    return (1.0 if z >= 0 else e) / (1.0 + e)


def _as_input(x, width: int) -> np.ndarray:
    values = x.values if isinstance(x, FeatureVector) else x
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != (width,):
        raise DimensionMismatchError(
            f"input has {arr.shape[0] if arr.ndim == 1 else 'bad'} components, "
            f"expected {width}"
        )
    return arr


def _forward_all(weights, biases, batch: np.ndarray) -> list[np.ndarray]:
    """Every layer's activations for a batch of inputs, the inputs first.

    A unit's input is summed one term at a time in index order, then its
    bias is added; `np.add.accumulate` keeps that order where `@` would not.
    """
    acts = [batch]
    for w, b in zip(weights, biases):
        terms = acts[-1][:, np.newaxis, :] * w  # (samples, units, inputs)
        acts.append(_sigmoid(np.add.accumulate(terms, axis=2)[:, :, -1] + b))
    return acts


def forward(net: Network, x) -> float:
    """Propagate one input through the network; output strictly in (0, 1).

    Plain Python floats in `_forward_all`'s order, with the same bits: a
    score is the same whether the network was trained here or loaded, and
    one input costs less than numpy's per-call overhead would.
    """
    acts = _as_input(x, net.topology.input_size).tolist()
    for w, b in zip(net.weights, net.biases):
        acts = [
            _sigmoid_float(reduce(operator.add, map(operator.mul, row, acts)) + bias)
            for row, bias in zip(w.tolist(), b.tolist())
        ]
    return acts[0]


def gradient(net: Network, sample: tuple) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Exact partials of the squared error (output - target)^2 for one sample.

    Returns (weight gradients, bias gradients) with the same shapes as the
    network parameters.
    """
    x, target = sample
    arr = _as_input(x, net.topology.input_size)
    acts = _forward_all(net.weights, net.biases, arr[np.newaxis, :])
    t = np.asarray([[float(target)]])
    d_weights = [np.empty_like(w) for w in net.weights]
    d_biases = [np.empty_like(b) for b in net.biases]
    _backward(net.weights, acts, t, 1.0, d_weights, d_biases)
    return d_weights, d_biases


def _backward(
    weights: list[np.ndarray],
    acts: list[np.ndarray],
    targets: np.ndarray,
    scale: float,
    d_weights: list[np.ndarray],
    d_biases: list[np.ndarray],
) -> None:
    """Reverse pass for E = scale * sum_samples (output - target)^2.

    Writes each layer's partials into `d_weights` and `d_biases`, arrays
    shaped like the network's parameters. Sums over samples run in sample
    order, and a unit's back-propagated sum in index order.
    """
    out = acts[-1]
    delta = 2.0 * scale * (out - targets) * out * (1.0 - out)
    for layer in range(len(weights) - 1, -1, -1):
        a = acts[layer]
        terms = delta[:, :, np.newaxis] * a[:, np.newaxis, :]  # (samples, units, inputs)
        d_weights[layer][...] = np.add.accumulate(terms, axis=0)[-1]
        d_biases[layer][...] = np.add.accumulate(delta, axis=0)[-1]
        if layer > 0:
            terms = delta[:, :, np.newaxis] * weights[layer]
            delta = np.add.accumulate(terms, axis=1)[:, -1, :] * a * (1.0 - a)


@np.errstate(all="ignore")  # a diverging run is `train`'s error, as in the C kernel
def _train_numpy(
    sizes: tuple[int, ...],
    inputs: np.ndarray,
    targets: np.ndarray,
    learning_rate: float,
    momentum: float,
    target_mse: float,
    params: np.ndarray,
    vel: np.ndarray,
    history: np.ndarray,
) -> int:
    """`_native.Kernel.train` in numpy: the same arguments, and the same bits in
    `params`, `vel`, `history` and the returned epoch count. The fallback where
    the compiled kernel cannot be built, and its oracle.

    Runs at most `len(history)` epochs of momentum descent on the flat
    W0, b0, W1, b1, ... buffers `params` and `vel`, writing each epoch's
    post-update MSE to `history`; stops after the first at or below
    `target_mse` or not finite and returns the number run.
    """
    weights, biases = _layer_views(params, sizes)
    grads = np.empty_like(params)
    d_weights, d_biases = _layer_views(grads, sizes)
    scale = 1.0 / len(inputs)
    acts = _forward_all(weights, biases, inputs)
    for epoch in range(len(history)):
        _backward(weights, acts, targets, scale, d_weights, d_biases)
        vel *= momentum
        vel -= learning_rate * grads
        params += vel
        acts = _forward_all(weights, biases, inputs)
        err = acts[-1] - targets
        history[epoch] = mse = np.add.accumulate((err * err).ravel())[-1] / err.size
        if mse <= target_mse or not math.isfinite(mse):
            return epoch + 1
    return len(history)


def train(
    topology: NetworkTopology,
    data: Sequence[tuple],
    cfg: TrainConfig = TrainConfig(),
) -> tuple[Network, TrainReport]:
    """Full-batch gradient descent with momentum toward the target MSE.

    MSE = (1/S) * sum over samples of (output - target)^2; the history
    records the post-update MSE of every epoch, so the report's curve is
    exactly what a monitoring plot would show. Deterministic for a fixed
    seed, dataset, and config, and the same bits on either kernel.

    The epochs run in the compiled kernel where it loads, else in
    `_train_numpy`, at most `_CHUNK_EPOCHS` a call. A run stops at its
    first MSE that is not finite; a run that ends there, or with a
    parameter not finite, raises NeuralError.
    """
    if len(data) == 0:
        raise EmptyDatasetError("training data is empty")
    sizes = topology.layer_sizes
    inputs = np.stack([_as_input(x, sizes[0]) for x, _ in data])
    targets = np.asarray([[float(t)] for _, t in data])

    params = np.zeros(_native.param_count(sizes))
    rng = np.random.default_rng(cfg.seed)
    for w in _layer_views(params, sizes)[0]:
        w[...] = rng.uniform(*cfg.init_range, size=w.shape)
    vel = np.zeros_like(params)
    kernel = _native.load()
    train_epochs = _train_numpy if kernel is None else kernel.train
    rates = (float(cfg.learning_rate), float(cfg.momentum), float(cfg.target_mse))

    history: list[float] = []
    while True:
        chunk = np.empty(min(_CHUNK_EPOCHS, cfg.max_epochs - len(history)))
        run = train_epochs(sizes, inputs, targets, *rates, params, vel, chunk)
        history += chunk[:run].tolist()
        mse = history[-1]
        if mse <= cfg.target_mse or not math.isfinite(mse) or len(history) == cfg.max_epochs:
            break

    diverged = f"training diverged after {len(history)} epochs, final MSE {mse:.3e}"
    if not math.isfinite(mse):
        raise NeuralError(diverged)
    try:  # the network copies the buffer: the caller's and the training buffers stay apart
        net = Network(topology, *_layer_views(params, sizes), train_config=cfg)
    except ValueError as exc:  # a parameter is not finite
        raise NeuralError(diverged) from exc
    report = TrainReport(
        epochs_run=len(history),
        final_mse=history[-1],
        converged=history[-1] <= cfg.target_mse,
        history=tuple(history),
    )
    return net, report


def classify(net: Network, x) -> tuple[Label, float]:
    """Label an input AtRisk when its score reaches `RISK_THRESHOLD` (inclusive)."""
    score = forward(net, x)
    label = Label.AT_RISK if score >= RISK_THRESHOLD else Label.NORMAL
    return label, score


# the base a transition substitution puts in place of each base
TRANSITION = {"A": "G", "G": "A", "C": "T", "T": "C"}


def encode(mut: Mutation, ref: DnaSequence) -> FeatureVector:
    """Encode one classified mutation as the fixed 10-component vector.

    Components, in order: f1 position/refLength; f2-f4 one-hot kind
    (substitution, insertion, deletion); f5-f7 one-hot effect (Silent,
    Missense, Nonsense), all zero for Frameshift and NonCoding; f8
    frameshift flag; f9 GC fraction of the 21-base window around the
    position (clamped to base 1 for an insertion before the start); f10
    1 for a transition substitution, 0 for a transversion, 0.5 for indels.
    A multi-base substitution counts as a transition only if every changed
    column is one.
    """
    if mut.effect is None:
        raise ValueError("mutation must carry a protein effect before encoding")
    kind_hot = {
        MutationKind.SUBSTITUTION: (1.0, 0.0, 0.0),
        MutationKind.INSERTION: (0.0, 1.0, 0.0),
        MutationKind.DELETION: (0.0, 0.0, 1.0),
    }[mut.kind]
    effect_hot = {
        EffectKind.SILENT: (1.0, 0.0, 0.0),
        EffectKind.MISSENSE: (0.0, 1.0, 0.0),
        EffectKind.NONSENSE: (0.0, 0.0, 1.0),
    }.get(mut.effect.kind, (0.0, 0.0, 0.0))
    if mut.kind is MutationKind.SUBSTITUTION:
        changed = [
            (r, a) for r, a in zip(mut.ref_bases, mut.alt_bases) if r != a
        ]
        f10 = 1.0 if changed and all(TRANSITION.get(r) == a for r, a in changed) else 0.0
    else:
        f10 = 0.5
    return FeatureVector(
        (
            mut.position / len(ref),
            *kind_hot,
            *effect_hot,
            1.0 if mut.effect.kind is EffectKind.FRAMESHIFT else 0.0,
            windowed_gc(ref, max(1, mut.position)),
            f10,
        )
    )


def save_net(net: Network, path: str | Path) -> None:
    """Write the network as versioned JSON; floats keep full precision."""
    write_texts_atomic({path: net_to_json(net)})


def net_to_json(net: Network) -> str:
    """The text of a model file, as `save_net` writes it and `load_net` reads it."""
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "topology": list(net.topology.layer_sizes),
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
        "train_config": None if net.train_config is None else asdict(net.train_config),
    }
    return json.dumps(doc, indent=2) + "\n"


def load_net(path: str | Path) -> Network:
    text = read_text(path, CorruptFileError)
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError: an int past the digit limit
        raise CorruptFileError(f"model file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise CorruptFileError(f"{path} is not a model file")
    if doc.get("version") != MODEL_VERSION:
        raise VersionMismatchError(
            f"model version {doc.get('version')!r}, expected {MODEL_VERSION}"
        )
    try:
        topology = NetworkTopology(tuple(doc["topology"]))
        weights = [_parameters("weight", w) for w in doc["weights"]]
        biases = [_parameters("bias", b) for b in doc["biases"]]
        cfg_doc = doc.get("train_config")
        cfg = (
            None
            if cfg_doc is None
            else TrainConfig(
                learning_rate=cfg_doc["learning_rate"],
                momentum=cfg_doc["momentum"],
                target_mse=cfg_doc["target_mse"],
                max_epochs=cfg_doc["max_epochs"],
                seed=cfg_doc["seed"],
                init_range=tuple(cfg_doc["init_range"]),
            )
        )
        return Network(topology, weights, biases, train_config=cfg)
    except (KeyError, TypeError, ValueError, DimensionMismatchError) as exc:
        raise CorruptFileError(f"model file {path} is malformed: {exc}") from exc


def _parameters(name: str, values) -> np.ndarray:
    """A layer's weights or biases from nested JSON arrays, each entry a JSON number."""
    for v in np.asarray(values, dtype=object).ravel():  # a ragged array has lists as entries
        _real(name, v)
    return np.asarray(values, dtype=np.float64)


@dataclass(frozen=True)
class TrainingRow:
    """One line of a training dataset file.

    Rows carry either a ready feature vector or a mutation descriptor to be
    encoded against a reference at load time.
    """

    id: str
    gene: str
    label: int
    features: FeatureVector | None = None
    mutation: dict | None = field(default=None)


def read_json_lines(path: str | Path) -> Iterator[tuple[int, object]]:
    """(1-based line number, value) for each non-blank line of a JSON-lines file."""
    text = read_text(path, CorruptFileError)
    # "\n" only: splitlines also breaks at U+2028 and U+0085, which JSON strings may hold
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip(" \t\r"):  # JSON whitespace
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:  # ValueError: an int past the digit limit
            raise CorruptFileError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        yield lineno, obj


def parse_features(values, where: str) -> FeatureVector:
    """The feature vector of a row's JSON `features` array, each entry a JSON number;
    `where` is file:line."""
    try:
        if not isinstance(values, list):
            raise ValueError(f"features must be an array, not a JSON {type(values).__name__}")
        return FeatureVector(tuple(_real("a feature", v) for v in values))
    except ValueError as exc:
        raise CorruptFileError(f"{where}: bad row: {exc}") from exc


def load_training_rows(path: str | Path) -> list[TrainingRow]:
    """Parse a JSON-lines training file: {id, gene, features|mutation, label}."""
    rows: list[TrainingRow] = []
    for lineno, obj in read_json_lines(path):
        where = f"{path}:{lineno}"
        try:
            row = TrainingRow(
                id=str(obj["id"]),
                gene=str(obj["gene"]),
                label=obj["label"],
                features=parse_features(obj["features"], where) if "features" in obj else None,
                mutation=obj.get("mutation"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CorruptFileError(f"{where}: bad row: {exc}") from exc
        if type(row.label) is not int or row.label not in (0, 1):  # refuses 1.0, "1", true
            raise CorruptFileError(f"{where}: label must be 0 or 1")
        if row.features is None and row.mutation is None:
            raise CorruptFileError(
                f"{where}: row needs features or a mutation descriptor"
            )
        rows.append(row)
    if not rows:
        raise EmptyDatasetError(f"no training rows in {path}")
    return rows


def rows_to_samples(
    rows: list[TrainingRow],
    ref: DnaSequence | None = None,
    cds_start: int | None = None,
    cds_end: int | None = None,
) -> list[tuple[FeatureVector, int]]:
    """Resolve rows to (features, label) pairs.

    Descriptor-only rows are classified and encoded against `ref` and its
    CDS; without a reference they are rejected, since the encoding needs
    sequence context. A descriptor that leaves `ref` or names bases `ref`
    does not hold is a CorruptFileError.
    """
    samples: list[tuple[FeatureVector, int]] = []
    for row in rows:
        if row.features is not None:
            samples.append((row.features, row.label))
            continue
        if ref is None or cds_start is None or cds_end is None:
            raise NeuralError(
                f"row {row.id} has only a mutation descriptor; encoding it "
                "requires a reference sequence and CDS bounds"
            )
        try:
            mut = mutation_from_dict(row.mutation)
            apply_mutations(ref, [mut])  # its range and reference-base checks
        except (KeyError, TypeError, ValueError, OverflowError, PositionOutOfRangeError) as exc:
            raise CorruptFileError(f"row {row.id}: bad mutation descriptor: {exc}") from exc
        effect = classify_effect(mut, ref, cds_start, cds_end)
        samples.append((encode(replace(mut, effect=effect), ref), row.label))
    return samples
