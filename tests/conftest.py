import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from mutascan.neural import NetworkTopology, TrainConfig, load_training_rows, rows_to_samples, save_net, train


@pytest.fixture(scope="session")
def corpus(tmp_path_factory):
    """Deterministic seed-42 corpus shared by pipeline, CLI, and gate tests."""
    from mutascan.corpus import make_synthetic_corpus

    out = tmp_path_factory.mktemp("corpus")
    return make_synthetic_corpus(42, out)


FAST_TRAIN = TrainConfig(target_mse=1e-4, max_epochs=100_000)


@pytest.fixture(scope="session")
def trained_model(corpus, tmp_path_factory):
    """Model trained once from the corpus training file, saved to disk."""
    rows = load_training_rows(corpus["training_data"])
    samples = rows_to_samples(rows)
    net, report = train(NetworkTopology(), samples, FAST_TRAIN)
    assert report.converged
    path = tmp_path_factory.mktemp("model") / "model.json"
    save_net(net, path)
    return path
