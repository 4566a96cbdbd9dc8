import contextlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from mutascan import _native
from mutascan.neural import NetworkTopology, TrainConfig, load_training_rows, rows_to_samples, save_net, train


@pytest.fixture(scope="session")
def corpus(tmp_path_factory):
    """Deterministic seed-42 corpus shared by pipeline, CLI, and gate tests."""
    from mutascan.corpus import make_synthetic_corpus

    out = tmp_path_factory.mktemp("corpus")
    return make_synthetic_corpus(42, out)


@pytest.fixture(scope="session", autouse=True)
def _kernel_cache(tmp_path_factory):
    """Build the compiled kernel into the session's temp directory, not the user's cache."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
        yield


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


@contextlib.contextmanager
def _numpy_kernel():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_native, "load", lambda: None)
        yield


@pytest.fixture(scope="session")
def kernels():
    """Context managers that run a block under each banded kernel.

    The first leaves the loader alone, so the compiled kernel runs where it
    loads; the second makes the loader report no kernel, so `align` runs its
    numpy fill and Python traceback. Session-scoped, so hypothesis tests can
    take it: `for kernel in kernels: with kernel(): ...`.
    """
    return (contextlib.nullcontext, _numpy_kernel)
