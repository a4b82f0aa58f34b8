import pytest

from rnnmf import InputStats, get_architecture
from rnnmf.verify import make_theta, random_theta, zero_variance_theta  # noqa: F401  (shared with the tests)


@pytest.fixture
def unit_inputs():
    return InputStats(1.0, 1.0)


@pytest.fixture(params=["vanillaRNN", "minimalRNN", "GRU", "peepholeLSTM", "LSTM"])
def any_arch(request):
    return get_architecture(request.param)


@pytest.fixture(params=["vanillaRNN", "minimalRNN", "GRU", "peepholeLSTM"])
def quadrature_arch(request):
    """Architectures whose moment maps need no sampling."""
    return get_architecture(request.param)
