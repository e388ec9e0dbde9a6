import pytest

from multiprompt.kernels import CounterSink
from multiprompt.model import ModelConfig, init_weights


@pytest.fixture
def tiny_config():
    return ModelConfig(
        d_model=16, n_heads=2, n_enc_layers=2, n_dec_layers=2,
        d_ff=32, vocab_size=23, max_len=64,
    )


@pytest.fixture
def tiny_weights(tiny_config):
    return init_weights(tiny_config, seed=0)


@pytest.fixture
def sink():
    return CounterSink()
