"""Fixtures shared by several test modules."""

import time

import pytest

from adflow.mrnet import MrRegressor, mr_train
from adflow.signal import DatasetConfig, make_dataset
from adflow.velnet import TrainConfig, VelocityNet, train_velocity


# ---------------------------------------------------------------------------
# Shared trained system for criterion 6 and the paper's claims (500 items,
# one training run per session)

@pytest.fixture(scope="session")
def trained_system():
    t0 = time.time()
    train = make_dataset(500, "uniform", DatasetConfig(duration_s=0.5), seed=0)
    net = VelocityNet.create(0)
    net, _ = train_velocity(net, train, TrainConfig(
        lr_init=3e-3, lr_min=1e-4, warmup_epochs=5, t_max_epochs=75,
        epochs=80, batch_size=32, seed=0))
    reg = MrRegressor.create(17)
    reg, _ = mr_train(reg, train, TrainConfig(
        lr_init=1e-3, lr_min=1e-5, warmup_epochs=5, t_max_epochs=95,
        weight_decay=0.05, epochs=100, batch_size=16, seed=0))
    return net, reg, time.time() - t0
