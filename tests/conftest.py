"""Shared fixtures: the IDX image directory the VAE tests train and evaluate on."""

import importlib.util
import os

import numpy as np
import pytest

from hvi.experiments import make_data
from hvi.idx import write_idx_images, write_idx_labels

# At least the largest --subset-size the VAE tests pass (192), so every subset
# is taken as written; side 28 is make_data's, so a VAE trained on either set
# has 784 inputs.
SYNTHETIC_IMAGES = 400
SYNTHETIC_SIDE = 28
SYNTHETIC_SEED = 20190501


def _synthetic_rings(n, side, seed):
    """Seeded grey-level images in (0, 1]: one blurred ring each."""
    g = np.random.default_rng(seed)
    centre = g.uniform(0.35, 0.65, (n, 1, 1, 2))
    radius = g.uniform(0.12, 0.3, (n, 1, 1))
    width = g.uniform(0.03, 0.07, (n, 1, 1))
    axis = np.linspace(0.0, 1.0, side)
    grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1)[None]   # (1, S, S, 2)
    dist = np.sqrt(np.sum((grid - centre) ** 2, axis=-1))
    return np.exp(-((dist - radius) ** 2) / (2.0 * width ** 2))


def write_synthetic_rings(out):
    """The seeded ring images and zero labels, under make_data's file names."""
    images = _synthetic_rings(SYNTHETIC_IMAGES, SYNTHETIC_SIDE, SYNTHETIC_SEED)
    write_idx_images(os.path.join(out, "train-images-idx3-ubyte"), images)
    # no driver reads the labels; the file is written so the layout matches make_data's
    write_idx_labels(os.path.join(out, "train-labels-idx1-ubyte"), np.zeros(SYNTHETIC_IMAGES))


@pytest.fixture(scope="session")
def digit_scans_dir(tmp_path_factory):
    """make_data's real handwritten-digit scans; skips where scikit-learn is absent."""
    pytest.importorskip("sklearn", reason="the digit scans that make-data writes come from "
                                          "scikit-learn; the VAE ordering is checked on them")
    out = tmp_path_factory.mktemp("digits")
    make_data(str(out))
    return str(out)


@pytest.fixture(scope="session")
def data_dir(tmp_path_factory):
    """IDX files under make_data's names: the digit scans where scikit-learn is
    installed, else seeded synthetic rings for tests that do not depend on what
    the images show."""
    out = tmp_path_factory.mktemp("idxdata")
    if importlib.util.find_spec("sklearn") is not None:
        make_data(str(out))
        return str(out)
    write_synthetic_rings(str(out))
    return str(out)
