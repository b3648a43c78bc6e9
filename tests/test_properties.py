"""Property tests of the CLI exit-code contract on damaged or random input.

Whatever the input, a command returns 0, 2 or 3 and never raises.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinnrul import cli, save_model

from conftest import small_random_model

ALLOWED = (0, 2, 3)


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    model = small_random_model(5, d_oc=3)
    path = tmp_path_factory.mktemp("model") / "model.bin"
    save_model(model, path)
    return path, path.read_bytes(), model.config.d_oc


def damaged(blob, data):
    """``blob`` cut short or with one bit flipped."""
    if data.draw(st.booleans(), label="truncate"):
        return blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
    bit = data.draw(st.integers(0, 8 * len(blob) - 1), label="bit")
    out = bytearray(blob)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_damaged_model_file_predict(model_file, data):
    path, blob, d_oc = model_file
    broken = path.with_name("broken.bin")
    broken.write_bytes(damaged(blob, data))
    argv = ["predict", "--model", str(broken), "--oc", ",".join(["0.5"] * d_oc), "--t-list", "0,7", "--csv"]
    with np.errstate(all="ignore"):
        assert cli.main(argv) in ALLOWED


# integers stay small so that a valid synthetic fleet stays desk-sized
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 40) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
SECTION_KEYS = {
    "synth": ("n_engines", "min_life", "max_life", "n_sensors", "noise_std", "seed", "bogus"),
    "model": ("lambda", "t_scale"),
    "optimizer": ("lr", "beta1", "beta2", "eps"),
}
TOP_KEYS = ("data_dir", "epochs", "batch_size", "split_seed", "init_seed", "init_scheme", "horizon", "output_dir", "bogus")


def section(keys):
    return JSON | st.fixed_dictionaries({}, optional={k: JSON for k in keys})


CONFIG = JSON | st.fixed_dictionaries(
    {},
    optional={
        "dataset": JSON | st.sampled_from(["fd001", "synthetic"]),
        **{k: JSON for k in TOP_KEYS},
        **{name: section(keys) for name, keys in SECTION_KEYS.items()},
    },
)


@settings(max_examples=150, deadline=None)
@given(config=CONFIG)
def test_random_config_check_data(tmp_path_factory, config):
    path = tmp_path_factory.getbasetemp() / "random_config.json"
    path.write_text(json.dumps(config))
    with np.errstate(all="ignore"):
        assert cli.main(["check-data", "--config", str(path)]) in ALLOWED
