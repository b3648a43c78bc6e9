"""Property tests of the CLI exit-code contract on damaged or random input.

Whatever the input, a command returns 0, 2 or 3 (or 1, when check-data
finds counts that differ from FD001's) and never raises, a config
that loads holds only finite numbers of its defaults' JSON types, its
integers within int64, and a seed that a model takes survives its file.
"""

import copy
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pinnrul import PinnConfig, PinnModel, cli, load_model, save_model, train
from pinnrul.modelfile import _same_json, _specs

from conftest import fd001_config, random_samples, small_random_model

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
SCALAR = st.none() | st.booleans() | st.integers(-2, 40) | st.floats() | st.text(max_size=6)
JSON = st.recursive(
    SCALAR,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
SECTION_KEYS = {
    "synth": ("n_engines", "min_life", "max_life", "n_sensors", "noise_std", "seed", "bogus"),
    "model": ("lambda", "t_scale"),
    "optimizer": ("lr",),
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


def leaves(tree, prefix=""):
    """(dotted key, value) of every non-object value of a JSON object, in order."""
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from leaves(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


DEFAULT_KEYS = [name for name, _ in leaves(cli.RunConfig().to_dict())] + ["bogus", "synth.bogus"]


# a valid synthetic fleet whose counts stay desk-sized whatever one key draws:
# SCALAR integers are at most 40, and the typed counts reject floats and extremes
DESK = cli.RunConfig().to_dict()
DESK["dataset"] = "synthetic"
DESK["synth"].update(n_engines=3, min_life=36, max_life=42, n_sensors=6)


@st.composite
def one_key_changed(draw):
    """``DESK`` with one of its keys, or an unknown one, set to a JSON
    scalar, a non-finite number or an integer beyond float or int64 range
    (CONFIG draws objects and arrays there far more often than scalars)."""
    config = copy.deepcopy(DESK)
    *path, key = draw(st.sampled_from(DEFAULT_KEYS), label="key").split(".")
    section = config
    for name in path:
        section = section[name]
    extremes = [math.nan, math.inf, -math.inf, 10**400, -(10**400), 2**63]
    section[key] = draw(SCALAR | st.sampled_from(extremes), label="value")
    return config


# half the draws each; `|` would give one_key_changed about a tenth
ONE_KEY_OR_ANY = st.sampled_from([one_key_changed(), CONFIG]).flatmap(lambda strategy: strategy)


@settings(max_examples=150, deadline=None)
@given(config=ONE_KEY_OR_ANY)
def test_random_config_check_data(tmp_path_factory, config):
    # a one_key_changed draw runs check-data's synthetic path with one bad scalar beside valid keys
    path = tmp_path_factory.getbasetemp() / "random_config.json"
    path.write_text(json.dumps(config))
    with np.errstate(all="ignore"):
        assert cli.main(["check-data", "--config", str(path)]) in ALLOWED


@settings(max_examples=300, deadline=None)
@given(config=ONE_KEY_OR_ANY)
def test_random_config_is_rejected_or_finite_and_typed(tmp_path_factory, config):
    # check-data reads neither "model" nor "optimizer", so this property loads the config itself.
    # In a CONFIG draw one bad key usually hides the rest; in a one_key_changed draw it cannot.
    path = tmp_path_factory.getbasetemp() / "random_config.json"
    path.write_text(json.dumps(config))
    try:
        cfg = cli.load_config(str(path))
        PinnConfig.default(1, cfg.pde_weight, cfg.t_scale)
    except ValueError:
        return
    for (name, value), (_, default) in zip(leaves(cfg.to_dict()), leaves(cli.RunConfig().to_dict()), strict=True):
        kinds = (int, float) if isinstance(default, float) else type(default)
        assert isinstance(value, kinds) and not isinstance(value, bool), (name, value)
        if isinstance(default, int):
            assert -(2**63) <= value < 2**63, (name, value)
        if isinstance(value, (int, float)):
            assert math.isfinite(value), (name, value)


# numbers, non-finite spellings ("nan", "inf", "1e999") and garbage
TOKEN = st.sampled_from(["nan", "inf", "-inf", "1e999"]) | st.text("0123456789.e+-naif", min_size=1, max_size=6)


def damaged_text(text, data):
    """``text`` with one line changed: a token replaced, the line cut short,
    a column added, the line dropped or the line repeated."""
    lines = text.splitlines()
    i = data.draw(st.integers(0, len(lines) - 1), label="line")
    tokens = lines[i].split()
    how = data.draw(st.sampled_from(["replace", "cut", "add column", "drop line", "repeat line"]), label="how")
    if how == "replace":
        tokens[data.draw(st.integers(0, len(tokens) - 1), label="column")] = data.draw(TOKEN, label="token")
    elif how == "cut":
        tokens = tokens[: data.draw(st.integers(0, len(tokens) - 1), label="keep")]
    elif how == "add column":
        tokens.append(data.draw(TOKEN, label="token"))
    if how == "drop line":
        del lines[i]
    elif how == "repeat line":
        lines.insert(i, lines[i])
    else:
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_damaged_data_files_check_data_and_eval(fd001_dir, tmp_path_factory, data):
    data_dir = tmp_path_factory.getbasetemp() / "damaged"
    data_dir.mkdir(exist_ok=True)
    target = data.draw(st.sampled_from(sorted(cli.FD001_FILES.values())), label="file")
    for name in cli.FD001_FILES.values():
        text = (fd001_dir / name).read_text()
        (data_dir / name).write_text(damaged_text(text, data) if name == target else text)
    cfg = fd001_config(data_dir)
    (data_dir / "out" / "eval.json").unlink(missing_ok=True)
    with np.errstate(all="ignore"):
        assert cli.main(["check-data", "--config", cfg]) in (0, 1, 2, 3)
        code = cli.main(["eval", "--config", cfg, "--model", str(fd001_dir / "out" / "model.bin")])
    assert code in ALLOWED
    if code == 0:  # no silent NaN: the written RMSE is finite JSON
        assert np.isfinite(json.loads((data_dir / "out" / "eval.json").read_text())["rmse_test"])


@settings(max_examples=50, deadline=None)
@given(init_seed=st.integers(-(2**64), 2**64), split_seed=st.integers(-(2**64), 2**64))
@example(init_seed=2**63, split_seed=0)
@example(init_seed=0, split_seed=2**63)
@example(init_seed=2**63 - 1, split_seed=2**63 - 1)
def test_accepted_seeds_survive_the_model_file(tmp_path_factory, init_seed, split_seed):
    # train draws its model with init_model, so a seed either is rejected where it enters or loads back
    model = small_random_model(3, d_oc=2)
    try:
        trained, _ = train(model, random_samples(model, 4, n=8), split_seed, init_seed, epochs=1, batch_size=8)
    except ValueError:
        return
    path = tmp_path_factory.getbasetemp() / "seeds.bin"
    save_model(trained, path)
    loaded = load_model(path)
    assert (loaded.init_seed, loaded.split_seed) == (init_seed, split_seed)


@pytest.mark.parametrize(
    "init_seed, split_seed, accepted",
    [
        (0, None, True),
        (2**63 - 1, 2**63 - 1, True),
        # a header holds a JSON integer: no None or bool for init_seed, no bool for split_seed
        (None, 0, False),
        (True, 0, False),
        (0, True, False),
        (False, None, False),
        (np.int64(3), 0, False),
        (0, 1.0, False),
    ],
)
def test_constructed_seeds_survive_the_model_file(tmp_path, init_seed, split_seed, accepted):
    # PinnModel takes its seeds as given; each is rejected there or loads back as itself
    model = small_random_model(3, d_oc=2)
    args = model.config, model.theta.copy(), model.norm
    if not accepted:
        with pytest.raises(ValueError, match="_seed must be"):
            PinnModel(*args, init_seed=init_seed, split_seed=split_seed)
        return
    save_model(PinnModel(*args, init_seed=init_seed, split_seed=split_seed), tmp_path / "seeds.bin")
    loaded = load_model(tmp_path / "seeds.bin")
    assert (loaded.init_seed, loaded.split_seed) == (init_seed, split_seed)


def json_paths(value, path=()):
    """The key path of every node of the JSON ``value``, its own () first."""
    yield path
    if isinstance(value, (list, dict)):
        for key, item in enumerate(value) if isinstance(value, list) else value.items():
            yield from json_paths(item, (*path, key))


def edited(value, data):
    """``value`` with one node, drawn among all of them, replaced by a JSON value (an
    int also by itself, its float, true, false, -0.0 or nan), or, for an array or an
    object, one item added or dropped, one key renamed or the keys reordered."""
    path = data.draw(st.sampled_from(list(json_paths(value))), label="node")
    node = value
    for key in path:
        node = node[key]
    edits = ["replace"]
    if isinstance(node, (list, dict)):
        edits += ["add"] + ["drop"] * bool(node) + ["rename", "reorder"] * (isinstance(node, dict) and bool(node))
    how = data.draw(st.sampled_from(edits), label="edit")
    if how == "replace":
        near = [node, float(node), True, False, -0.0, math.nan] if type(node) is int else [-0.0, math.nan]
        new = data.draw(st.sampled_from(near) | JSON, label="value")
    else:
        items = list(enumerate(node) if isinstance(node, list) else node.items())
        if how == "add":
            items.append((data.draw(st.text(max_size=8), label="key"), data.draw(JSON, label="value")))
        elif how == "reorder":
            items = data.draw(st.permutations(items), label="order")
        else:
            i = data.draw(st.integers(0, len(items) - 1), label="item")
            if how == "drop":
                del items[i]
            else:
                items[i] = data.draw(st.text(max_size=8), label="key"), items[i][1]
        new = [item for _, item in items] if isinstance(node, list) else dict(items)
    if not path:
        return new
    parent = value
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    return value


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_spec_check_accepts_exactly_the_same_json_text(data):
    # load_model compares each header *_spec as a JSON value; it must accept what equal
    # sorted-key JSON text accepts, so true is not 1, 1.0 is not 1, and keys may come in any order
    specs = _specs(PinnConfig(data.draw(st.integers(1, 20), label="d_oc")))
    spec = specs[data.draw(st.sampled_from(sorted(specs)), label="net")]
    value = copy.deepcopy(spec)
    for _ in range(data.draw(st.integers(0, 3), label="edits")):
        value = edited(value, data)
    assert _same_json(value, spec) == (json.dumps(value, sort_keys=True) == json.dumps(spec, sort_keys=True))
