import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from pinnrul import NormStats, PinnConfig, cli, init_model, load_model, save_model
from pinnrul.cli import _write_latent_csv
from pinnrul.data import feature_matrix
from pinnrul.model import CHUNK, NumericError, PinnModel
from pinnrul.modelfile import _header

from conftest import fd001_config, write_fd001_style


def run_cli(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        return exc.code


def synth_config(tmp_path, **over):
    cfg = {
        "dataset": "synthetic",
        "synth": {"n_engines": 3, "min_life": 36, "max_life": 42, "n_sensors": 6, "noise_std": 0.01, "seed": 5},
        "model": {"lambda": 0.2, "t_scale": 30.0},
        "optimizer": {"lr": 5e-3},
        "epochs": 2,
        "batch_size": 256,
        "split_seed": 1,
        "init_seed": 2,
        "init_scheme": "xavier",
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(over)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def rewrite_header(src, dst, edit):
    """Copy model file ``src`` to ``dst`` with ``edit`` applied to its JSON header; return the header."""
    magic, length, rest = Path(src).read_bytes().split(b"\n", 2)
    header = json.loads(rest[: int(length)])
    edit(header)
    raw = json.dumps(header).encode("ascii")
    Path(dst).write_bytes(magic + b"\n" + str(len(raw)).encode() + b"\n" + raw + rest[int(length) :])
    return header


def key_paths(node, prefix=()):
    """Every key path of the nested JSON object ``node``, each section before its keys."""
    for key, value in node.items():
        yield (*prefix, key)
        if isinstance(value, dict):
            yield from key_paths(value, (*prefix, key))


# every section and leaf of a saved model's header: format, model.*, its three *_specs, init.* and norm.*
HEADER_PATHS = list(key_paths(_header(init_model(PinnConfig(2), NormStats(np.zeros(2), np.ones(2), 100.0, ["a", "b"])))))


class TestConfig:
    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"dataset": "synthetic", "bogus": 1}))
        assert run_cli(["check-data", "--config", str(path)]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_bad_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{nope")
        assert run_cli(["check-data", "--config", str(path)]) == 2

    def test_missing_config_file(self, tmp_path):
        assert run_cli(["check-data", "--config", str(tmp_path / "absent.json")]) == 2

    def test_batch_size_zero_rejected(self, tmp_path):
        cfg = synth_config(tmp_path, batch_size=0)
        assert run_cli(["train", "--config", cfg]) == 2

    def test_fractional_batch_size_rejected(self, tmp_path, capsys):
        cfg = synth_config(tmp_path, batch_size=256.5)
        assert run_cli(["train", "--config", cfg]) == 2
        assert "batch_size must be an integer" in capsys.readouterr().err

    def test_boolean_epochs_rejected(self, tmp_path, capsys):
        cfg = synth_config(tmp_path, epochs=True)
        assert run_cli(["train", "--config", cfg]) == 2
        assert "epochs must be an integer" in capsys.readouterr().err

    def test_fractional_fleet_size_rejected(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"dataset": "synthetic", "synth": {"n_engines": 2.5}}))
        assert run_cli(["check-data", "--config", str(path)]) == 2
        assert "synth.n_engines must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("optimizer", "lr", True),
            ("optimizer", "lr", float("nan")),
            ("optimizer", "lr", "x"),
            ("model", "lambda", float("nan")),
            ("model", "lambda", float("inf")),
            ("model", "t_scale", float("inf")),
            ("synth", "noise_std", True),
            # an integer too large for a float, or for int64
            pytest.param("optimizer", "lr", 10**400, id="optimizer-lr-10**400"),
            pytest.param("model", "lambda", 10**400, id="model-lambda-10**400"),
            pytest.param("synth", "seed", 2**63, id="synth-seed-2**63"),
            pytest.param(None, "horizon", 10**400, id="horizon-10**400"),
            pytest.param(None, "horizon", 2**63, id="horizon-2**63"),
            # a negative seed, which numpy's generators reject only after the data is built
            (None, "init_seed", -1),
            (None, "split_seed", -1),
            ("synth", "seed", -5),
            # a fleet of no engines, or of one sensor
            ("synth", "n_engines", 0),
            ("synth", "n_sensors", 1),
            # a scheme init_model does not know, which would fail only after the data is built
            (None, "init_scheme", "orthogonal"),
            (None, "init_scheme", "standard-normal"),
            # a train flag overrides its key, and is checked as the key is
            pytest.param("--seed-init", "init_seed", -1, id="flag-seed-init--1"),
            pytest.param("--seed-split", "split_seed", -3, id="flag-seed-split--3"),
            pytest.param("--seed-init", "init_seed", 2**63, id="flag-seed-init-2**63"),
            pytest.param("--seed-split", "split_seed", 2**63, id="flag-seed-split-2**63"),
        ],
    )
    def test_bad_section_value_names_its_key(self, tmp_path, capsys, section, key, value):
        path = synth_config(tmp_path)
        argv = ["train", "--config", path]
        if section is not None and section.startswith("--"):
            argv += [section, str(value)]
            section = None
        else:
            with open(path) as fh:
                cfg = json.load(fh)
            (cfg[section] if section else cfg)[key] = value
            with open(path, "w") as fh:
                json.dump(cfg, fh)  # as NaN and Infinity, which Python's json reads back
        assert run_cli(argv) == 2
        assert f"config: {f'{section}.' if section else ''}{key} must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()  # a config error comes before the output directory

    @pytest.mark.parametrize("key", ["beta1", "beta2", "eps"])
    def test_nadam_constant_is_unknown_key(self, tmp_path, capsys, key):
        # Nadam's beta1, beta2 and eps are constants; the learning rate is its one setting
        path = synth_config(tmp_path, optimizer={"lr": 5e-3, key: 0.5})
        assert run_cli(["train", "--config", path]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: config: unknown key 'optimizer.{key}'"]
        assert not (tmp_path / "out").exists()

    def test_divergent_training_is_numeric_failure(self, tmp_path, capsys):
        cfg = synth_config(tmp_path, optimizer={"lr": 1e200})
        with np.errstate(all="ignore"):
            assert run_cli(["train", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert "epoch" in err and "batch" in err

    def test_flag_overrides(self, tmp_path):
        cfg = cli.load_config(synth_config(tmp_path), {"epochs": 9, "init_seed": 42})
        assert cfg.epochs == 9
        assert cfg.init_seed == 42

    @pytest.mark.parametrize(
        "flags",
        [["--out", "--seed-init", "--seed-split", "--epochs", "--batch"], ["--o", "--seed-i", "--seed-s", "--ep", "--b"]],
        ids=["full", "prefixes"],
    )
    def test_each_train_flag_sets_its_key(self, tmp_path, flags):
        path = synth_config(tmp_path)
        argv = ["train", "--config", path]
        for flag, value in zip(flags, ["D", "3", "4", "5", "6"]):
            argv += [flag, value]
        args = cli._arguments(argv)
        cfg = cli.load_config(args.config, cli._overrides(args))
        # each flag sets its key, and the keys no flag names keep the file's values
        assert cfg.to_dict() == {**cli.load_config(path).to_dict(), "output_dir": "D", "init_seed": 3, "split_seed": 4, "epochs": 5, "batch_size": 6}

    @pytest.mark.parametrize("command", ["eval", "map"])
    def test_out_sets_output_dir(self, tmp_path, command):
        argv = [command, "--config", synth_config(tmp_path), "--model", "m.bin", "--out", "D"]
        args = cli._arguments(argv)
        assert cli._overrides(args) == {"output_dir": "D"}
        assert cli.load_config(args.config, cli._overrides(args)).output_dir == "D"

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["check-data"], None),
            (["check-data", "--config", "c.json"], None),
            (["train"], None),
            (["train", "--config", "c.json", "--o", "D", "--seed-i", "3", "--seed-s", "4", "--ep", "5", "--b", "6"], None),
            (["eval", "--model", "m.bin", "--config", "c.json", "--out", "D"], None),
            (["map", "--model", "m.bin"], None),
            (["map", "--config", "c.json", "--model", "m.bin", "--which", "train", "--o", "D"], None),
            (["predict", "--model", "m.bin", "--oc", "-0.5,0,0", "--t-list", "0,1", "--csv"], None),
            (["predict", "--o", "-0.5,0,0", "--model", "m.bin", "--t", "0"], None),
            (["predict", "--oc=1", "--model", "m.bin"], None),
            ([], 2),
            (["nope"], 2),
            (["--config", "c.json", "train"], 2),
            (["-h"], 0),
        ],
    )
    def test_a_command_line_is_parsed_once_as_the_top_level_parser_would(self, capsys, argv, code):
        if code is None:
            # the command's own parser gives the namespace the top-level parser gives
            args = cli._arguments(argv)
            assert args == cli._PARSER.parse_args(cli._glue_values(argv))
            assert args.command == argv[0]
            return
        # no command, an unknown one or an option before it: the top-level parser reads the line
        assert run_cli(argv) == code
        out = capsys.readouterr().out
        if code == 0:
            assert out == cli._PARSER.format_help()
            assert all(command in out for command in ("check-data", "train", "eval", "map", "predict"))
            # written for users: no private name or reST markup of the module docstring, and the exit codes
            assert not any(word in out for word in ("_parse", "``", "main"))
            assert "exit codes:" in out
            assert all(f"  {code}  " in out for code in range(4))

    def test_every_flag_has_help(self):
        for name, parser in cli._COMMANDS.items():
            for action in parser._actions:
                if action.option_strings != ["-h", "--help"]:
                    assert action.help, f"{name} {action.option_strings[0]} has no help"

    def test_unknown_flag_after_a_command_is_that_commands_usage_error(self, capsys):
        assert run_cli(["predict", "--model", "m.bin", "--oc", "1", "--t", "0", "--bogus", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: pinnrul predict ")
        assert err.endswith("pinnrul predict: error: unrecognized arguments: --bogus 1\n")

    @pytest.mark.parametrize("flag", ["--seed-init", "--seed-split", "--epochs", "--batch"])
    @pytest.mark.parametrize("command", ["check-data", "eval", "map"])
    def test_training_flags_are_train_only(self, tmp_path, capsys, command, flag):
        # the other commands never read the seeds, epochs or batch size, so they do not take them
        argv = [command, "--config", synth_config(tmp_path), flag, "1"]
        if command != "check-data":
            argv += ["--model", str(tmp_path / "model.bin")]
        assert run_cli(argv) == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    def test_check_data_takes_no_out(self, tmp_path, capsys):
        # check-data writes nothing, so an output directory would go unread
        assert run_cli(["check-data", "--config", synth_config(tmp_path), "--out", "x"]) == 2
        assert "unrecognized arguments: --out x" in capsys.readouterr().err


class TestCheckData:
    def test_unallocatable_fleet_is_exit_2(self, tmp_path):
        # the child lowers its own address-space limit, so the failed allocation
        # cannot touch the machine's memory even where the host overcommits
        if not sys.platform.startswith("linux"):
            pytest.skip("sizes the limit from /proc/self/statm")
        child = (
            "import os, resource, sys\n"
            "from pinnrul import cli\n"
            "used = int(open('/proc/self/statm').read().split()[0]) * os.sysconf('SC_PAGE_SIZE')\n"
            "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
            "soft = used + 2**29 if hard == resource.RLIM_INFINITY else min(used + 2**29, hard)\n"
            "resource.setrlimit(resource.RLIMIT_AS, (soft, hard))\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        cfg = synth_config(tmp_path, synth={"n_engines": 1, "max_life": 10**12})
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]), "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run(
            [sys.executable, "-c", child, "check-data", "--config", cfg],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: out of memory: ")
        assert "Traceback" not in proc.stderr

    def test_out_of_memory_is_one_stderr_line(self, tmp_path, capsys, monkeypatch):
        # the same exit in-process, where a raised MemoryError stands in for the failed allocation
        def no_memory(spec):
            raise MemoryError("synthetic fleet")

        monkeypatch.setattr("pinnrul.data.synth_generate", no_memory)
        assert run_cli(["check-data", "--config", synth_config(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: out of memory:")

    def test_synthetic_counts(self, tmp_path, capsys):
        assert run_cli(["check-data", "--config", synth_config(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "3 engines" in out
        assert "augmented" in out
        assert "selected features" in out

    def test_missing_fd001_file(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"dataset": "fd001", "data_dir": str(tmp_path)}))
        assert run_cli(["check-data", "--config", str(path)]) == 2
        assert "train_FD001.txt" in capsys.readouterr().err

    def test_fd001_style_counts_mismatch_is_exit_1(self, tmp_path, capsys):
        # tiny files parse fine but are not the reference dataset
        write_fd001_style(tmp_path)
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"dataset": "fd001", "data_dir": str(tmp_path)}))
        assert run_cli(["check-data", "--config", str(path)]) == 1
        assert "MISMATCH" in capsys.readouterr().err

    def test_malformed_data_is_exit_2(self, tmp_path):
        write_fd001_style(tmp_path)
        with open(tmp_path / "train_FD001.txt", "a") as fh:
            fh.write("1 2 3\n")
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"dataset": "fd001", "data_dir": str(tmp_path)}))
        assert run_cli(["check-data", "--config", str(path)]) == 2


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("run")
    cfg = synth_config(tmp_path)
    assert run_cli(["train", "--config", cfg]) == 0
    out = tmp_path / "out"
    return tmp_path, cfg, out


class TestTrainEvalMapPredict:
    def test_train_artifacts(self, trained):
        _, _, out = trained
        assert (out / "model.bin").is_file()
        report = json.loads((out / "training_report.json").read_text())
        assert len(report["per_epoch"]) == 2
        assert report["config"]["dataset"] == "synthetic"
        assert np.isfinite(report["final_rmse_val"])

    def test_train_is_reproducible_byte_for_byte(self, trained, tmp_path):
        src_tmp, _, out = trained
        cfg2 = synth_config(tmp_path)
        assert run_cli(["train", "--config", cfg2]) == 0
        first = (out / "model.bin").read_bytes()
        second = (tmp_path / "out" / "model.bin").read_bytes()
        assert first == second

    def test_model_header_records_both_seeds(self, trained):
        _, _, out = trained
        model = load_model(out / "model.bin")
        assert model.init_seed == 2
        assert model.split_seed == 1

    def test_model_file_round_trip(self, trained, tmp_path):
        _, _, out = trained
        from pinnrul import save_model

        model = load_model(out / "model.bin")
        copy_path = tmp_path / "copy.bin"
        save_model(model, copy_path)
        assert copy_path.read_bytes() == (out / "model.bin").read_bytes()

    def test_non_finite_parameter_names_file_and_buffer(self, trained, tmp_path, capsys):
        _, _, out = trained
        model = load_model(out / "model.bin")
        views = dict(model.parameter_items())
        views["rul.W1"][0, 0] = np.nan
        views["dyn.b2"][-1, 0] = np.inf  # a later bad buffer is not the one named
        path = tmp_path / "nan.bin"
        save_model(model, path)
        with pytest.raises(ValueError, match=r"nan\.bin: non-finite parameter rul\.W1$"):
            load_model(path)
        zeros = ",".join("0" for _ in range(model.config.d_oc))
        assert run_cli(["predict", "--model", str(path), f"--oc={zeros}"]) == 2
        assert f"{path}: non-finite parameter rul.W1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("norm", "stds", None, "lacks key 'stds'"),
            ("model", "d_oc", "6", "expected int, got '6'"),
            ("model", "t_scale", float("inf"), "t_scale must be finite and > 0, got inf"),
            ("model", "pde_weight", float("nan"), "pde_weight must be finite and >= 0, got nan"),
            ("norm", "rul_max", float("nan"), "rul_max must be finite and >= 1, got nan"),
            ("norm", "stds", "first-inf", "stds must be finite and > 0"),
            # an integer too large for a float, or for int64
            pytest.param("model", "t_scale", 10**400, "expected float, got 1000", id="model-t_scale-10**400"),
            pytest.param("init", "seed", 2**63, "expected int, got 9223372036854775808", id="init-seed-2**63"),
            # the ranges PinnModel owns, as init_model has them
            # each a bad header like any other value, with the ids the cases had before the prefix
            pytest.param("init", "scheme", "orthogonal", "bad header (init_scheme must be one of", id="init-scheme-orthogonal-init_scheme must be one of"),
            pytest.param("init", "scheme", "standard-normal", "bad header (init_scheme must be one of", id="init-scheme-standard-normal"),
            pytest.param("init", "seed", -3, "bad header (init_seed must be >= 0 and <= 9223372036854775807, got -3)", id="init-seed--3-init_seed must be >= 0 and <= 9223372036854775807, got -3"),
            pytest.param("init", "split_seed", -1, "bad header (split_seed must be >= 0 and <= 9223372036854775807, got -1)", id="init-split_seed--1-split_seed must be >= 0 and <= 9223372036854775807, got -1"),
            # the architecture is fixed, and each spec must state it in the JSON types save_model writes
            pytest.param("model", "x_spec", lambda s: {**s, "widths": [s["widths"][0], 4, *s["widths"][2:]]}, "model.x_spec must be", id="x-hidden-width-4"),
            pytest.param("model", "rul_spec", lambda s: {**s, "widths": [*s["widths"][:-1], 10, 1]}, "model.rul_spec must be", id="rul-extra-layer"),
            pytest.param("model", "dyn_spec", lambda s: {**s, "output": "tanh"}, "model.dyn_spec must be", id="dyn-output-tanh"),
            pytest.param("model", "rul_spec", lambda s: {**s, "widths": [*s["widths"][:-1], True]}, "model.rul_spec must be", id="rul-final-width-true"),
            pytest.param("model", "x_spec", lambda s: {**s, "widths": [*s["widths"][:-1], 1.0]}, "model.x_spec must be", id="x-final-width-1.0"),
            # the norm arrays are JSON arrays: a string or an object of d_oc entries is no list of column names
            pytest.param("norm", "columns", lambda c: "abcdefghijklmnopqrstuvwxyz"[: len(c)], "bad header (expected list, got 'abc", id="norm-columns-string"),
            pytest.param("norm", "columns", lambda c: dict.fromkeys(c, 0), "bad header (expected list, got {", id="norm-columns-object"),
        ],
    )
    def test_bad_header_key_is_exit_2(self, trained, tmp_path, capsys, section, key, value, message):
        _, _, out = trained

        def edit(header):
            if value is None:
                del header[section][key]
            elif value == "first-inf":
                header[section][key][0] = float("inf")
            elif callable(value):
                header[section][key] = value(header[section][key])
            else:
                header[section][key] = value

        broken = tmp_path / "broken.bin"
        header = rewrite_header(out / "model.bin", broken, edit)
        with pytest.raises(ValueError, match=re.escape(message)):
            load_model(broken)
        zeros = ",".join("0" for _ in header["norm"]["means"])
        assert run_cli(["predict", "--model", str(broken), f"--oc={zeros}"]) == 2
        err = capsys.readouterr().err
        assert str(broken) in err and message in err

    @pytest.mark.parametrize("value", [None, [], "x", True, 1.5, {}], ids=json.dumps)
    @pytest.mark.parametrize("path", HEADER_PATHS, ids=".".join)
    def test_header_value_of_any_json_type_exits_0_or_2(self, trained, tmp_path, capsys, path, value):
        # a section or leaf of the wrong JSON type is a bad header naming the file, never a traceback;
        # a value that happens to be valid (t_scale 1.5, split_seed null) loads
        _, _, out = trained
        d_oc = load_model(out / "model.bin").config.d_oc

        def edit(header):
            *sections, key = path
            for section in sections:
                header = header[section]
            header[key] = value

        broken = tmp_path / "typed.bin"
        rewrite_header(out / "model.bin", broken, edit)
        code = run_cli(["predict", "--model", str(broken), "--oc=" + ",".join(["0"] * d_oc)])
        err = capsys.readouterr().err
        assert code in (0, 2), err
        if code == 0:
            assert err == ""
        else:
            assert err.count("\n") == 1 and err.startswith(f"error: {broken}: "), err

    @pytest.mark.parametrize("net", ["x_spec", "rul_spec"])
    def test_relu_tangent_network_is_a_bad_header(self, trained, tmp_path, capsys, net):
        # x and rul carry tangent chains, which need tanh; the header check names the file
        _, _, out = trained
        broken = tmp_path / "relu.bin"
        header = rewrite_header(out / "model.bin", broken, lambda header: header["model"][net].update(hidden="relu"))
        zeros = ",".join("0" for _ in header["norm"]["means"])
        assert run_cli(["predict", "--model", str(broken), f"--oc={zeros}"]) == 2
        err = capsys.readouterr().err
        assert f"{broken}: bad header (" in err and "tanh" in err

    def test_spec_keys_in_any_order_load(self, trained, tmp_path, capsys):
        # each spec is compared as a JSON value: its keys' order is free, and the model reads the same
        _, _, out = trained
        reordered = tmp_path / "reordered.bin"

        def reverse_keys(header):
            for net in ("x_spec", "rul_spec", "dyn_spec"):
                header["model"][net] = dict(reversed(header["model"][net].items()))

        header = rewrite_header(out / "model.bin", reordered, reverse_keys)
        assert list(header["model"]["x_spec"]) == ["widths", "output", "hidden"]
        oc = ",".join("0.5" for _ in header["norm"]["means"])
        texts = []
        for path in (out / "model.bin", reordered):
            assert run_cli(["predict", "--model", str(path), f"--oc={oc}", "--t-list", "0,3,7", "--csv"]) == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1]

    @pytest.mark.parametrize(
        "net, edit",
        [
            pytest.param("x_spec", lambda s: {**s, "bias": True}, id="extra-key"),
            pytest.param("rul_spec", lambda s: {k: s[k] for k in ("hidden", "widths")}, id="missing-key"),
            pytest.param("dyn_spec", lambda s: {**s, "widths": [*s["widths"][:-1], True]}, id="width-true"),
            pytest.param("dyn_spec", lambda s: {**s, "widths": [*s["widths"][:-1], 1.0]}, id="width-1.0"),
            pytest.param("x_spec", lambda s: {**s, "widths": [s["widths"]]}, id="nested-list"),
        ],
    )
    def test_spec_of_other_keys_or_types_is_exit_2(self, trained, tmp_path, capsys, net, edit):
        _, _, out = trained
        broken = tmp_path / "spec.bin"
        header = rewrite_header(out / "model.bin", broken, lambda header: header["model"].update({net: edit(header["model"][net])}))
        zeros = ",".join("0" for _ in header["norm"]["means"])
        assert run_cli(["predict", "--model", str(broken), f"--oc={zeros}"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {broken}: bad header (model.{net} must be {{"), err

    def test_load_writes_no_json(self, trained, monkeypatch):
        # the specs are compared as values; their JSON text is built only for a failure's message
        _, _, out = trained

        def dumps(*args, **kwargs):
            raise AssertionError("json.dumps called")

        monkeypatch.setattr(json, "dumps", dumps)
        assert load_model(out / "model.bin").config.d_oc == 6

    @pytest.mark.parametrize("version", [True, 1.0, 2])
    def test_format_other_than_integer_1_is_exit_2(self, trained, tmp_path, capsys, version):
        # true and 1.0 compare equal to 1 in Python; the header's version is the JSON integer 1
        _, _, out = trained
        broken = tmp_path / "format.bin"
        header = rewrite_header(out / "model.bin", broken, lambda header: header.update(format=version))
        message = f"unsupported format {version!r}"
        with pytest.raises(ValueError, match=message):
            load_model(broken)
        zeros = ",".join("0" for _ in header["norm"]["means"])
        assert run_cli(["predict", "--model", str(broken), f"--oc={zeros}"]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["signed-length", "underscored-length", "zero-padded-length", "no-newline"])
    def test_non_canonical_framing_is_exit_2(self, trained, tmp_path, capsys, case):
        # save writes the length in plain digits and a newline after the header; other bytes would not round-trip
        _, _, out = trained
        magic, length, rest = (out / "model.bin").read_bytes().split(b"\n", 2)
        n = int(length)
        length, rest = {
            "signed-length": (b" +" + length, rest),
            "underscored-length": (length[:1] + b"_" + length[1:], rest),
            "zero-padded-length": (b"0" + length, rest),
            "no-newline": (length, rest[:n] + b"X" + rest[n + 1 :]),
        }[case]
        broken = tmp_path / "framing.bin"
        broken.write_bytes(magic + b"\n" + length + b"\n" + rest)
        with pytest.raises(ValueError, match=r"framing\.bin: corrupt header"):
            load_model(broken)
        zeros = ",".join("0" for _ in json.loads(rest[:n])["norm"]["means"])
        assert run_cli(["predict", "--model", str(broken), f"--oc={zeros}"]) == 2
        assert f"{broken}: corrupt header" in capsys.readouterr().err

    def test_eval_writes_metrics_and_pairs(self, trained, capsys):
        _, cfg, out = trained
        assert run_cli(["eval", "--config", cfg, "--model", str(out / "model.bin")]) == 0
        assert "test RMSE" in capsys.readouterr().out
        metrics = json.loads((out / "eval.json").read_text())
        assert np.isfinite(metrics["rmse_test"])
        assert metrics["rmse_val"] is not None
        lines = (out / "pred_vs_true.csv").read_text().splitlines()
        assert lines[0] == "engine,rul_true,rul_pred"
        assert len(lines) == 1 + 3  # one row per held-out engine

    @pytest.mark.parametrize("body", ['{"final_rmse_val": 1.0}', "{", "[1, 2]"], ids=["lacks-per-epoch", "not-json", "not-an-object"])
    def test_bad_training_report_is_exit_2(self, trained, tmp_path, capsys, body):
        _, cfg, out = trained
        model = tmp_path / "model.bin"
        model.write_bytes((out / "model.bin").read_bytes())
        report = tmp_path / "training_report.json"
        report.write_text(body)
        assert run_cli(["eval", "--config", cfg, "--model", str(model), "--out", str(tmp_path / "eval")]) == 2
        assert f"training report {report}" in capsys.readouterr().err
        assert not (tmp_path / "eval" / "eval.json").exists()

    @pytest.mark.parametrize("command", [["eval"], ["map", "--which", "test"], ["map", "--which", "train"]], ids=["eval", "map-test", "map-train"])
    def test_model_column_the_data_lacks_names_the_model_file(self, trained, tmp_path, capsys, command):
        _, cfg, out = trained
        broken = tmp_path / "s99.bin"
        rewrite_header(out / "model.bin", broken, lambda header: header["norm"]["columns"].__setitem__(-1, "s99"))
        assert run_cli([*command, "--config", cfg, "--model", str(broken), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {broken}: model needs column 's99', which the data lacks\n"

    def test_eval_missing_model(self, trained):
        _, cfg, _ = trained
        assert run_cli(["eval", "--config", cfg, "--model", "nope.bin"]) == 2

    def test_map_test_split(self, trained):
        _, cfg, out = trained
        assert run_cli(["map", "--config", cfg, "--model", str(out / "model.bin"), "--which", "test"]) == 0
        lines = (out / "latent_map_test.csv").read_text().splitlines()
        assert lines[0] == "x,dx_dt,rul_pred,rul_true"
        assert len(lines) > 3
        assert all(len(line.split(",")) == 4 for line in lines[1:])

    def test_map_test_split_values(self, trained):
        # each logged cycle c of a test engine is one t = 0 row labelled truth + (L - c)
        _, cfg, out = trained
        assert run_cli(["map", "--config", cfg, "--model", str(out / "model.bin"), "--which", "test"]) == 0
        table = np.loadtxt(out / "latent_map_test.csv", delimiter=",", skiprows=1)
        model = load_model(out / "model.bin")
        trajectories, truth = cli.load_test_set(cli.load_config(cfg))
        rows = [(traj, true_last, c) for traj, true_last in zip(trajectories, truth) for c in range(1, traj.length + 1)]
        assert table.shape == (len(rows), 4)
        assert table[:, 3].tolist() == [true_last + traj.length - c for traj, true_last, c in rows]
        for i in (0, len(rows) // 2, len(rows) - 1):
            traj, _, c = rows[i]
            oc = feature_matrix(traj, model.norm.columns)[c - 1]
            (_, x, _, rul), = model.sweep(oc, [0.0])
            assert table[i, 0] == pytest.approx(x, rel=1e-8, abs=1e-9)
            assert table[i, 2] == pytest.approx(rul, rel=1e-8, abs=1e-9)

    def test_map_train_split_row_count(self, trained):
        _, cfg, out = trained
        assert run_cli(["map", "--config", cfg, "--model", str(out / "model.bin"), "--which", "train"]) == 0
        lines = (out / "latent_map_train.csv").read_text().splitlines()
        # row count equals the full augmented training set
        from pinnrul import SynthSpec, augment, synth_generate

        spec = SynthSpec(n_engines=3, min_life=36, max_life=42, n_sensors=6, noise_std=0.01, seed=5)
        trajs, _ = synth_generate(spec)
        assert len(lines) - 1 == len(augment(trajs, horizon=30, columns=trajs[0].columns))

    def test_failed_map_leaves_no_part_file_and_keeps_the_old_csv(self, trained, tmp_path, monkeypatch, capsys):
        # blocks of 5 rows; the second block's read fails after the first block was written
        _, cfg, out = trained
        monkeypatch.setattr("pinnrul.model.CHUNK", 5)
        read, calls = PinnModel._read, []

        def failing_read(self, *args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise NumericError("non-finite x output")
            return read(self, *args, **kwargs)

        monkeypatch.setattr(PinnModel, "_read", failing_read)
        old = tmp_path / "o" / "latent_map_train.csv"
        old.parent.mkdir()
        old.write_bytes(b"x,dx_dt,rul_pred,rul_true\n1,2,3,4\n")
        argv = ["map", "--config", cfg, "--model", str(out / "model.bin"), "--which", "train", "--out", str(old.parent)]
        assert run_cli(argv) == 3
        assert capsys.readouterr().err == "numeric failure: non-finite x output\n"
        assert len(calls) == 2
        assert list(old.parent.iterdir()) == [old]
        assert old.read_bytes() == b"x,dx_dt,rul_pred,rul_true\n1,2,3,4\n"

    def test_map_peak_grows_by_less_than_a_table_row_per_sample(self, trained, tmp_path):
        # map holds one CHUNK-row block of the latent table, never the whole (n, 4) table, so a
        # 4x larger fleet adds only its per-sample index arrays and row table, not 32 bytes a sample
        _, _, out = trained
        peaks, samples = [], []
        for n_engines in (12, 48):
            synth = {"n_engines": n_engines, "min_life": 36, "max_life": 42, "n_sensors": 6, "noise_std": 0.01, "seed": 5}
            cfg = synth_config(tmp_path, synth=synth)
            argv = ["map", "--config", cfg, "--model", str(out / "model.bin"), "--which", "train", "--out", str(tmp_path / "o")]
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                assert run_cli(argv) == 0
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
            samples.append(len((tmp_path / "o" / "latent_map_train.csv").read_bytes().splitlines()) - 1)
        assert samples[1] > 3.5 * samples[0] > 3.5 * 2 * CHUNK
        per_sample = (peaks[1] - peaks[0]) / (samples[1] - samples[0])
        assert per_sample < 20, f"{per_sample:.1f} bytes per extra sample"

    def test_predict_rows(self, trained, capsys):
        _, _, out = trained
        model = load_model(out / "model.bin")
        oc = ",".join(str(v) for v in np.zeros(model.config.d_oc))
        assert run_cli(["predict", "--model", str(out / "model.bin"), "--oc", oc, "--t-list", "0,1,2", "--csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "t,x,dx_dt,rul_pred"
        assert len(lines) == 4

    def test_predict_single_horizon(self, trained, capsys):
        _, _, out = trained
        model = load_model(out / "model.bin")
        oc = ",".join(str(v) for v in np.zeros(model.config.d_oc))
        assert run_cli(["predict", "--model", str(out / "model.bin"), "--oc", oc, "--t-list", "0", "--csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2

    def test_predict_wrong_oc_length(self, trained, capsys):
        _, _, out = trained
        assert run_cli(["predict", "--model", str(out / "model.bin"), "--oc", "1,2", "--t-list", "0"]) == 2
        assert "d_oc" in capsys.readouterr().err

    def test_predict_non_finite_oc_rejected(self, trained, capsys):
        _, _, out = trained
        model = load_model(out / "model.bin")
        oc = ",".join(["nan"] + ["0"] * (model.config.d_oc - 1))
        assert run_cli(["predict", "--model", str(out / "model.bin"), f"--oc={oc}"]) == 2
        assert "finite" in capsys.readouterr().err

    def test_predict_non_finite_horizon_rejected(self, trained, capsys):
        _, _, out = trained
        model = load_model(out / "model.bin")
        oc = ",".join("0" for _ in range(model.config.d_oc))
        assert run_cli(["predict", "--model", str(out / "model.bin"), "--oc", oc, "--t-list", "inf"]) == 2
        assert "finite" in capsys.readouterr().err

    def test_predict_negative_values_after_a_space(self, trained, capsys):
        _, _, out = trained
        model = load_model(out / "model.bin")
        oc = ",".join(["-0.5"] + ["0"] * (model.config.d_oc - 1))
        assert run_cli(["predict", "--model", str(out / "model.bin"), "--oc", oc, "--t-list", "0,1", "--csv"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3
        assert run_cli(["predict", "--model", str(out / "model.bin"), "--oc", oc, "--t-list", "-1,2"]) == 2
        assert ">= 0" in capsys.readouterr().err
        # argparse abbreviations of both flags
        assert run_cli(["predict", "--model", str(out / "model.bin"), "--o", oc, "--t", "0,1", "--csv"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3
        assert run_cli(["predict", "--model", str(out / "model.bin"), "--oc", oc, "--t", "-1,2"]) == 2
        assert ">= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["predict", "map", "eval"])
    def test_non_finite_prediction_is_exit_3(self, trained, tmp_path, capsys, command):
        # finite weights, so the file loads, whose products overflow to inf
        _, cfg, out = trained
        model = load_model(out / "model.bin")
        views, last = dict(model.parameter_items()), len(model.config.widths["rul"]) - 1
        views[f"rul.W{last}"][...] = 1e308
        views[f"rul.b{last}"][...] = 1e308
        path = str(tmp_path / "overflow.bin")
        save_model(model, path)
        argv = {
            "predict": ["predict", "--model", path, "--oc", ",".join("0" for _ in range(model.config.d_oc)), "--csv"],
            "map": ["map", "--config", cfg, "--model", path, "--out", str(tmp_path)],
            "eval": ["eval", "--config", cfg, "--model", path, "--out", str(tmp_path)],
        }[command]
        with np.errstate(over="ignore", invalid="ignore"):
            assert run_cli(argv) == 3
        assert "non-finite" in capsys.readouterr().err

    def test_numeric_failure_is_one_stderr_line(self, trained, capsys):
        # outputs are checked for finiteness, so numpy's overflow warnings stay silent
        _, _, out = trained
        oc = ",".join("1e308" for _ in range(load_model(out / "model.bin").config.d_oc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["predict", "--model", str(out / "model.bin"), f"--oc={oc}"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: non-finite") and err.count("\n") == 1

    def test_predict_oc_from_file(self, trained, tmp_path, capsys):
        _, _, out = trained
        model = load_model(out / "model.bin")
        oc_file = tmp_path / "oc.txt"
        oc_file.write_text("\n".join("0.0" for _ in range(model.config.d_oc)))
        assert run_cli(["predict", "--model", str(out / "model.bin"), "--oc", f"@{oc_file}", "--t-list", "0"]) == 0

    def test_predict_oc_file_reads_like_the_inline_flag(self, trained, tmp_path, capsys):
        _, _, out = trained
        model = load_model(out / "model.bin")
        oc = ",".join(str(v) for v in np.linspace(-1.0, 1.0, model.config.d_oc))
        oc_file = tmp_path / "oc.txt"
        oc_file.write_text(oc + "\n")
        printed = []
        for arg in (oc, f"@{oc_file}"):
            assert run_cli(["predict", "--model", str(out / "model.bin"), f"--oc={arg}", "--t-list", "0,5"]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]

    def test_shared_parser_keeps_no_state_between_calls(self, trained, tmp_path, capsys):
        _, cfg, out = trained
        model = str(out / "model.bin")
        oc = ",".join("0" for _ in range(load_model(model).config.d_oc))
        with pytest.raises(SystemExit) as exc:
            cli.main(["predict", "--model", model])
        assert exc.value.code == 2
        assert cli.main(["predict", "--model", model, "--oc", oc, "--csv", "--t-list", "0,1,2"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 4
        assert cli.main(["predict", "--model", model, "--oc", oc]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2 and lines[0].split() == ["t", "x", "dx_dt", "rul_pred"]
        assert lines[1].split()[0] == "0.00"
        # a train after an overriding train: the config's values, not the last call's flags
        again = tmp_path / "again"
        assert cli.main(["train", "--config", cfg, "--epochs", "1", "--seed-init", "9", "--out", str(tmp_path / "flags")]) == 0
        assert cli.main(["train", "--config", cfg, "--out", str(again)]) == 0
        capsys.readouterr()
        report = json.loads((again / "training_report.json").read_text())
        assert report["config"] == cli.load_config(cfg, {"output_dir": str(again)}).to_dict()
        assert (again / "model.bin").read_bytes() == (out / "model.bin").read_bytes()


class TestFd001StylePipeline:
    def test_train_eval_on_26_column_files(self, tmp_path, capsys):
        write_fd001_style(tmp_path)
        cfg_dict = {
            "dataset": "fd001",
            "data_dir": str(tmp_path),
            "optimizer": {"lr": 3e-3},
            "epochs": 1,
            "batch_size": 128,
            "init_scheme": "xavier",
            "model": {"lambda": 0.2},
            "output_dir": str(tmp_path / "out"),
        }
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(cfg_dict))
        assert run_cli(["train", "--config", str(cfg)]) == 0
        assert run_cli(["eval", "--config", str(cfg), "--model", str(tmp_path / "out" / "model.bin")]) == 0
        lines = (tmp_path / "out" / "pred_vs_true.csv").read_text().splitlines()
        assert len(lines) == 3

    def test_map_with_mismatched_model_is_exit_2(self, fd001_dir, tmp_path, capsys):
        # a 21-sensor model cannot map 6-channel synthetic data
        model = str(fd001_dir / "out" / "model.bin")
        assert run_cli(["map", "--config", synth_config(tmp_path), "--model", model, "--which", "test"]) == 2
        assert "column" in capsys.readouterr().err

    def test_truth_count_mismatch_is_exit_2(self, fd001_dir, tmp_path, capsys):
        write_fd001_style(tmp_path)
        cfg = fd001_config(tmp_path)
        model = str(fd001_dir / "out" / "model.bin")
        for truth, count in (("15\n", 1), ("15\n15\n15\n", 3)):
            (tmp_path / "RUL_FD001.txt").write_text(truth)
            for command in ("eval", "map"):  # map exports the test split by default
                assert run_cli([command, "--config", cfg, "--model", model]) == 2
                assert capsys.readouterr().err == f"error: {tmp_path / 'RUL_FD001.txt'}: {count} truth values for 2 test engines\n"

    @pytest.mark.parametrize(
        "command, emptied",
        [
            (["eval"], ("test_FD001.txt", "RUL_FD001.txt")),
            (["map", "--which", "test"], ("test_FD001.txt", "RUL_FD001.txt")),
            (["map", "--which", "train"], ("train_FD001.txt",)),
        ],
        ids=["eval", "map-test", "map-train"],
    )
    def test_empty_data_file_is_exit_2(self, fd001_dir, tmp_path, capsys, command, emptied):
        write_fd001_style(tmp_path)
        for name in emptied:
            (tmp_path / name).write_text("")
        model = str(fd001_dir / "out" / "model.bin")
        assert run_cli([*command, "--config", fd001_config(tmp_path), "--model", model]) == 2
        assert f"{tmp_path / emptied[0]}: no engine rows" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check-data", "train"])
    def test_nan_sensor_is_exit_2(self, tmp_path, capsys, command):
        # variance of a nan column is nan, so feature selection would drop it silently
        write_fd001_style(tmp_path)
        path = tmp_path / "train_FD001.txt"
        lines = path.read_text().splitlines()
        tokens = lines[6].split()
        tokens[10] = "nan"  # sensor s6
        lines[6] = " ".join(tokens)
        path.write_text("\n".join(lines) + "\n")
        assert run_cli([command, "--config", fd001_config(tmp_path)]) == 2
        assert "line 7: non-finite token" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, command, damage",
        [
            ("train_FD001.txt", "check-data", "nan"),
            ("test_FD001.txt", "eval", "nan"),
            ("RUL_FD001.txt", "eval", "nan"),
            # a byte that is not UTF-8
            ("c.json", "check-data", "0xff"),
            ("train_FD001.txt", "check-data", "0xff"),
            ("oc.txt", "predict", "0xff"),
            # a unit whose rows are not cycles 1..L, L >= 2
            ("train_FD001.txt", "check-data", "gap"),
            ("train_FD001.txt", "check-data", "repeat"),
            ("train_FD001.txt", "check-data", "one-row"),
            ("test_FD001.txt", "eval", "gap"),
            ("test_FD001.txt", "eval", "repeat"),
            ("test_FD001.txt", "eval", "one-row"),
            # a true RUL below 0
            ("RUL_FD001.txt", "eval", "negative"),
        ],
        ids=[
            "train",
            "test",
            "truth",
            "config-0xff",
            "train-0xff",
            "oc-file-0xff",
            "train-cycle-gap",
            "train-repeated-cycle",
            "train-one-row-unit",
            "test-cycle-gap",
            "test-repeated-cycle",
            "test-one-row-unit",
            "truth-negative",
        ],
    )
    def test_parse_error_names_the_file(self, fd001_dir, tmp_path, capsys, name, command, damage):
        write_fd001_style(tmp_path)
        cfg = fd001_config(tmp_path)
        path = tmp_path / name
        if name == "oc.txt":
            path.write_text("0\n")
        lines = path.read_text().splitlines()
        if damage == "nan":
            lines[1] = " ".join([*lines[1].split()[:-1], "nan"])
        elif damage == "gap":
            del lines[2]
        elif damage == "repeat":
            lines.insert(2, lines[2])
        elif damage == "one-row":  # unit 1 keeps only its first row
            lines = [lines[0], *(line for line in lines if float(line.split()[0]) != 1)]
        elif damage == "negative":
            lines[1] = "-5"
        path.write_bytes((b"\xff" if damage == "0xff" else b"") + "".join(f"{line}\n" for line in lines).encode())
        model = str(fd001_dir / "out" / "model.bin")
        argv = {
            "check-data": ["check-data", "--config", cfg],
            "eval": ["eval", "--config", cfg, "--model", model],
            "predict": ["predict", "--model", model, f"--oc=@{path}"],
        }[command]
        message = {
            "nan": "line 2: non-finite token",
            "0xff": "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
            "gap": "unit 1: cycles must be 1..L consecutive ascending",
            "repeat": "unit 1: cycles must be 1..L consecutive ascending",
            "one-row": "unit 1: need at least 2 rows, got 1",
            "negative": "line 2: RUL must be >= 0, got -5",
        }[damage]
        assert run_cli(argv) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    def test_nan_truth_line_is_exit_2(self, fd001_dir, tmp_path, capsys):
        write_fd001_style(tmp_path)
        (tmp_path / "RUL_FD001.txt").write_text("15\nnan\n")
        assert run_cli(["eval", "--config", fd001_config(tmp_path), "--model", str(fd001_dir / "out" / "model.bin")]) == 2
        assert "line 2: non-finite token" in capsys.readouterr().err
        assert not (tmp_path / "out" / "eval.json").exists()


def chunks(table, k):
    """The k-row slices of ``table`` that ``map`` hands the writer, one per block."""
    return (table[a : a + k] for a in range(0, len(table), k))


def test_latent_csv_writer_empty(tmp_path):
    path = tmp_path / "empty.csv"
    _write_latent_csv(chunks(np.empty((0, 4)), CHUNK), path)
    assert path.read_text() == "x,dx_dt,rul_pred,rul_true\n"


@pytest.mark.parametrize("n", [0, 1, 4, 5, 6, 13])
def test_latent_csv_writer_streams_the_one_string_bytes(tmp_path, n):
    k = 5  # rows per write, so n covers 0, 1, k - 1, k, k + 1 and 2k + 3
    table = np.random.default_rng(n).normal(scale=1e3, size=(n, 4))
    path = tmp_path / "map.csv"
    _write_latent_csv(chunks(table, k), path)
    rows = "".join(map("{:.9g},{:.9g},{:.9g},{:.9g}\n".format, *table.T.tolist()))
    assert path.read_bytes() == ("x,dx_dt,rul_pred,rul_true\n" + rows).encode("ascii")


@pytest.mark.parametrize(
    "argv, named",
    [
        (["predict", "--model", "{dir}", "--oc", "0"], "dir"),
        (["check-data", "--config", "{dir}"], "dir"),
        (["train", "--config", "{config}", "--out", "{config}"], "config"),
        (["check-data", "--config", "{absent}"], "absent"),
        (["predict", "--model", "{absent}", "--oc", "0"], "absent"),
        (["eval", "--config", "{config}", "--model", "{absent}"], "absent"),
        (["predict", "--model", "{model}", "--oc=@{absent}"], "absent"),
        (["predict", "--model", "{model}", "--oc=@{dir}"], "dir"),
        (["check-data", "--config", "{fd001}"], "train_dir"),
    ],
    ids=[
        "predict-model-is-a-directory",
        "check-data-config-is-a-directory",
        "train-out-is-a-file",
        "check-data-config-is-missing",
        "predict-model-is-missing",
        "eval-model-is-missing",
        "predict-oc-file-is-missing",
        "predict-oc-file-is-a-directory",
        "check-data-train-file-is-a-directory",
    ],
)
def test_os_error_is_exit_2_naming_the_path(trained, tmp_path, capsys, argv, named):
    train_dir = tmp_path / "fd001" / "train_FD001.txt"
    train_dir.mkdir(parents=True)
    paths = {
        "dir": str(tmp_path),
        "config": synth_config(tmp_path, epochs=1),
        "absent": str(tmp_path / "absent"),
        "model": str(trained[2] / "model.bin"),
        "fd001": fd001_config(train_dir.parent),
        "train_dir": str(train_dir),
    }
    assert run_cli([arg.format(**paths) for arg in argv]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and err.count("\n") == 1 and paths[named] in err
    # the OS message, not a guess: a directory is neither "not found" nor "missing"
    assert "not found" not in err and "missing" not in err
    assert not any(line.startswith("epoch") for line in out.splitlines())  # it fails before training


@pytest.mark.parametrize(
    "case, argv, message",
    [
        ("dataset", ["check-data", "--config", "{config}"], "config: dataset must be 'fd001' or 'synthetic', got 'fd002'"),
        ("", ["predict", "--model", "{model}", "--oc", "0,x"], "oc values must be numeric, got '0,x'"),
        ("", ["predict", "--model", "{model}", "--oc={zeros}", "--t-list", "0,x"], "t-list must be numeric, got '0,x'"),
        ("header-array", ["predict", "--model", "{broken}", "--oc={zeros}"], "{broken}: header is not a JSON object"),
        ("norm-means", ["predict", "--model", "{broken}", "--oc={zeros}"], "{broken}: bad header (norm has {short} means, {d} stds and {d} columns, model has d_oc={d})"),
        ("norm-stds", ["predict", "--model", "{broken}", "--oc={zeros}"], "{broken}: bad header (norm has {d} means, {short} stds and {d} columns, model has d_oc={d})"),
        ("trailing-bytes", ["predict", "--model", "{broken}", "--oc={zeros}"], "{broken}: 3 trailing bytes"),
    ],
    ids=["config-dataset-fd002", "predict-oc-not-numeric", "predict-t-list-not-numeric", "model-header-is-an-array", "model-norm-means-short", "model-norm-stds-short", "model-trailing-bytes"],
)
def test_bad_value_is_one_error_line_naming_its_key_or_file(trained, tmp_path, capsys, case, argv, message):
    _, cfg, out = trained
    model = out / "model.bin"
    broken = tmp_path / "broken.bin"
    d = load_model(model).config.d_oc
    if case == "dataset":
        cfg = synth_config(tmp_path, dataset="fd002")
    elif case == "header-array":
        magic, length, rest = model.read_bytes().split(b"\n", 2)
        broken.write_bytes(magic + b"\n3\n[1]" + rest[int(length) :])
    elif case.startswith("norm-"):
        rewrite_header(model, broken, lambda header: header["norm"][case[5:]].pop())
    elif case == "trailing-bytes":
        broken.write_bytes(model.read_bytes() + b"\0\0\0")
    fields = {"config": cfg, "model": str(model), "broken": str(broken), "zeros": ",".join("0" * d), "d": d, "short": d - 1}
    assert run_cli([arg.format(**fields) for arg in argv]) == 2
    assert capsys.readouterr().err == f"error: {message.format(**fields)}\n"


@pytest.mark.parametrize("damaged", ["config", "training-report", "model-header"])
def test_json_nested_too_deeply_is_exit_2_naming_the_file(trained, tmp_path, capsys, damaged):
    # json.loads raises RecursionError, not ValueError, on nesting deeper than its recursion limit
    _, cfg, out = trained
    deep = "[" * 100_000
    magic, length, rest = (out / "model.bin").read_bytes().split(b"\n", 2)
    if damaged == "model-header":
        rest = deep.encode("ascii") + rest[int(length) :]
        length = str(len(deep)).encode("ascii")
    model = tmp_path / "model.bin"
    model.write_bytes(magic + b"\n" + length + b"\n" + rest)
    named = {"config": tmp_path / "deep.json", "training-report": tmp_path / "training_report.json", "model-header": model}
    if damaged != "model-header":
        named[damaged].write_text(deep)
    config = str(named["config"]) if damaged == "config" else cfg
    assert run_cli(["eval", "--config", config, "--model", str(model), "--out", str(tmp_path / "eval")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(named[damaged]) in err
    assert "nested too deeply" in err
