import math
import tracemalloc

import numpy as np
import pytest

from pinnrul import (
    AugmentedSamples,
    EngineTrajectory,
    NormStats,
    SynthSpec,
    augment,
    fit_norm,
    parse_cmapss,
    parse_rul_truth,
    select_features,
    synth_generate,
    truncate_for_eval,
)
from pinnrul.data import CMAPSS_FEATURES, feature_matrix


def cmapss_line(unit, cycle, fill=0.0):
    vals = [unit, cycle] + [fill + 0.01 * i + 0.1 * cycle for i in range(24)]
    return " ".join(f"{v:.4f}" for v in vals)


def make_traj(unit, length, n_sensors=2, seed=0):
    rng = np.random.default_rng(seed)
    return EngineTrajectory(unit, rng.normal(size=(length, n_sensors)), [f"s{j + 1}" for j in range(n_sensors)])


class TestParsing:
    def test_two_row_unit(self):
        text = cmapss_line(1, 1) + "\n" + cmapss_line(1, 2) + "\n"
        trajs = parse_cmapss(text)
        assert len(trajs) == 1
        assert trajs[0].length == 2
        assert trajs[0].features.shape == (2, 3 + 21)

    def test_units_grouped_and_cycle_sorted(self):
        text = "\n".join(
            [cmapss_line(2, 1), cmapss_line(1, 2), cmapss_line(1, 1), cmapss_line(2, 2)]
        )
        trajs = parse_cmapss(text)
        assert [t.unit_id for t in trajs] == [1, 2]
        assert trajs[0].features[:, 0].tolist() == [0.1, 0.2]  # setting1 of cycles 1, 2

    def test_wrong_column_count_reports_line(self):
        text = cmapss_line(1, 1) + "\n" + "1 2 3\n"
        with pytest.raises(ValueError, match="line 2"):
            parse_cmapss(text)

    def test_non_numeric_reports_line(self):
        bad = cmapss_line(1, 2).rsplit(" ", 1)[0] + " oops"
        with pytest.raises(ValueError, match="line 1"):
            parse_cmapss(bad)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_token_reports_line(self, token):
        tokens = cmapss_line(1, 2).split()
        tokens[10] = token  # sensor s6
        text = cmapss_line(1, 1) + "\n" + " ".join(tokens) + "\n"
        with pytest.raises(ValueError, match="line 2: non-finite"):
            parse_cmapss(text)

    @pytest.mark.parametrize("column, token", [(0, "1e99"), (0, "1.5"), (1, "2.5")])
    def test_unit_and_cycle_must_be_integers(self, column, token):
        # a unit id past int64 used to overflow in augment with a traceback
        tokens = cmapss_line(1, 2).split()
        tokens[column] = token
        text = cmapss_line(1, 1) + "\n" + " ".join(tokens) + "\n"
        with pytest.raises(ValueError, match="line 2: unit and cycle"):
            parse_cmapss(text)

    def test_blank_lines_skipped(self):
        text = cmapss_line(1, 1) + "\n\n" + cmapss_line(1, 2) + "\n  \n"
        assert parse_cmapss(text)[0].length == 2

    def test_rul_truth(self):
        assert parse_rul_truth("10\n20\n") == [10.0, 20.0]

    def test_rul_truth_empty(self):
        assert parse_rul_truth("") == []

    def test_rul_truth_bad_token(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_rul_truth("10\nxx\n")

    @pytest.mark.parametrize("token", ["nan", "inf", "-Infinity"])
    def test_rul_truth_non_finite_reports_line(self, token):
        with pytest.raises(ValueError, match="line 2: non-finite"):
            parse_rul_truth(f"10\n{token}\n")

    def test_rul_truth_two_values_on_line(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_rul_truth("10 20\n")

    def test_rul_truth_negative_reports_line(self):
        assert parse_rul_truth("0\n-0\n") == [0.0, 0.0]
        with pytest.raises(ValueError, match="^line 2: RUL must be >= 0, got -5$"):
            parse_rul_truth("10\n-5\n")


class TestTrajectoryInvariants:
    def test_needs_two_rows(self):
        with pytest.raises(ValueError, match="2 rows"):
            EngineTrajectory(1, np.zeros((1, 3)), ["s1", "s2", "s3"])

    def test_lone_row_is_too_short_before_its_cycle_is_checked(self):
        with pytest.raises(ValueError, match="^unit 1: need at least 2 rows, got 1$"):
            parse_cmapss(cmapss_line(1, 5))

    # the parser checks cycles: synthetic and truncated fleets are 1..L by construction
    def test_cycles_must_be_consecutive_from_one(self):
        for cycles in ((2, 3), (1, 3), (1, 2, 2), (1, 1)):  # starts at 2, skips, repeats
            text = "\n".join(cmapss_line(1, c) for c in cycles)
            with pytest.raises(ValueError, match="^unit 1: cycles must be 1..L consecutive ascending$"):
                parse_cmapss(text)

    def test_column_ids(self):
        traj = parse_cmapss(cmapss_line(1, 1) + "\n" + cmapss_line(1, 2))[0]
        ids = ["setting1", "setting2", "setting3"] + [f"s{i}" for i in range(1, 22)]
        assert traj.columns == ids == list(CMAPSS_FEATURES)

    @pytest.mark.parametrize("features", [np.zeros((4, 2)), np.zeros((4, 4)), np.zeros(4)], ids=["narrow", "wide", "1-d"])
    def test_one_name_per_column(self, features):
        with pytest.raises(ValueError, match="^unit 1: features of shape .* for 3 columns$"):
            EngineTrajectory(1, features, ["s1", "s2", "s3"])


class TestSelectFeatures:
    def test_constant_columns_dropped(self):
        sensors = np.column_stack([np.full(5, 3.7), np.arange(5.0)])
        traj = EngineTrajectory(1, sensors, ["s1", "s2"])
        assert select_features([traj]) == ["s2"]

    def test_no_trajectories_is_error(self):
        with pytest.raises(ValueError, match="^no trajectories to select features from$"):
            select_features([])

    def test_all_constant_is_error(self):
        traj = EngineTrajectory(1, np.ones((5, 2)), ["s1", "s2"])
        with pytest.raises(ValueError, match="constant"):
            select_features([traj])

    def test_variance_pooled_across_units(self):
        # constant within each unit but different across units -> kept
        t1 = EngineTrajectory(1, np.full((3, 1), 1.0), ["s1"])
        t2 = EngineTrajectory(2, np.full((3, 1), 2.0), ["s1"])
        assert select_features([t1, t2]) == ["s1"]

    def test_feature_matrix_selection(self):
        traj = make_traj(1, 4, n_sensors=3)
        mat = feature_matrix(traj, ["s3", "s1"])
        assert mat.shape == (4, 2)
        assert np.array_equal(mat[:, 0], traj.features[:, 2])

    def test_feature_matrix_unknown_column(self):
        with pytest.raises(ValueError, match="s9"):
            feature_matrix(make_traj(1, 4), ["s9"])


def reference_fleet():
    # engines out of unit order, one of them shorter than the horizon
    return [make_traj(3, 40, n_sensors=3, seed=1), make_traj(1, 36, n_sensors=3, seed=2),
            make_traj(2, 2, n_sensors=3, seed=3)]


def repeated_reference(trajs, horizon, columns):
    """The augmented set's per-sample columns, built by repeating each logged row once per look-ahead."""
    parts = {name: [] for name in ("unit", "cycle", "t", "rul", "oc")}
    for traj in sorted(trajs, key=lambda tr: tr.unit_id):
        feats = feature_matrix(traj, columns)
        for row in range(traj.length):
            c = row + 1
            rul0 = traj.length - int(c)
            ts = np.arange(min(horizon, rul0) + 1)
            parts["unit"].append(np.full(len(ts), traj.unit_id))
            parts["cycle"].append(np.full(len(ts), c))
            parts["t"].append(ts.astype(np.int32))  # augment's t dtype
            parts["rul"].append((rul0 - ts).astype(np.float64))
            parts["oc"].append(np.repeat(feats[row : row + 1], len(ts), axis=0))
    return {name: np.concatenate(p) for name, p in parts.items()}


class TestAugment:
    def test_engine_with_192_rows_at_cycle_100(self):
        traj = make_traj(1, 192)
        samples = augment([traj], horizon=30, columns=traj.columns)
        at_100 = np.flatnonzero(samples.cycle == 100)
        assert (samples.t[at_100[0]], samples.rul[at_100[0]]) == (0, 92)
        assert (samples.t[at_100[1]], samples.rul[at_100[1]]) == (1, 91)
        assert len(at_100) == 31
        assert samples.t[at_100].tolist() == list(range(31))

    def test_length_two_trajectory(self):
        samples = augment([make_traj(1, 2)], horizon=30, columns=["s1", "s2"])
        rows = list(zip(samples.cycle.tolist(), samples.t.tolist(), samples.rul.tolist()))
        assert rows == [(1, 0, 1), (1, 1, 0), (2, 0, 0)]

    def test_closed_form_count(self):
        trajs, _ = synth_generate(SynthSpec(n_engines=5, min_life=38, max_life=52, seed=3))
        samples = augment([t for t in trajs], horizon=30, columns=trajs[0].columns)
        expected = sum(int(np.minimum(30, t.length - np.arange(1, t.length + 1)).sum()) + t.length for t in trajs)
        assert len(samples) == expected

    def test_labels_and_horizons_in_range(self):
        trajs, _ = synth_generate(SynthSpec(n_engines=3, min_life=36, max_life=60, seed=11))
        samples = augment(trajs, horizon=30, columns=trajs[0].columns)
        assert (samples.rul >= 0).all()
        assert (samples.t <= 30).all() and (samples.t >= 0).all()
        lengths = {t.unit_id: t.length for t in trajs}
        for i in range(0, len(samples), 97):
            assert samples.rul[i] == (lengths[int(samples.unit[i])] - int(samples.cycle[i])) - samples.t[i]

    def test_no_rows_lost(self):
        trajs, _ = synth_generate(SynthSpec(n_engines=4, min_life=35, max_life=45, seed=2))
        samples = augment(trajs, horizon=30, columns=trajs[0].columns)
        pairs = {(int(u), int(c)) for u, c in zip(samples.unit, samples.cycle)}
        assert len(pairs) == sum(t.length for t in trajs)

    def test_horizon_zero(self):
        samples = augment([make_traj(1, 5)], horizon=0, columns=["s1", "s2"])
        assert len(samples) == 5
        assert (samples.t == 0).all()

    def test_selected_columns_respected(self):
        traj = make_traj(1, 10, n_sensors=3)
        samples = augment([traj], horizon=5, columns=["s2"])
        assert samples.oc.shape[1] == 1
        assert samples.columns == ["s2"]

    def test_canonical_order(self):
        trajs = [make_traj(2, 6), make_traj(1, 5)]
        samples = augment(trajs, horizon=4, columns=["s1", "s2"])
        order = np.lexsort((samples.t, samples.cycle, samples.unit))
        assert np.array_equal(order, np.arange(len(samples)))

    @pytest.mark.parametrize("horizon", [0, 30])
    @pytest.mark.parametrize("columns", [["s1", "s2", "s3"], ["s3", "s1"]])
    def test_matches_concatenated_reference(self, horizon, columns):
        trajs = reference_fleet()
        want = repeated_reference(trajs, horizon, columns)

        got = augment(trajs, horizon=horizon, columns=columns)
        dtypes = dict(unit=np.int64, cycle=np.int64, t=np.int32, rul=np.float64, oc=np.float64)
        for name, dtype in dtypes.items():
            assert getattr(got, name).dtype == dtype, name
            assert np.array_equal(getattr(got, name), want[name]), name
        assert got.oc.flags.c_contiguous
        assert got.columns == columns

    def test_no_trajectories_rejected(self):
        with pytest.raises(ValueError, match="^no trajectories to augment$"):
            augment([], columns=["s1"])

    def test_negative_horizon_rejected(self):
        trajs, _ = synth_generate(SynthSpec(n_engines=1, seed=3))
        with pytest.raises(ValueError, match="^horizon must be >= 0$"):
            augment(trajs, horizon=-1, columns=trajs[0].columns)

    def test_sample_count_beyond_int32_rejected_before_allocating(self):
        # one engine of 70,000 cycles at horizon 10**6 has 70,000 * 70,001 / 2 samples, past int32's 2**31 - 1
        traj = make_traj(1, 70_000, n_sensors=1)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="^2450035000 augmented samples exceed the int32 sample index range$"):
                augment([traj], horizon=10**6, columns=["s1"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 70_000 * 8  # a few per-row arrays, no per-sample one

    def test_take_gathers_new_arrays_and_refuses_a_slice(self):
        # a batch that shared the set's t would see a later edit of it; a slice would return such views
        samples = augment([make_traj(2, 6), make_traj(1, 5)], horizon=4, columns=["s1", "s2"])
        got = samples.take(np.arange(3, 11))
        for name in ("t", "rul", "oc"):
            for source in (samples.row, samples.t, samples.rows):
                assert not np.shares_memory(getattr(got, name), source), name
        with pytest.raises(TypeError):
            samples.take(slice(3, 11))


class TestTake:
    @pytest.mark.parametrize("kind", ["sorted", "shuffled", "empty", "range", "open range", "strided range"])
    @pytest.mark.parametrize("horizon", [0, 30])
    def test_equals_repeated_reference(self, kind, horizon):
        trajs = reference_fleet()
        samples = augment(trajs, horizon=horizon, columns=["s3", "s1"])
        want = repeated_reference(trajs, horizon, ["s3", "s1"])
        rng = np.random.default_rng(horizon)
        idx = {
            "sorted": np.sort(rng.choice(len(samples), len(samples) // 3, replace=False)),
            "shuffled": rng.permutation(len(samples)),
            "empty": np.array([], dtype=np.int64),
            "range": np.arange(5, 40),
            "open range": np.arange(len(samples) - 7, len(samples)),
            "strided range": np.arange(1, len(samples), 7),
        }[kind]
        got = samples.take(idx)
        assert len(got) == len(want["t"][idx])
        for name in ("oc", "t", "rul"):
            assert getattr(got, name).dtype == want[name].dtype, name
            assert np.array_equal(getattr(got, name), want[name][idx]), name
        assert got.oc.shape == (len(got), 2)

    def test_map_test_labels_with_truth_added(self):
        # map --which test augments at horizon 0 and adds each engine's true RUL to its rows' RUL0
        trajs = reference_fleet()
        truth = np.array([4.5, 0.0, 17.0])  # units 1, 2, 3
        samples = augment(trajs, horizon=0, columns=trajs[0].columns)
        samples.rul0 += np.repeat(truth, [tr.length for tr in sorted(trajs, key=lambda tr: tr.unit_id)])
        want = repeated_reference(trajs, 0, trajs[0].columns)
        want_rul = want["rul"] + truth[want["unit"] - 1]
        assert np.array_equal(samples.rul, want_rul)
        for idx in (np.arange(len(samples)), np.arange(len(samples))[::-1], np.arange(30, 50)):
            got = samples.take(idx)
            assert np.array_equal(got.rul, want_rul[idx])
            assert np.array_equal(got.oc, want["oc"][idx])
            assert (got.t == 0).all()

    def test_rows_stored_once(self):
        trajs = reference_fleet()
        samples = augment(trajs, horizon=30, columns=trajs[0].columns)
        assert samples.rows.shape == (sum(tr.length for tr in trajs), 3)
        assert all(samples.__dict__[name].ndim == 1 for name in ("rul0", "row_unit", "row_cycle", "row", "t"))
        assert samples.row.dtype == np.int32 and samples.t.dtype == np.int32

    @pytest.mark.parametrize("name", ["oc", "rul", "unit", "cycle"])
    def test_whole_set_columns_are_read_only(self, name):
        samples = augment(reference_fleet(), horizon=3, columns=["s1", "s2", "s3"])
        with pytest.raises(AttributeError):
            setattr(samples, name, getattr(samples, name))


class TestNorm:
    def fit_set(self):
        trajs, _ = synth_generate(SynthSpec(n_engines=3, min_life=40, max_life=50, seed=9))
        cols = select_features(trajs)
        return augment(trajs, horizon=30, columns=cols)

    def test_zscore_definition(self):
        samples = self.fit_set()
        stats = fit_norm(samples)
        z = (samples.oc - stats.means) / stats.stds
        assert np.abs(z.mean(axis=0)).max() < 1e-9
        assert np.abs(z.std(axis=0) - 1.0).max() < 1e-9
        assert stats.rul_max == samples.rul.max()
        assert stats.columns == samples.columns

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("means", [0.0, math.nan], "^means must be finite$"),
            ("stds", [1.0, math.inf], "^stds must be finite and > 0$"),
            ("stds", [1.0, math.nan], "^stds must be finite and > 0$"),
            ("rul_max", math.nan, "^rul_max must be finite and >= 1, got nan$"),
            ("rul_max", math.inf, "^rul_max must be finite and >= 1, got inf$"),
        ],
    )
    def test_non_finite_stats_rejected(self, field, value, message):
        stats = {"means": [0.0, 0.0], "stds": [1.0, 1.0], "rul_max": 100.0, "columns": ["s1", "s2"]}
        with pytest.raises(ValueError, match=message):
            NormStats(**{**stats, field: value})

    def test_rul_max_is_longest_life_minus_one(self):
        trajs, _ = synth_generate(SynthSpec(n_engines=6, min_life=40, max_life=70, seed=4))
        samples = augment(trajs, horizon=30, columns=select_features(trajs))
        stats = fit_norm(samples)
        assert stats.rul_max == max(t.length for t in trajs) - 1

    @pytest.mark.parametrize("seed", [5, 7, 11])
    @pytest.mark.parametrize("d", [1, 2, 14])
    def test_stats_match_an_exact_sum_in_any_order(self, d, seed):
        trajs, _ = synth_generate(SynthSpec(n_engines=4, min_life=128, max_life=285, n_sensors=14, seed=seed))
        samples = augment(trajs, horizon=30, columns=[f"s{j + 1}" for j in range(d)])
        stats = fit_norm(samples)
        eps = np.finfo(np.float64).eps
        for j, col in enumerate(samples.oc.T):
            mean = math.fsum(col) / len(col)
            std = math.sqrt(math.fsum(np.square(col - mean)) / len(col))
            assert abs(stats.means[j] - mean) <= 4 * eps * np.abs(col).mean()
            assert abs(stats.stds[j] - std) <= 4 * eps * std
        assert stats.rul_max == samples.rul.max()
        # the weights count each row's samples, whatever their order
        perm = np.random.default_rng(seed).permutation(len(samples))
        samples.row, samples.t = samples.row[perm], samples.t[perm]
        shuffled = fit_norm(samples)
        assert np.array_equal(shuffled.means, stats.means)
        assert np.array_equal(shuffled.stds, stats.stds)

    def test_set_up_peak_below_half_a_feature_array(self):
        # the benchmark's train fleet: augment + fit_norm never hold an n x d copy of the features
        trajs, _ = synth_generate(SynthSpec(n_engines=25, min_life=128, max_life=285, n_sensors=14, seed=7))
        columns = select_features(trajs)
        tracemalloc.start()
        try:
            samples = augment(trajs, horizon=30, columns=columns)
            fit_norm(samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(columns) == 14
        assert peak < len(samples) * len(columns) * 8 / 2

    def test_zero_std_rejected(self):
        samples = AugmentedSamples(
            rows=np.column_stack([np.ones(4), np.arange(4.0)]),
            rul0=np.array([3.0, 2.0, 1.0, 0.0]),
            row_unit=np.ones(4, dtype=np.int64),
            row_cycle=np.arange(1, 5),
            row=np.arange(4),
            t=np.zeros(4, dtype=np.int64),
            columns=["s1", "s2"],
        )
        with pytest.raises(ValueError, match="s1"):
            fit_norm(samples)


class TestSynth:
    def test_spec_invariants(self):
        with pytest.raises(ValueError):
            SynthSpec(min_life=34)
        with pytest.raises(ValueError):
            SynthSpec(min_life=40, max_life=39)
        with pytest.raises(ValueError):
            SynthSpec(noise_std=-0.1)
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"^noise_std must be finite and >= 0, got {value}$"):
                SynthSpec(noise_std=value)

    def test_deterministic(self):
        spec = SynthSpec(n_engines=5, seed=7)
        a, truth_a = synth_generate(spec)
        b, truth_b = synth_generate(spec)
        assert truth_a == truth_b
        for ta, tb in zip(a, b):
            assert np.array_equal(ta.features, tb.features)

    def test_zero_noise_gives_exact_ramps(self):
        trajs, _ = synth_generate(SynthSpec(n_engines=2, noise_std=0.0, seed=1))
        for traj in trajs:
            second_diff = np.diff(traj.features, n=2, axis=0)
            assert np.abs(second_diff).max() < 1e-12

    def test_lives_within_bounds_and_truth_zero(self):
        spec = SynthSpec(n_engines=8, min_life=41, max_life=55, seed=13)
        trajs, truth = synth_generate(spec)
        assert truth == [0.0] * 8
        assert all(41 <= t.length <= 55 for t in trajs)
        assert all(t.columns == [f"s{j}" for j in range(1, 9)] for t in trajs)

    def test_shared_physics_across_seeds(self):
        # same engine life => statistically identical ramps, seed only moves noise
        a, _ = synth_generate(SynthSpec(n_engines=20, noise_std=0.0, seed=1))
        b, _ = synth_generate(SynthSpec(n_engines=20, noise_std=0.0, seed=2))
        matches = [(x, y) for x in a for y in b if x.length == y.length]
        assert matches, "expected at least one life collision"
        x, y = matches[0]
        assert np.abs(x.features - y.features).max() < 1e-12

    def test_truncation(self):
        trajs, _ = synth_generate(SynthSpec(n_engines=5, seed=21))
        cut, truth = truncate_for_eval(trajs, seed=99)
        for original, shortened, tv in zip(trajs, cut, truth):
            assert shortened.length < original.length
            assert tv == original.length - shortened.length
            # cycles 1..L of the cut engine are the original's first L rows
            assert np.array_equal(shortened.features, original.features[: shortened.length])
            assert shortened.columns == original.columns

