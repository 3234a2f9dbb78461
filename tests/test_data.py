import json
import math
import warnings

import numpy as np
import pytest

from c4td.data import (EnvSpec, OfflineDataset, Transition, generate,
                       load_jsonl, save_jsonl, subsample)
from c4td.errors import FormatError, InputError, ParseError


def test_spec_rejects_bad_shapes():
    with pytest.raises(InputError):
        EnvSpec(ds=0)
    with pytest.raises(InputError):
        EnvSpec(mode_means=((0.0, 0.0), (0.1, 0.1)),
                mode_covs=(((0.01, 0.0), (0.0, 0.01)),))
    with pytest.raises(InputError):
        EnvSpec(mode_covs=(((1.0, 2.0), (2.0, 1.0)),))  # not PD


def test_circular_modes_layout():
    spec = EnvSpec.with_circular_modes(4, mode_radius=0.5)
    means = np.asarray(spec.mode_means)
    assert means.shape == (4, 2)
    assert np.allclose(np.linalg.norm(means, axis=1), 0.5)
    # evenly spaced: consecutive angular gaps all equal
    angles = np.sort(np.arctan2(means[:, 1], means[:, 0]))
    gaps = np.diff(angles)
    assert np.allclose(gaps, gaps[0])


def test_circular_modes_need_two_action_dims():
    with pytest.raises(InputError):
        EnvSpec.with_circular_modes(3, da=1)


def test_generate_rejects_non_finite_columns_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="generated values are not finite"):
            generate(EnvSpec(box_radius=1e300), n_trajectories=2, seed=0)


def test_reward_bound_and_step_clip():
    spec = EnvSpec()
    rng = np.random.default_rng(0)
    low = -(spec.box_radius ** 2 + 0.1 * spec.action_bound ** 2)
    for _ in range(200):
        s = spec.sample_initial_state(rng)
        a = spec.sample_action(rng.integers(spec.n_modes), rng)
        assert low <= spec.reward(s, a) <= 0.0
        assert np.linalg.norm(spec.step(s, a)) <= spec.box_radius + 1e-12


def test_generate_shapes_and_sarsa_chaining():
    spec = EnvSpec.with_circular_modes(3)
    data = generate(spec, n_trajectories=7, seed=5)
    assert len(data) == 7 * spec.horizon
    assert data.s.shape == (len(data), spec.ds)
    assert data.a.shape == (len(data), spec.da)
    h = spec.horizon
    for t in range(len(data)):
        within = (t + 1) % h != 0
        assert bool(data.done[t]) == (not within)
        if within:
            # consecutive rows chain: s' and a' of row t are row t+1's s, a
            assert np.array_equal(data.s_next[t], data.s[t + 1])
            assert np.array_equal(data.a_next[t], data.a[t + 1])
        # replaying the deterministic dynamics reproduces s_next exactly
        assert np.array_equal(spec.step(data.s[t], data.a[t]), data.s_next[t])
        assert data.r[t] == spec.reward(data.s[t], data.a[t])


def test_generate_is_deterministic():
    spec = EnvSpec.with_circular_modes(2)
    d1 = generate(spec, n_trajectories=4, seed=9)
    d2 = generate(spec, n_trajectories=4, seed=9)
    assert np.array_equal(d1.s, d2.s)
    assert np.array_equal(d1.a, d2.a)
    assert np.array_equal(d1.r, d2.r)
    d3 = generate(spec, n_trajectories=4, seed=10)
    assert not np.array_equal(d1.a, d3.a)


def test_joint_inputs_layout():
    spec = EnvSpec()
    data = generate(spec, n_trajectories=2, seed=1)
    x, x_prime = data.joint_inputs()
    assert np.array_equal(x, np.concatenate([data.s, data.a], axis=1))
    assert np.array_equal(x_prime, np.concatenate([data.s_next, data.a_next], axis=1))


def test_take_and_subsample():
    spec = EnvSpec()
    data = generate(spec, n_trajectories=3, seed=2)
    picked = data.take(np.array([5, 1, 1]))
    assert len(picked) == 3
    assert np.array_equal(picked.s[0], data.s[5])
    assert np.array_equal(picked.s[1], picked.s[2])
    small = subsample(data, 10, seed=0)
    assert len(small) == 10
    again = subsample(data, 10, seed=0)
    assert np.array_equal(small.s, again.s)


def test_jsonl_round_trip_is_bit_exact(tmp_path):
    spec = EnvSpec.with_circular_modes(3)
    data = generate(spec, n_trajectories=5, seed=11)
    path = tmp_path / "d.jsonl"
    save_jsonl(data, str(path))
    back = load_jsonl(str(path))
    assert len(back) == len(data)
    for name in ("s", "a", "r", "s_next", "a_next", "done"):
        assert np.array_equal(getattr(back, name), getattr(data, name))
    save_jsonl(back, str(tmp_path / "d2.jsonl"))
    assert (tmp_path / "d.jsonl").read_bytes() == (tmp_path / "d2.jsonl").read_bytes()


def test_loader_reports_line_numbers(tmp_path):
    spec = EnvSpec()
    data = generate(spec, n_trajectories=1, seed=0)
    path = tmp_path / "d.jsonl"
    save_jsonl(data, str(path))
    lines = path.read_text().splitlines()
    lines[3] = "{not json"
    broken = tmp_path / "broken.jsonl"
    broken.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        load_jsonl(str(broken))
    assert err.value.line_number == 4

    row = json.loads(lines[2])
    row["s"] = [1.0]  # wrong length
    lines[2] = json.dumps(row)
    broken.write_text("\n".join(lines[:4]) + "\n")
    with pytest.raises(ParseError) as err:
        load_jsonl(str(broken))
    assert err.value.line_number == 3


def test_loader_rejects_non_finite_numbers_with_their_line(tmp_path):
    data = generate(EnvSpec(), n_trajectories=1, seed=0)
    path = tmp_path / "d.jsonl"
    save_jsonl(data, str(path))
    lines = path.read_text().splitlines()
    broken = tmp_path / "broken.jsonl"
    # json.dumps writes NaN, Infinity and -Infinity, which json.loads reads back;
    # 1e999 is valid JSON that overflows to inf
    for lineno, key, bad in ((6, "r", math.nan), (3, "sn", math.inf),
                             (9, "a", -math.inf), (4, "s", 12345.5)):
        edited = list(lines)
        row = json.loads(edited[lineno - 1])
        if key == "r":
            row["r"] = bad
        else:
            row[key][0] = bad
        edited[lineno - 1] = json.dumps(row).replace("12345.5", "1e999")
        # a later bad row must not mask the first one
        last = json.loads(edited[-1])
        last["r"] = math.nan
        edited[-1] = json.dumps(last)
        broken.write_text("\n".join(edited) + "\n")
        with pytest.raises(ParseError, match=f"'{key}' must be finite") as err:
            load_jsonl(str(broken))
        assert err.value.line_number == lineno


def test_loader_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(FormatError):
        load_jsonl(str(path))


def test_transition_equality():
    t = Transition(np.zeros(2), np.ones(2), -1.0, np.zeros(2), np.ones(2), False)
    same = Transition(np.zeros(2), np.ones(2), -1.0, np.zeros(2), np.ones(2), False)
    other = Transition(np.zeros(2), np.ones(2), -1.0, np.zeros(2), np.ones(2), True)
    assert t == same
    assert t != other


def test_dataset_rejects_ragged_rows():
    with pytest.raises(InputError):
        OfflineDataset(ds=2, da=2, env_name="pointmass", n_modes=1, seed=0,
                       s=np.zeros((3, 2)), a=np.zeros((2, 2)), r=np.zeros(3),
                       s_next=np.zeros((3, 2)), a_next=np.zeros((3, 2)),
                       done=np.zeros(3, dtype=bool))
