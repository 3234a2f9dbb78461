import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from c4td import data as data_module
from c4td.data import (EnvSpec, OfflineDataset, generate,
                       load_jsonl, save_jsonl, subsample)
from c4td.errors import FormatError, InputError, ParseError
from oracles import load_jsonl_line_by_line


def test_spec_rejects_bad_shapes():
    with pytest.raises(InputError):
        EnvSpec(ds=0)
    with pytest.raises(InputError):
        EnvSpec(mode_means=((0.0, 0.0), (0.1, 0.1)),
                mode_covs=(((0.01, 0.0), (0.0, 0.01)),))
    with pytest.raises(InputError):
        EnvSpec(mode_covs=(((1.0, 2.0), (2.0, 1.0)),))  # not PD
    # asymmetric with a positive definite lower triangle, once accepted
    with pytest.raises(InputError, match="covariance 1 is not symmetric"):
        EnvSpec(mode_means=((0.0, 0.0), (0.1, 0.1)),
                mode_covs=(((0.01, 0.0), (0.0, 0.01)), ((0.01, 5.0), (0.0, 0.01))))


def test_sample_action_draws_match_a_fresh_factor_per_draw():
    a, b = 0.04, 0.01
    spec = EnvSpec(ds=3, da=3, noise_scale=1.7, action_bound=0.9,
                   mode_means=((0.3, -0.2, 0.1), (-0.5, 0.4, 0.0), (0.0, 0.0, 0.7)),
                   mode_covs=(((a, b, 0.0), (b, a, b), (0.0, b, a)),
                              ((0.09, 0.0, 0.0), (0.0, 0.01, 0.0), (0.0, 0.0, 0.25)),
                              ((a, -b, b), (-b, a, 0.0), (b, 0.0, a))))
    for seed in range(5):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(40):
            mode = int(ref_rng.integers(spec.n_modes))
            assert int(rng.integers(spec.n_modes)) == mode
            # the formula before the behavior mixture kept the factors
            mu = np.asarray(spec.mode_means[mode], dtype=float)
            chol = np.linalg.cholesky(np.asarray(spec.mode_covs[mode], dtype=float))
            ref = data_module._clip_norm(
                mu + spec.noise_scale * (chol @ ref_rng.standard_normal(spec.da)),
                spec.action_bound)
            assert spec.sample_action(mode, rng).tobytes() == ref.tobytes()


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


def test_loader_scratch_does_not_grow_with_the_file(tmp_path, traced_peak):
    # From N to 4N rows, the traced peak may grow by the output arrays twice
    # over (the per-chunk parts and their concatenation), not by the file:
    # one chunk's text and objects are a constant. It grows by 1.04 times
    # the arrays' growth here; holding the whole text and a list of its
    # lines, as the loader once did, grew it by 5.0 times.
    lines = _saved_lines(tmp_path, 25)  # 1000 rows
    peaks, sizes = [], []
    for copies in (2, 8):
        path = tmp_path / f"x{copies}.jsonl"
        _write(path, lines[:1] + lines[1:] * copies)
        peaks.append(traced_peak(lambda: load_jsonl(str(path))))
        data = load_jsonl(str(path))
        sizes.append(sum(getattr(data, f).nbytes for f in _FIELDS))
    assert sizes[1] - sizes[0] == 6000 * 73  # four (N, 2) columns, r and done
    assert peaks[1] - peaks[0] <= 3 * (sizes[1] - sizes[0])


def test_loader_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(FormatError):
        load_jsonl(str(path))


def test_dataset_rejects_ragged_rows():
    with pytest.raises(InputError):
        OfflineDataset(ds=2, da=2, env_name="pointmass", n_modes=1, seed=0,
                       s=np.zeros((3, 2)), a=np.zeros((2, 2)), r=np.zeros(3),
                       s_next=np.zeros((3, 2)), a_next=np.zeros((3, 2)),
                       done=np.zeros(3, dtype=bool))


# ------------------------------------------------ chunked loader vs oracle

_FIELDS = ("s", "a", "r", "s_next", "a_next", "done")


def _outcome(load, path):
    """What a loader makes of a file: its arrays' bytes, or its error's type, line and text."""
    try:
        data = load(str(path))
    except Exception as exc:  # what escapes the oracle must escape the loader too
        return type(exc), getattr(exc, "line_number", None), str(exc)
    header = (data.ds, data.da, data.env_name, data.n_modes, data.seed)
    return header, [(getattr(data, f).dtype.str, getattr(data, f).shape,
                     getattr(data, f).tobytes()) for f in _FIELDS]


def _saved_lines(directory, n_trajectories: int) -> list[str]:
    path = directory / "saved.jsonl"
    save_jsonl(generate(EnvSpec.with_circular_modes(3), n_trajectories, seed=3), str(path))
    return path.read_text(encoding="utf-8").splitlines()


def _with(lines, lineno, key, value=None, index=None, drop=False):
    """``lines`` with one field of row ``lineno`` (1-based) replaced or dropped."""
    out = list(lines)
    row = json.loads(out[lineno - 1])
    if drop:
        del row[key]
    elif index is None:
        row[key] = value
    else:
        row[key][index] = value
    out[lineno - 1] = json.dumps(row)
    return out


def _overflow(lines, lineno, key, index=None):
    """``lines`` with 1e999, valid JSON that parses to inf, in one field of row ``lineno``."""
    out = _with(lines, lineno, key, 12345.5, index)
    out[lineno - 1] = out[lineno - 1].replace("12345.5", "1e999")
    return out


def _put(lines, lineno, text):
    out = list(lines)
    out[lineno - 1] = text
    return out


def _env(lines, env):
    """``lines`` with the header's env string set to ``env``, its characters written raw."""
    return _put(lines, 1, json.dumps({**json.loads(lines[0]), "env": env}, ensure_ascii=False))


# name -> (edit of a 40-row file, expected: a ParseError's line, an error type, "ok", or
# (line, the oracle's error type) where the loader names the line and the oracle does not)
_CASES = {
    "clean": (lambda ls: ls, "ok"),
    "blank line": (lambda ls: _put(ls, 5, ""), 5),
    "whitespace line": (lambda ls: _put(ls, 7, " \t "), 7),
    "invalid json": (lambda ls: _put(ls, 4, "{not json"), 4),
    "two values on one line": (lambda ls: _put(ls, 6, ls[5] + " " + ls[5]), 6),
    "two rows joined by a comma": (lambda ls: _put(ls, 6, ls[5] + "," + ls[6]), 6),
    "a line 1], [2": (lambda ls: _put(ls, 8, "1], [2"), 8),
    "row split over two lines": (
        lambda ls: ls[:2] + ls[2].split(", ", 1) + [ls[3] + ", " + ls[4]] + ls[5:], 3),
    "row holding a marker": (lambda ls: _put(ls, 9, ls[8] + ', "", ' + ls[9]), 9),
    "marker alone": (lambda ls: _put(ls, 10, '""'), 10),
    "list row": (lambda ls: _put(ls, 11, "[1, 2]"), 11),
    "null row": (lambda ls: _put(ls, 12, "null"), 12),
    "missing key": (lambda ls: _with(ls, 9, "done", drop=True), 9),
    "extra key": (lambda ls: _with(ls, 10, "x", 1.0), 10),
    "s too short": (lambda ls: _with(ls, 3, "s", [1.0]), 3),
    "an too long": (lambda ls: _with(ls, 12, "an", [0.1, 0.2, 0.3]), 12),
    "bool in a": (lambda ls: _with(ls, 11, "a", True, index=1), 11),
    "string in sn": (lambda ls: _with(ls, 13, "sn", "0.5", index=0), 13),
    "nested list in s": (lambda ls: _with(ls, 14, "s", [0.1], index=0), 14),
    "vector is a number": (lambda ls: _with(ls, 14, "an", 0.5), 14),
    "bool r": (lambda ls: _with(ls, 15, "r", True), 15),
    "string r": (lambda ls: _with(ls, 15, "r", "-1.0"), 15),
    "integer done": (lambda ls: _with(ls, 16, "done", 1), 16),
    "integers are numbers": (
        lambda ls: _with(_with(ls, 17, "r", -1), 18, "s", [0, 1]), "ok"),
    "integer too large for a float": (lambda ls: _with(ls, 17, "s", 10 ** 400, index=0),
                                      (17, OverflowError)),
    "integer with too many digits": (
        lambda ls: _put(ls, 19, ls[18].replace('"r": ', '"r": ' + "9" * 5000 + ", \"x\": ", 1)),
        (19, ValueError)),
    "nesting too deep": (lambda ls: _put(ls, 20, "[" * 100000), (20, RecursionError)),
    "duplicate key": (lambda ls: _put(ls, 21, ls[20][:-1] + ', "r": -2.5}'), "ok"),
    "escaped key": (lambda ls: _put(ls, 22, ls[21].replace('"s"', '"\\u0073"')), "ok"),
    "whitespace around rows": (lambda ls: [ls[0]] + [" " + row + "\t" for row in ls[1:]], "ok"),
    "line separator inside a row": (lambda ls: _put(ls, 23, ls[22].replace(", ", ",\u2028", 1)),
                                    23),
    "file separator inside a row": (lambda ls: _put(ls, 24, ls[23].replace(", ", ",\x1c", 1)),
                                    24),
    "nan r": (lambda ls: _with(ls, 6, "r", math.nan), 6),
    "infinities and 1e999 at several rows": (
        lambda ls: _overflow(_with(_with(_with(ls, 9, "a", -math.inf, index=0), 3, "sn",
                                         math.inf, index=1), 30, "r", math.nan), 4, "s", 0),
        3),
    "1e999 alone": (lambda ls: _overflow(ls, 7, "r"), 7),
    "structural error after a non-finite row": (
        lambda ls: _with(_with(ls, 3, "r", math.nan), 20, "s", None), 20),
    "a non-finite first row and a bad last row": (
        lambda ls: _with(_with(ls, 2, "an", math.nan, index=1), 41, "done", "yes"), 41),
    "header only": (lambda ls: ls[:1], FormatError),
    "empty file": (lambda ls: [], FormatError),
    # str.splitlines() breaks at each of these; no line ends there
    "raw U+2028 in the header env": (lambda ls: _env(ls, "a\u2028b"), "ok"),
    "raw U+2029 in the header env": (lambda ls: _env(ls, "a\u2029b"), "ok"),
    "raw U+0085 in the header env": (lambda ls: _env(ls, "a\x85b"), "ok"),
    "bad header": (lambda ls: _put(ls, 1, '{"ds": 2}'), 1),
    "fractional header dimension": (lambda ls: _put(ls, 1, ls[0].replace('"ds": 2', '"ds": 2.5')),
                                    1),
    "zero header dimension": (lambda ls: _put(ls, 1, ls[0].replace('"da": 2', '"da": 0')), 1),
    "header dimension beyond memory": (
        lambda ls: _put(ls, 1, ls[0].replace('"ds": 2', '"ds": 1' + "0" * 12)), 2),
    "header dimension beyond any array": (
        lambda ls: _put(ls, 1, ls[0].replace('"da": 2', '"da": 1' + "0" * 30)), 2),
}


def _write(path, lines, newline="\n"):
    path.write_text("".join(line + newline for line in lines), encoding="utf-8")


@pytest.mark.parametrize("chunk", [1, 3, data_module._CHUNK_LINES])
@pytest.mark.parametrize("name", list(_CASES))
def test_chunked_loader_matches_the_line_by_line_oracle(tmp_path, monkeypatch, name, chunk):
    monkeypatch.setattr(data_module, "_CHUNK_LINES", chunk)
    edit, expected = _CASES[name]
    path = tmp_path / "d.jsonl"
    _write(path, edit(_saved_lines(tmp_path, 1)))
    got, oracle = _outcome(load_jsonl, path), _outcome(load_jsonl_line_by_line, path)
    if isinstance(expected, tuple):
        assert got[:2] == (ParseError, expected[0]) and oracle[0] is expected[1]
        return
    assert got == oracle
    if expected == "ok":
        assert isinstance(got[0], tuple)
    elif isinstance(expected, int):
        assert got[:2] == (ParseError, expected)
    else:
        assert got[0] is expected


def test_chunked_loader_keeps_crlf_files_and_reports_across_a_chunk_boundary(tmp_path):
    # 1080 rows: line 1025 ends the first chunk, line 1026 starts the next
    lines = _saved_lines(tmp_path, 27)
    assert data_module._CHUNK_LINES == 1024
    cases = [
        (lines, None),
        (_with(_with(lines, 1026, "s", [1.0]), 1025, "a", True, index=0), 1025),
        (_with(_with(lines, 1025, "r", math.inf), 1026, "done", drop=True), 1026),
        (_with(_with(lines, 1025, "sn", math.nan, index=0), 1026, "an", -math.inf, index=1),
         1025),
        (_put(_with(lines, 1080, "r", math.nan), 1081, ""), 1081),
    ]
    path = tmp_path / "d.jsonl"
    for edited, line in cases:
        for newline in ("\n", "\r\n", "\r"):  # a lone \r at the end adds no line
            _write(path, edited, newline)
            got = _outcome(load_jsonl, path)
            assert got == _outcome(load_jsonl_line_by_line, path)
            assert got[:2] == (ParseError, line) if line else isinstance(got[0], tuple)


@pytest.mark.parametrize("chunk", [1, data_module._CHUNK_LINES])
def test_a_file_that_is_not_utf8_is_reported_first_with_the_bytes_file_position(
        tmp_path, monkeypatch, chunk):
    # the bad byte sits on the last line, after a malformed row; lines are
    # decoded as read, so the file is decoded again whole for the message
    monkeypatch.setattr(data_module, "_CHUNK_LINES", chunk)
    path = tmp_path / "d.jsonl"
    _write(path, _put(_saved_lines(tmp_path, 1), 3, "{not json"))
    raw = path.read_bytes()
    path.write_bytes(raw[:-5] + b"\xff" + raw[-5:])
    with pytest.raises(FormatError) as err:
        load_jsonl(str(path))
    assert str(err.value) == (f"dataset {path} is not UTF-8 text: 'utf-8' codec can't decode "
                              f"byte 0xff in position {len(raw) - 5}: invalid start byte")


def test_clean_rows_take_one_json_parse_per_chunk(tmp_path, monkeypatch):
    path = tmp_path / "d.jsonl"
    lines = _saved_lines(tmp_path, 27)  # 1080 rows, two chunks
    _write(path, lines)
    parses, line_by_line = [], []
    loads, rows_line_by_line = json.loads, data_module._rows_line_by_line
    monkeypatch.setattr(json, "loads", lambda text: parses.append(text) or loads(text))
    monkeypatch.setattr(data_module, "_rows_line_by_line",
                        lambda *args: line_by_line.append(args) or rows_line_by_line(*args))
    assert len(load_jsonl(str(path))) == 1080
    assert (len(parses), line_by_line) == (3, [])  # the header, then one per chunk
    _write(path, _with(lines, 1030, "r", -1))  # an integer r in the second chunk
    parses.clear()
    assert load_jsonl(str(path)).r[1028] == -1.0
    assert [args[1] for args in line_by_line] == [1026]
    assert len(parses) == 3 + 1080 - 1024


_JUNK = ["", " ", "{", "}", "[", "]", ",", '""', ":", "1", "-0.5", "1e999", "NaN", "true",
         "null", '"s"', '"done"', "[1.0, 2.0]", "\u2028", "\r"]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(edits=st.lists(st.tuples(st.integers(2, 41), st.integers(0, 400),
                                st.sampled_from(_JUNK)), max_size=3),
       chunk=st.sampled_from([1, 2, 5, 1024]))
def test_chunked_loader_matches_the_oracle_on_spliced_text(tmp_path_factory, edits, chunk):
    directory = tmp_path_factory.mktemp("spliced")
    lines = _saved_lines(directory, 1)
    for lineno, at, junk in edits:
        text = lines[lineno - 1]
        lines[lineno - 1] = text[:at] + junk + text[at:]
    path = directory / "d.jsonl"
    _write(path, lines)
    original = data_module._CHUNK_LINES
    data_module._CHUNK_LINES = chunk
    try:
        got = _outcome(load_jsonl, path)
    finally:
        data_module._CHUNK_LINES = original
    assert got == _outcome(load_jsonl_line_by_line, path)
