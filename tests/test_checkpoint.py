import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bandflow.checkpoint import load_checkpoint, load_into, save_checkpoint
from bandflow.errors import DataError
from bandflow.tensor import ParameterStore


def test_round_trip_value_exact_f32(tmp_path):
    rng = np.random.default_rng(0)
    store = ParameterStore()
    store.add("layer.w", rng.standard_normal((3, 5)))
    store.add("layer.b", rng.standard_normal(5))
    store.add("scalar", rng.standard_normal(()))
    path = tmp_path / "model.vbnd"
    save_checkpoint(store, path)
    loaded = load_checkpoint(path)
    assert sorted(loaded) == store.names()
    for name, t in store.items():
        np.testing.assert_array_equal(loaded[name], t.data.astype(np.float32).astype(np.float64))


def test_magic_and_version(tmp_path):
    path = tmp_path / "x.vbnd"
    save_checkpoint({"a": np.zeros(2)}, path)
    assert path.read_bytes()[:4] == b"VBND"
    bad = tmp_path / "bad.vbnd"
    bad.write_bytes(b"NOPE" + b"\x00" * 8)
    with pytest.raises(DataError):
        load_checkpoint(bad)


def test_load_into_shape_mismatch(tmp_path):
    path = tmp_path / "m.vbnd"
    save_checkpoint({"w": np.zeros((2, 2))}, path)
    store = ParameterStore()
    store.add("w", np.zeros((3, 3)))
    with pytest.raises(DataError):
        load_into(store, path)


def test_save_twice_identical_bytes(tmp_path):
    arrs = {"a": np.arange(6.0).reshape(2, 3), "b": np.ones(4)}
    p1, p2 = tmp_path / "1.vbnd", tmp_path / "2.vbnd"
    save_checkpoint(arrs, p1)
    save_checkpoint(arrs, p2)
    assert p1.read_bytes() == p2.read_bytes()


def _valid_blob(tmp_path):
    path = tmp_path / "valid.vbnd"
    save_checkpoint({"layer.w": np.arange(6.0).reshape(2, 3), "scalar": np.ones(()),
                     "empty": np.zeros((0, 2))}, path)
    return path.read_bytes()


def test_every_truncation_raises_data_error(tmp_path):
    blob = _valid_blob(tmp_path)
    path = tmp_path / "cut.vbnd"
    for n in range(len(blob)):
        path.write_bytes(blob[:n])
        with pytest.raises(DataError):
            load_checkpoint(path)


def test_short_payload_names_tensor(tmp_path):
    path = tmp_path / "cut.vbnd"
    path.write_bytes(_valid_blob(tmp_path)[:-3])
    with pytest.raises(DataError, match="payload of 'scalar'"):
        load_checkpoint(path)


def test_oversized_extents_with_a_zero_raise_data_error(tmp_path):
    # no payload bytes, but 2**93 elements before the zero: numpy rejects the shape
    path = tmp_path / "huge.vbnd"
    path.write_bytes(b"VBND" + struct.pack("<IIH", 1, 1, 1) + b"a"
                     + struct.pack("<B4I", 4, 2**31, 2**31, 2**31, 0))
    with pytest.raises(DataError, match="too large"):
        load_checkpoint(path)


_FUZZ = settings(max_examples=200, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


@_FUZZ
@given(st.binary(min_size=1, max_size=64))
def test_appended_bytes_raise_data_error(tmp_path, tail):
    path = tmp_path / "long.vbnd"
    path.write_bytes(_valid_blob(tmp_path) + tail)
    with pytest.raises(DataError, match="trailing bytes"):
        load_checkpoint(path)


@_FUZZ
@given(st.lists(st.tuples(st.integers(0, 10_000), st.integers(0, 255)), max_size=4))
def test_corrupted_bytes_raise_only_data_error(tmp_path, edits):
    blob = bytearray(_valid_blob(tmp_path))
    for pos, value in edits:
        blob[pos % len(blob)] = value
    path = tmp_path / "edited.vbnd"
    path.write_bytes(bytes(blob))
    try:
        load_checkpoint(path)
    except DataError:
        pass
