"""Deterministic file formats: CSV tables, parameter dumps, manifests."""

import hashlib
import json
import os

import numpy as np
import pytest

from mtunlearn import artifacts as A
from mtunlearn import optimizer as O
from mtunlearn.errors import MissingArtifactError


class TestCellFormat:
    def test_floats_round_trip_through_repr(self):
        rng = np.random.default_rng(120)
        for x in rng.standard_normal(20):
            assert float(A.format_cell(float(x))) == float(x)
        assert A.format_cell(0.1) == "0.1"
        assert A.format_cell(np.float64(0.1)) == "0.1"

    def test_bools_and_ints_are_words_not_numbers(self):
        assert A.format_cell(True) == "True"
        assert A.format_cell(np.bool_(False)) == "False"
        assert A.format_cell(7) == "7"
        assert A.format_cell(np.int64(-3)) == "-3"
        assert A.format_cell("status") == "status"


class TestCsv:
    def test_unix_newlines_and_exact_cells(self, tmp_path):
        path = tmp_path / "table.csv"
        A.write_csv(str(path), ["a", "b"], [[1, 0.5], [True, "x"]])
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw == b"a,b\n1,0.5\nTrue,x\n"

    def test_trajectory_gap_column(self, tmp_path):
        a = O.Trajectory(ts=[0, 1], grad_norms=[0.0, 2.0],
                         loss_values=[1.0, 0.5], divergence_values=[0.0, 0.1],
                         clip_scales=[1.0, 0.25], gaps=[0.0, 0.125])
        plain = tmp_path / "plain.csv"
        A.write_trajectory_csv(str(plain), a)
        assert plain.read_text() == (
            "t,grad_norm,loss,divergence,clip_scale,gap\n"
            "0,0.0,1.0,0.0,1.0,0.0\n1,2.0,0.5,0.1,0.25,0.125\n")


class TestParams:
    def test_round_trip(self, tmp_path):
        theta = np.random.default_rng(121).standard_normal(17)
        path = tmp_path / "theta.npy"
        A.save_params(str(path), theta)
        np.testing.assert_array_equal(A.load_params(str(path)), theta)

    def test_missing_file_is_a_distinct_error(self, tmp_path):
        with pytest.raises(MissingArtifactError, match="not found"):
            A.load_params(str(tmp_path / "nope.npy"))

    def test_identical_content_gives_identical_bytes(self, tmp_path):
        theta = np.random.default_rng(122).standard_normal(9)
        A.save_params(str(tmp_path / "a.npy"), theta)
        A.save_params(str(tmp_path / "b.npy"), theta.copy())
        assert (tmp_path / "a.npy").read_bytes() == (tmp_path / "b.npy").read_bytes()


class TestHashing:
    def test_canonical_json_ignores_key_order(self):
        assert A.canonical_json({"b": 1, "a": [2, 3]}) == '{"a":[2,3],"b":1}'
        assert A.content_hash({"x": 1, "y": 2}) == A.content_hash({"y": 2, "x": 1})

    def test_numpy_values_serialize_as_plain_python(self):
        doc = {"f": np.float64(0.25), "i": np.int32(4), "b": np.bool_(True),
               "v": np.arange(3)}
        assert json.loads(A.canonical_json(doc)) == {
            "f": 0.25, "i": 4, "b": True, "v": [0, 1, 2]}
        with pytest.raises(TypeError, match="serializable"):
            A.canonical_json({"bad": object()})

    def test_hash_covers_config_and_file_bytes(self, tmp_path):
        p = tmp_path / "data.jsonl"
        p.write_bytes(b'{"tokens": [1, 2]}\n')
        base = A.content_hash({"k": 1}, [str(p)])
        expected = hashlib.sha256(
            b'{"k":1}' + b"\x00" + b"data.jsonl" + b"\x00" + p.read_bytes()
        ).hexdigest()
        assert base == expected
        assert A.content_hash({"k": 2}, [str(p)]) != base
        p.write_bytes(b'{"tokens": [1, 3]}\n')
        assert A.content_hash({"k": 1}, [str(p)]) != base

    def test_hash_depends_on_basename_not_directory(self, tmp_path):
        (tmp_path / "d1").mkdir()
        (tmp_path / "d2").mkdir()
        p1 = tmp_path / "d1" / "same.bin"
        p2 = tmp_path / "d2" / "same.bin"
        p1.write_bytes(b"abc")
        p2.write_bytes(b"abc")
        assert A.content_hash({}, [str(p1)]) == A.content_hash({}, [str(p2)])


class TestManifest:
    def test_keys_and_round_trip(self, tmp_path):
        out = str(tmp_path / "run")
        m = A.write_manifest(out, "verify", {"a": 1}, 5, 1.25)
        assert set(m) == {"command", "config", "content_hash", "seed",
                          "version", "duration_s"}
        assert m["version"] == A.TOOL_VERSION
        assert A.read_manifest(out) == m

    def test_duration_does_not_enter_the_hash(self, tmp_path):
        m1 = A.write_manifest(str(tmp_path / "r1"), "verify", {"a": 1}, 5, 1.0)
        m2 = A.write_manifest(str(tmp_path / "r2"), "verify", {"a": 1}, 5, 9.0)
        assert m1["content_hash"] == m2["content_hash"]

    def test_missing_manifest_and_results(self, tmp_path):
        with pytest.raises(MissingArtifactError, match="manifest"):
            A.read_manifest(str(tmp_path))
        with pytest.raises(MissingArtifactError, match="results"):
            A.read_results_json(str(tmp_path))

    def test_results_round_trip_with_numpy_payload(self, tmp_path):
        out = str(tmp_path)
        doc = {"check": "demo", "value": np.float64(1.5),
               "flags": [np.bool_(True)]}
        path = A.write_results_json(out, doc)
        assert os.path.basename(path) == "results.json"
        assert A.read_results_json(out) == {"check": "demo", "value": 1.5,
                                            "flags": [True]}
