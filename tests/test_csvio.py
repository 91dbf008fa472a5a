import json
import math
import struct

import pytest

from loopexp._csvio import read_csv, write_csv
from loopexp.bounds import ALPHA_D_DEFAULT, ALPHA_MID_DEFAULT
from loopexp.cli import main


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


class TestRoundTrip:
    def test_float_bits_survive(self, tmp_path):
        values = [-0.0, math.inf, -math.inf, math.nan, 5e-324, 0.1 + 0.2]
        path = tmp_path / "floats.csv"
        write_csv(path, {}, ["i", "x"], list(enumerate(values)))
        _, rows = read_csv(path, ["i", "x"])
        assert [int(r[0]) for r in rows] == list(range(len(values)))
        assert [bits(float(r[1])) for r in rows] == [bits(v) for v in values]

    def test_dict_metadata_is_sorted_json(self, tmp_path):
        path = tmp_path / "meta.csv"
        write_csv(path, {"config": {"b": 1, "a": [2, 1]}, "seed": None},
                  ["x"], [[1]])
        meta, rows = read_csv(path, ["x"])
        assert meta == {"config": '{"a": [2, 1], "b": 1}', "seed": ""}
        assert rows == [["1"]]

    def test_comment_after_header_is_metadata(self, tmp_path):
        path = tmp_path / "late.csv"
        write_csv(path, {"early": 1}, ["x"], [[1], [2]])
        with open(path, "a") as fh:
            fh.write("\n# late=3\n")
        meta, rows = read_csv(path, ["x"])
        assert meta == {"early": "1", "late": "3"}
        assert rows == [["1"], ["2"]]


class TestHeader:
    def test_missing_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# p=0.1\n")
        with pytest.raises(ValueError, match="expected header a,b,eta"):
            read_csv(path, ["a", "b", "eta"])

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "wrong.csv"
        write_csv(path, {}, ["a", "b"], [[1, 2]])
        with pytest.raises(ValueError,
                           match=r"unexpected header \['a', 'b'\], "
                                 r"expected header a,b,eta"):
            read_csv(path, ["a", "b", "eta"])


def test_exponent_scan_config_is_json(tmp_path):
    out = tmp_path / "surface.csv"
    assert main(["exponent-scan", "--h", "0.02", "--step", "0.05",
                 "-o", str(out)]) == 0
    meta, rows = read_csv(out, ["x_2", "x_3", "exponent"])
    assert json.loads(meta["config"]) == {
        "alpha_d": ALPHA_D_DEFAULT, "alpha_mid": ALPHA_MID_DEFAULT, "d": 3,
        "h": 0.02, "n": 0, "out": str(out), "step": 0.05}
    assert rows


def test_exponent_scan_writes_no_value_one_way(tmp_path):
    # the large-n limit (n) and the seedless command (master_seed) both
    # leave their values empty
    out = tmp_path / "surface.csv"
    assert main(["exponent-scan", "--h", "0.02", "--step", "0.05",
                 "-o", str(out)]) == 0
    meta, _ = read_csv(out, ["x_2", "x_3", "exponent"])
    assert meta["n"] == meta["master_seed"] == ""
