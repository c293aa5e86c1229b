"""Binary/CSV matrix formats, packed-variable files, and key-value configs."""

import re
import struct

import numpy as np
import pytest

from spgae.data import load_idx_images, load_idx_labels
from spgae.model import Variables, packed_size
from spgae.serialize import (MAT_MAGIC, VAR_MAGIC, FormatError, load_kv, load_matrix,
                             load_matrix_csv, load_variables, save_kv,
                             save_matrix, save_matrix_csv, save_variables)

from conftest import random_feasible, random_problem


class TestMatrix:
    def test_binary_round_trip(self, tmp_path, test_rng):
        M = test_rng.standard_normal((4, 7))
        path = tmp_path / "m.bin"
        save_matrix(path, M)
        got = load_matrix(path)
        assert got.dtype == np.float64
        assert np.array_equal(got, M)

    def test_csv_round_trip_and_binary_agreement(self, tmp_path, test_rng):
        M = test_rng.standard_normal((3, 5)) * 1e-7
        bp, cp = tmp_path / "m.bin", tmp_path / "m.csv"
        save_matrix(bp, M)
        save_matrix_csv(cp, M)
        # %.17g is lossless for doubles, so the two files agree exactly
        assert np.array_equal(load_matrix_csv(cp), load_matrix(bp))

    def test_single_row_csv_keeps_2d(self, tmp_path):
        path = tmp_path / "row.csv"
        save_matrix_csv(path, np.array([[1.0, 2.0, 3.0]]))
        assert load_matrix_csv(path).shape == (1, 3)

    def test_rejects_non_2d(self, tmp_path):
        with pytest.raises(ValueError):
            save_matrix(tmp_path / "x.bin", np.zeros(3))
        with pytest.raises(ValueError):
            save_matrix_csv(tmp_path / "x.csv", np.zeros((2, 2, 2)))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTMINE\n" + b"\x00" * 16)
        with pytest.raises(FormatError, match="bad magic"):
            load_matrix(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.bin"
        save_matrix(path, np.ones((2, 2)))
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(FormatError, match="truncated payload"):
            load_matrix(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "long.bin"
        save_matrix(path, np.ones((2, 2)))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing bytes"):
            load_matrix(path)


class TestVariables:
    def test_round_trip(self, tmp_path, tiny_problem, test_rng):
        data, params = tiny_problem
        z = random_feasible(data, params, test_rng)
        path = tmp_path / "z.bin"
        save_variables(path, z, data)
        got, dims = load_variables(path)
        assert dims == data.dims
        assert np.array_equal(got.pack(), z.pack())
        assert np.array_equal(got.W, z.W)
        assert np.array_equal(got.V, z.V)

    def test_accepts_dims_tuple(self, tmp_path, tiny_problem, test_rng):
        data, params = tiny_problem
        z = random_feasible(data, params, test_rng)
        path = tmp_path / "z.bin"
        save_variables(path, z, data.dims)
        got, dims = load_variables(path)
        assert dims == data.dims
        assert np.array_equal(got.pack(), z.pack())

    def test_dims_mismatch_rejected(self, tmp_path, tiny_problem, test_rng):
        data, params = tiny_problem
        z = random_feasible(data, params, test_rng)
        with pytest.raises(ValueError, match="do not match dims"):
            save_variables(tmp_path / "z.bin", z, (7, 3, 2))

    def test_nonpositive_dim_in_header(self, tmp_path, tiny_problem, test_rng):
        import struct

        data, params = tiny_problem
        z = random_feasible(data, params, test_rng)
        path = tmp_path / "z.bin"
        save_variables(path, z, data)
        blob = bytearray(path.read_bytes())
        blob[8:32] = struct.pack("<qqq", 0, data.n_visible, data.n_hidden)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="nonpositive dimension"):
            load_variables(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "z.bin"
        path.write_bytes(b"SPGAEZ1\n" + b"\x00" * 10)
        with pytest.raises(FormatError, match="truncated header"):
            load_variables(path)


# reader, magic, header struct, valid dimensions, payload bytes per dims,
# the payload's name in truncation errors
FRAMED_FORMATS = {
    "variables": (load_variables, VAR_MAGIC, "<qqq", (4, 3, 2),
                  lambda d: 8 * packed_size(d), "payload"),
    "matrix": (load_matrix, MAT_MAGIC, "<qq", (3, 2), lambda d: 8 * d[0] * d[1],
               "payload"),
    "idx-images": (load_idx_images, struct.pack(">i", 0x803), ">iii", (2, 3, 4),
                   lambda d: d[0] * d[1] * d[2], "pixel data"),
    "idx-labels": (load_idx_labels, struct.pack(">i", 0x801), ">i", (5,),
                   lambda d: d[0], "label data"),
}


def framed_file(magic, header, dims, payload_bytes):
    return magic + struct.pack(header, *dims) + bytes(payload_bytes(dims))


@pytest.mark.parametrize("fmt", sorted(FRAMED_FORMATS))
@pytest.mark.parametrize("fault", ["bad magic", "truncated header", "dimension",
                                   "truncated payload", "trailing bytes"])
def test_framed_readers_reject_every_fault_at_its_offset(tmp_path, fmt, fault):
    reader, magic, header, dims, payload_bytes, payload = FRAMED_FORMATS[fmt]
    good = framed_file(magic, header, dims, payload_bytes)
    hsize, nbytes = struct.calcsize(header), payload_bytes(dims)
    blob, expect = {
        "bad magic": (b"X" + good[1:], f"bad magic {b'X' + magic[1:]!r} at offset 0"),
        "truncated header": (good[:len(magic) + hsize - 1],
                             f"truncated header: wanted {hsize} bytes at offset "
                             f"{len(magic)}, got {hsize - 1}"),
        "dimension": (framed_file(magic, header, (-1,) + dims[1:], lambda d: 0),
                      f"dimension in header at offset {len(magic)}"),
        "truncated payload": (good[:-1], f"truncated {payload}: wanted {nbytes} bytes "
                              f"at offset {len(magic) + hsize}, got {nbytes - 1}"),
        "trailing bytes": (good + b"\x00", f"trailing bytes at offset {len(good)}"),
    }[fault]
    path = tmp_path / "f.bin"
    path.write_bytes(good)
    reader(path)
    path.write_bytes(blob)
    with pytest.raises(FormatError, match=re.escape(expect)):
        reader(path)


class TestKeyValue:
    def test_round_trip_with_full_precision_floats(self, tmp_path):
        path = tmp_path / "cfg.txt"
        save_kv(path, {"lambda2": 0.1, "method": "spg", "epochs": 40})
        got = load_kv(path)
        assert got == {"lambda2": "0.10000000000000001",
                       "method": "spg", "epochs": "40"}
        assert float(got["lambda2"]) == 0.1

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("# header\n\n a = 1 \n# tail\nb=2\n")
        assert load_kv(path) == {"a": "1", "b": "2"}

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("a = 1\nnot a pair\n")
        with pytest.raises(ValueError, match="cfg.txt:2"):
            load_kv(path)
