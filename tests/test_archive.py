"""Feature archive and checkpoint container round trips and fault handling."""

import dataclasses
import json
import pickle
import re
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from xldv.archive import (
    archive_read_dict,
    archive_stream,
    archive_write,
    atomic_open,
    load_checkpoint,
    load_model,
    read_columns,
    save_checkpoint,
    save_model,
)
from xldv.errors import DataError, FormatError, InvalidArgumentError
from xldv.frontend import FeatureMatrix


def random_feats(n, rng):
    out = []
    for i in range(n):
        t, d = int(rng.integers(1, 12)), int(rng.integers(1, 9))
        # float32-representable values so the on-disk f32 payload is exact
        data = rng.normal(size=(t, d)).astype(np.float32).astype(np.float64)
        out.append(FeatureMatrix(f"utt{i}", data))
    return out


class TestFeatureArchive:
    def test_round_trip_bitwise(self, tmp_path):
        feats = random_feats(3, np.random.default_rng(0))
        path = tmp_path / "a.farc"
        archive_write(feats, path)
        back = list(archive_stream(path))
        assert len(back) == 3
        for a, b in zip(feats, back):
            assert a.utterance_id == b.utterance_id
            assert b.data.dtype == np.float32
            assert b.data.tobytes() == a.data.astype(np.float32).tobytes()

    def test_record_holds_only_the_utterance_id(self, tmp_path):
        path = tmp_path / "one.farc"
        archive_write([FeatureMatrix("évl0-A-000", np.array([[1.5, -2.0]]))], path)
        ident = "évl0-A-000".encode("utf-8")
        body = (struct.pack("<H", len(ident)) + ident + struct.pack("<II", 1, 2)
                + np.array([1.5, -2.0], "<f4").tobytes())
        assert path.read_bytes() == (b"FARC" + struct.pack("<H", 2) + body
                                     + struct.pack("<I", zlib.crc32(body)))

    def test_non_utf8_id_names_file_and_offset(self, tmp_path):
        path = tmp_path / "bad-id.farc"
        body = struct.pack("<H", 2) + b"\xff\xfe" + struct.pack("<II", 1, 1) + bytes(4)
        path.write_bytes(b"FARC" + struct.pack("<H", 2) + body
                         + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(FormatError, match="record id is not UTF-8") as err:
            list(archive_stream(path))
        assert (err.value.path, err.value.offset) == (path, 6)

    @pytest.mark.parametrize("ident", [b"u\t0", b"u0\n"], ids=["tab", "newline"])
    def test_tab_or_newline_id_names_file_and_offset(self, tmp_path, ident):
        path = tmp_path / "tab-id.farc"
        body = struct.pack("<H", 3) + ident + struct.pack("<II", 1, 1) + bytes(4)
        path.write_bytes(b"FARC" + struct.pack("<H", 2) + body
                         + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(FormatError, match="record id contains tab/newline") as err:
            list(archive_stream(path))
        assert (err.value.path, err.value.offset, err.value.record) == (
            path, 6, ident.decode())

    def test_empty_archive(self, tmp_path):
        path = tmp_path / "empty.farc"
        archive_write([], path)
        assert list(archive_stream(path)) == []

    def test_duplicate_id_rejected(self, tmp_path):
        feats = random_feats(2, np.random.default_rng(1))
        feats[1].utterance_id = feats[0].utterance_id
        with pytest.raises(InvalidArgumentError):
            archive_write(feats, tmp_path / "dup.farc")

    def test_truncation_names_failing_record(self, tmp_path):
        feats = random_feats(3, np.random.default_rng(2))
        path = tmp_path / "t.farc"
        archive_write(feats, path)
        blob = path.read_bytes()
        truncated = tmp_path / "trunc.farc"
        truncated.write_bytes(blob[:-7])
        with pytest.raises(FormatError) as err:
            list(archive_stream(truncated))
        assert err.value.record == "utt2"
        assert err.value.offset is not None

    def test_errors_name_the_file_and_pickle_whole(self, tmp_path):
        path = tmp_path / "t.farc"
        archive_write(random_feats(3, np.random.default_rng(2)), path)
        path.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(FormatError) as err:
            list(archive_stream(path))
        assert err.value.path == path
        assert str(err.value).startswith(f"{path}: truncated record payload (record 'utt2')")
        # a worker process raises it in the parent through pickle
        copy = pickle.loads(pickle.dumps(err.value))
        assert type(copy) is FormatError
        assert (str(copy), copy.offset, copy.record, copy.path) == (
            str(err.value), err.value.offset, "utt2", path)

    def test_corruption_detected_by_crc(self, tmp_path):
        feats = random_feats(2, np.random.default_rng(3))
        path = tmp_path / "c.farc"
        archive_write(feats, path)
        blob = bytearray(path.read_bytes())
        blob[-10] ^= 0xFF
        bad = tmp_path / "bad.farc"
        bad.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            list(archive_stream(bad))

    # the second record's last payload byte, or its stored CRC
    @pytest.mark.parametrize("flip", [-5, -1], ids=["payload", "trailer"])
    def test_bad_crc_names_the_record_and_its_offset(self, tmp_path, flip):
        path = tmp_path / "c.farc"
        feats = random_feats(2, np.random.default_rng(3))
        archive_write(feats, path)
        blob = bytearray(path.read_bytes())
        second = 6 + 2 + len("utt0") + 8 + 4 * feats[0].data.size + 4
        blob[flip] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError) as err:
            list(archive_stream(path))
        assert str(err.value) == (f"{path}: record checksum mismatch (record 'utt1') "
                                  f"at byte offset {second}")

    def test_streaming_read_one_at_a_time(self, tmp_path):
        feats = random_feats(5, np.random.default_rng(4))
        path = tmp_path / "s.farc"
        archive_write(feats, path)
        stream = archive_stream(path)
        first = next(stream)
        assert first.utterance_id == "utt0"
        rest = list(stream)
        assert len(rest) == 4

    def test_read_dict_keys(self, tmp_path):
        feats = random_feats(4, np.random.default_rng(5))
        path = tmp_path / "d.farc"
        archive_write(feats, path)
        back = archive_read_dict(path, ["utt3", "utt1"])
        assert list(back) == ["utt1", "utt3"]  # archive order, the others skipped
        for feat in (feats[1], feats[3]):
            data = back[feat.utterance_id].data
            assert data.dtype == np.float32
            assert data.tobytes() == feat.data.astype(np.float32).tobytes()

    def test_missing_id_names_the_archive_after_the_last_record(self, tmp_path):
        path = tmp_path / "m.farc"
        archive_write(random_feats(3, np.random.default_rng(6)), path)
        stream = archive_stream(path, ["utt2", "ghost", "utt0", "phantom"])
        assert [next(stream).utterance_id for _ in range(2)] == ["utt0", "utt2"]
        with pytest.raises(DataError) as err:
            next(stream)
        assert type(err.value) is DataError
        assert str(err.value) == f"{path}: no record for utterance 'ghost'"


class TestCheckpointContainer:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        header = {"kind": "demo", "specs": [{"kind": "affine", "dim": 3}], "note": "x"}
        tensors = {
            "layer00.W": rng.normal(size=(4, 3)),
            "layer00.b": rng.normal(size=3).astype(np.float32),
            "scalarish": np.array(2.5),
        }
        path = tmp_path / "m.nnck"
        save_checkpoint(path, header, tensors)
        h2, t2 = load_checkpoint(path)
        assert h2 == header
        assert set(t2) == set(tensors)
        for k in tensors:
            assert t2[k].dtype == (np.float32 if k == "layer00.b" else np.float64)
            np.testing.assert_array_equal(t2[k], tensors[k])

    def test_crc_trailer_detects_corruption(self, tmp_path):
        path = tmp_path / "m.nnck"
        save_checkpoint(path, {"kind": "demo"}, {"w": np.ones((2, 2))})
        blob = bytearray(path.read_bytes())
        blob[20] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: checkpoint checksum mismatch"):
            load_checkpoint(path)

    def test_bytes_follow_the_layout(self, tmp_path):
        path = tmp_path / "m.nnck"
        w, b = np.arange(6.0).reshape(2, 3), np.array([1.5, -2.0], np.float32)
        save_checkpoint(path, {"kind": "demo"}, {"w": w, "b": b})
        header = b'{"kind":"demo"}'
        body = (struct.pack("<I", len(header)) + header + struct.pack("<I", 2)
                + struct.pack("<H", 1) + b"w" + struct.pack("<BB2I", 1, 2, 2, 3) + w.tobytes()
                + struct.pack("<H", 1) + b"b" + struct.pack("<BBI", 0, 1, 2) + b.tobytes())
        assert path.read_bytes() == (b"NNCK" + struct.pack("<H", 1) + body
                                     + struct.pack("<I", zlib.crc32(body)))

    @pytest.mark.parametrize("cut", [4, 30], ids=["trailer", "payload"])
    def test_truncated_file_is_a_checksum_mismatch(self, tmp_path, cut):
        path = tmp_path / "m.nnck"
        save_checkpoint(path, {"kind": "demo"}, {"w": np.ones((2, 2))})
        path.write_bytes(path.read_bytes()[:-cut])
        size = path.stat().st_size
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: checkpoint checksum "
                                              f"mismatch at byte offset {size - 4}$"):
            load_checkpoint(path)

    def test_payload_shorter_than_its_shape_is_truncated(self, tmp_path):
        path = tmp_path / "m.nnck"

        def write(dims):
            """A good CRC over one float64 tensor of ``dims`` holding 4 values."""
            header = json.dumps({"kind": "demo"}).encode()
            body = (struct.pack("<I", len(header)) + header + struct.pack("<I", 1)
                    + struct.pack("<H", 1) + b"w" + struct.pack("<BB2I", 1, 2, *dims)
                    + np.ones(4).tobytes())
            path.write_bytes(b"NNCK" + struct.pack("<H", 1) + body
                             + struct.pack("<I", zlib.crc32(body)))
            return 6 + len(body) - 32  # the payload's offset

        write((2, 2))
        assert load_checkpoint(path)[1]["w"].tobytes() == np.ones(4).tobytes()
        payload = write((2, 3))
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: truncated checkpoint "
                                              rf"\(tensor payload\) at byte offset {payload}$"):
            load_checkpoint(path)

    def test_load_holds_one_copy_of_each_tensor(self, tmp_path):
        path = tmp_path / "big.nnck"
        w = np.random.default_rng(1).normal(size=(512, 1024))
        save_checkpoint(path, {"kind": "demo"}, {"w": w})
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _, tensors = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert tensors["w"].tobytes() == w.tobytes()
        assert tensors["w"].flags.writeable
        # the tensor's own array plus a small constant; reading the file whole
        # and slicing it held about four copies
        assert peak <= w.nbytes + 64 * 1024

    def test_deterministic_bytes(self, tmp_path):
        tensors = {"w": np.arange(6.0).reshape(2, 3)}
        p1, p2 = tmp_path / "a.nnck", tmp_path / "b.nnck"
        save_checkpoint(p1, {"b": 1, "a": 2}, tensors)
        save_checkpoint(p2, {"a": 2, "b": 1}, tensors)
        assert p1.read_bytes() == p2.read_bytes()


@dataclasses.dataclass
class Demo:
    weights: np.ndarray
    history: list
    order: int


class TestModelCodec:
    def save_demo(self, path):
        demo = Demo(np.arange(6.0).reshape(2, 3), [0.5, -1.25], 3)
        save_model(path, {"kind": "demo", "note": "x"}, demo=demo, offset=np.array([1.5, 2.0]))
        return demo

    def test_round_trip(self, tmp_path):
        path = tmp_path / "m.nnck"
        demo = self.save_demo(path)
        header, tensors = load_checkpoint(path)
        assert header == {"kind": "demo", "note": "x", "demo.history": [0.5, -1.25],
                          "demo.order": 3}
        assert sorted(tensors) == ["demo.weights", "offset"]
        parts = load_model(path, {"kind": "demo", "note": "x"}, demo=Demo, offset=np.ndarray)
        assert list(parts) == ["demo", "offset"]
        back = parts["demo"]
        np.testing.assert_array_equal(back.weights, demo.weights)
        assert (back.history, back.order) == (demo.history, demo.order)
        assert type(back.order) is int
        np.testing.assert_array_equal(parts["offset"], [1.5, 2.0])

    def test_wrong_kind_is_a_data_error(self, tmp_path):
        path = tmp_path / "m.nnck"
        self.save_demo(path)
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: checkpoint kind is "
                                            "'demo', not 'ubm'$"):
            load_model(path, {"kind": "ubm", "note": "y"}, demo=Demo)

    @pytest.mark.parametrize("header, error", [
        ({"kind": "demo", "note": "y"}, "checkpoint note is 'x', not 'y'"),
        ({"kind": "demo", "system": "ivector"}, "checkpoint system is None, not 'ivector'"),
    ], ids=["differs", "absent"])
    def test_wrong_identity_entry_is_a_data_error(self, tmp_path, header, error):
        path = tmp_path / "m.nnck"
        self.save_demo(path)
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: {re.escape(error)}$"):
            load_model(path, header, demo=Demo)

    @pytest.mark.parametrize("drop", ["demo.weights", "demo.order", "offset"])
    def test_missing_field_is_a_data_error(self, tmp_path, drop):
        path = tmp_path / "m.nnck"
        self.save_demo(path)
        header, tensors = load_checkpoint(path)
        header.pop(drop, None)
        tensors.pop(drop, None)
        save_checkpoint(path, header, tensors)
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: demo checkpoint lacks "
                                            f"'{drop}'$"):
            load_model(path, {"kind": "demo"}, demo=Demo, offset=np.ndarray)


class TestAtomicOpen:
    @pytest.mark.parametrize("old", [b"old bytes\n", None], ids=["existing", "absent"])
    def test_error_leaves_old_bytes_or_no_file(self, tmp_path, old):
        path = tmp_path / "out.bin"
        if old is not None:
            path.write_bytes(old)
        with pytest.raises(RuntimeError), atomic_open(path, "wb") as fh:
            fh.write(b"partial")
            raise RuntimeError("writer failed midway")
        assert (path.read_bytes() if path.exists() else None) == old
        assert sorted(p.name for p in tmp_path.iterdir()) == (["out.bin"] if old else [])

    def test_complete_block_replaces_the_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        with atomic_open(path) as fh:
            fh.write("new \u00e9\n")
        assert path.read_bytes() == "new \u00e9\n".encode()
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


class TestReadColumns:
    def test_columns_of_rows(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("a\tb\t1\n\t\t\nc\td\t2\n")
        assert read_columns(path, 3) == [["a", "", "c"], ["b", "", "d"], ["1", "", "2"]]
        path.write_text("")
        assert read_columns(path, 2) == [[], []]

    @pytest.mark.parametrize("n_fields, text", [
        (3, "a\tb\n"),
        (3, "a\tb\tc\td\n"),
        (2, "a\nb\tc\td\n"),  # 1 + 3 fields: the total is right, the rows are not
        (3, "a\tb\tc\nd\ne\tf\tg\th\ti\nj\tk\tl\n"),  # 3 + 1 + 5 + 3
        (3, "a\tb\tc\n\n"),
        (3, "a\tb\tc\nd\te\tf"),  # no final newline
    ], ids=["short", "long", "short-then-long", "compensating", "blank-line", "unterminated"])
    def test_line_without_n_fields_rejected(self, tmp_path, n_fields, text):
        path = tmp_path / "t.tsv"
        path.write_text(text)
        with pytest.raises(InvalidArgumentError, match="t.tsv"):
            read_columns(path, n_fields)

    def test_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_bytes(b"a\t\xff\n")
        with pytest.raises(InvalidArgumentError, match="UTF-8"):
            read_columns(path, 2)

