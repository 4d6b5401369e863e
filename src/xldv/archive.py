"""Serialization: feature archives, model checkpoints, tab-separated text.

Feature archive (``FARC``): magic ``FARC``, u16 version=2, then per record
u16 id-length, the UTF-8 utterance id, u32 T, u32 D, T*D little-endian float32
row-major, u32 CRC32 of the record bytes preceding the checksum. Reading
yields those float32 rows as they are stored. A record holds only its
utterance id: the corpus manifest is the one record of each
utterance's speaker and language. Version 1 packed those (and the frame
shift and length) into the id field; its archives are rejected as an
unsupported version, never misread.

Checkpoint container (``NNCK``): magic ``NNCK``, u16 version=1, u32 header
length, UTF-8 JSON header (layer specs / model metadata), u32 tensor count,
then per tensor u16 name-length, name, u8 dtype code (0=f32, 1=f64), u8 ndim,
ndim u32 dims, little-endian row-major payload; u32 CRC32 trailer over all
bytes after the version field.

A model checkpoint's header names its ``kind``: ``ubm``, ``tmatrix`` and
``backend`` (``save_model``), ``ctdnn`` and ``phone-classifier``
(``NetworkGraph.save``), and a back-end its ``system`` and a CT-DNN its
``variant``. The loaders take these identity entries as the writers do and
check each. ``save_model`` stores each array field of a dataclass part as the
tensor ``<part>.<field>``, each other field as the header entry
``<part>.<field>``, and a bare array part as the tensor ``<part>``.
"""

import collections
import contextlib
import dataclasses
import json
import math
import os
import struct
import zlib

import numpy as np

from .errors import DataError, FormatError, InvalidArgumentError
from .frontend import FeatureMatrix

FARC_MAGIC = b"FARC"
FARC_VERSION = 2
NNCK_MAGIC = b"NNCK"
NNCK_VERSION = 1

_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_DTYPE_TO_CODE = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}


def _unpack_id(raw: bytes, offset, path):
    try:
        utt_id = raw.decode("utf-8")
    except UnicodeDecodeError as exc:  # the CRC is checked later
        raise FormatError(f"archive record id is not UTF-8: {exc}", offset, path=path) from None
    if "\t" in utt_id or "\n" in utt_id:  # the run directory's TSVs separate with them
        raise FormatError("archive record id contains tab/newline", offset, utt_id, path)
    return utt_id


def _record_bytes(feat: FeatureMatrix) -> bytes:
    ident = feat.utterance_id.encode("utf-8")
    t, d = feat.data.shape
    body = (
        struct.pack("<H", len(ident))
        + ident
        + struct.pack("<II", t, d)
        + np.ascontiguousarray(feat.data, dtype="<f4").tobytes()
    )
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


@contextlib.contextmanager
def atomic_open(path, mode="w"):
    """``open(path, mode)`` for writing, that replaces ``path`` only when the block completes.

    The block writes ``path + ".tmp"``, which an exception removes, so ``path``
    holds either its old bytes or the complete new ones (or stays absent).
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def archive_write(feats, path):
    """Write an iterable of FeatureMatrix records; ids must be unique."""
    seen = set()
    with atomic_open(path, "wb") as fh:
        fh.write(FARC_MAGIC + struct.pack("<H", FARC_VERSION))
        for feat in feats:
            if feat.utterance_id in seen:
                raise InvalidArgumentError(f"duplicate archive id {feat.utterance_id!r}")
            seen.add(feat.utterance_id)
            fh.write(_record_bytes(feat))


def archive_stream(path, utterance_ids=None):
    """Yield FeatureMatrix records one at a time (streaming read).

    Each record holds the stored float32 rows, read-only; a consumer whose
    arithmetic needs float64 casts them itself.

    With ``utterance_ids``, yield only their records, in archive order; after
    the last record, the first of them the archive lacks is a DataError
    naming the archive.
    """
    wanted = None if utterance_ids is None else dict.fromkeys(utterance_ids)
    with open(path, "rb") as fh:
        head = fh.read(6)
        if len(head) < 6 or head[:4] != FARC_MAGIC:
            raise FormatError("not a feature archive (bad magic)", offset=0, path=path)
        (version,) = struct.unpack("<H", head[4:6])
        if version != FARC_VERSION:
            raise FormatError(f"unsupported archive version {version}", offset=4, path=path)
        seen = set()
        while True:
            rec_start = fh.tell()
            raw_len = fh.read(2)
            if not raw_len:
                break
            if len(raw_len) < 2:
                raise FormatError("truncated record header", rec_start, path=path)
            (id_len,) = struct.unpack("<H", raw_len)
            ident = fh.read(id_len)
            if len(ident) < id_len:
                raise FormatError("truncated record id", rec_start, path=path)
            utt_id = _unpack_id(ident, rec_start, path)
            dims = fh.read(8)
            if len(dims) < 8:
                raise FormatError("truncated record dims", rec_start, utt_id, path)
            t, d = struct.unpack("<II", dims)
            payload = fh.read(4 * t * d)
            if len(payload) < 4 * t * d:
                raise FormatError("truncated record payload", rec_start, utt_id, path)
            crc_raw = fh.read(4)
            if len(crc_raw) < 4:
                raise FormatError("truncated record checksum", rec_start, utt_id, path)
            (crc_stored,) = struct.unpack("<I", crc_raw)
            crc = zlib.crc32(raw_len)
            for part in (ident, dims, payload):
                crc = zlib.crc32(part, crc)
            if crc != crc_stored:
                raise FormatError("record checksum mismatch", rec_start, utt_id, path)
            if utt_id in seen:
                raise FormatError("duplicate record id", rec_start, utt_id, path)
            seen.add(utt_id)
            if wanted is None or utt_id in wanted:
                yield FeatureMatrix(utt_id, np.frombuffer(payload, dtype="<f4").reshape(t, d))
    missing = [u for u in wanted or () if u not in seen]
    if missing:
        raise DataError(f"{path}: no record for utterance {missing[0]!r}")


def archive_read_dict(path, utterance_ids):
    """The records of ``utterance_ids`` keyed by utterance id (see ``archive_stream``)."""
    return {feat.utterance_id: feat for feat in archive_stream(path, utterance_ids)}


def read_columns(path, n_fields):
    """The ``n_fields`` columns, as lists of strings, of a tab-separated text file."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise InvalidArgumentError(f"{path}: not UTF-8 text: {exc}") from None
    # One split for the whole file: a "\n" field, which no row holds, ends each
    # row, so each row has n_fields fields iff those fall every step fields.
    step = n_fields + 1
    *fields, rest = text.replace("\n", "\t\n\t").split("\t")
    if rest or len(fields) != step * text.count("\n") or set(fields[n_fields::step]) - {"\n"}:
        raise InvalidArgumentError(
            f"{path}: a line without {n_fields} tab-separated fields and a newline")
    return [fields[i::step] for i in range(n_fields)]


def save_checkpoint(path, header: dict, tensors: dict):
    """Write a checkpoint container with a JSON header and named tensors.

    Each tensor's buffer goes straight to the file, and the CRC is updated
    as the bytes are written.
    """
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(NNCK_MAGIC + struct.pack("<H", NNCK_VERSION))
        crc = 0

        def put(buf):
            nonlocal crc
            fh.write(buf)
            crc = zlib.crc32(buf, crc)

        put(struct.pack("<I", len(header_bytes)) + header_bytes
            + struct.pack("<I", len(tensors)))
        for name, tensor in tensors.items():
            arr = np.ascontiguousarray(tensor)
            if arr.dtype not in _DTYPE_TO_CODE:
                arr = arr.astype(np.float64)
            code = _DTYPE_TO_CODE[arr.dtype]
            name_bytes = name.encode("utf-8")
            put(struct.pack(f"<H{len(name_bytes)}sBB{arr.ndim}I", len(name_bytes), name_bytes,
                            code, arr.ndim, *arr.shape))
            put(arr.astype(_DTYPE_CODES[code], copy=False))
        fh.write(struct.pack("<I", crc))


def load_checkpoint(path):
    """Read a checkpoint container; returns (header dict, name -> ndarray).

    Each tensor is read straight into its own array and the CRC is updated as
    the bytes arrive, so no copy of the file is held. A file whose CRC does
    not match is a checksum mismatch, whatever else is wrong with its bytes.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(6)
        if size < 10 or head[:4] != NNCK_MAGIC:
            raise FormatError("not a checkpoint container (bad magic)", offset=0, path=path)
        (version,) = struct.unpack("<H", head[4:6])
        if version != NNCK_VERSION:
            raise FormatError(f"unsupported checkpoint version {version}", offset=4, path=path)
        end = size - 4  # the CRC trailer
        crc = 0

        def fill(buf, what):
            """Read ``len(buf)`` body bytes into the writable buffer ``buf``."""
            nonlocal crc
            pos = fh.tell()
            view = memoryview(buf).cast("B")
            if pos + len(view) > end or fh.readinto(view) != len(view):
                raise FormatError(f"truncated checkpoint ({what})", pos, path=path)
            crc = zlib.crc32(view, crc)
            return buf

        def crc_matches():
            nonlocal crc
            while (left := end - fh.tell()) > 0:
                chunk = fh.read(min(left, 1 << 20))
                if not chunk:
                    return False
                crc = zlib.crc32(chunk, crc)
            return fh.read(4) == struct.pack("<I", crc)

        def take(n, what):
            return fill(bytearray(n), what)

        def read_body():
            (header_len,) = struct.unpack("<I", take(4, "header length"))
            header = json.loads(take(header_len, "header").decode("utf-8"))
            (n_tensors,) = struct.unpack("<I", take(4, "tensor count"))
            tensors = {}
            for _ in range(n_tensors):
                (name_len,) = struct.unpack("<H", take(2, "tensor name length"))
                name = take(name_len, "tensor name").decode("utf-8")
                code, ndim = struct.unpack("<BB", take(2, "tensor dtype/ndim"))
                if code not in _DTYPE_CODES:
                    raise FormatError(f"unknown tensor dtype code {code}", fh.tell(), name, path)
                shape = struct.unpack(f"<{ndim}I", take(4 * ndim, "tensor shape"))
                tensors[name] = fill(np.empty(math.prod(shape), _DTYPE_CODES[code]),
                                     "tensor payload").reshape(shape)
            return header, tensors

        try:
            header, tensors = read_body()
        except (FormatError, ValueError) as exc:  # ValueError: a bad JSON or UTF-8 header
            error = exc
        else:
            error = None
        if not crc_matches():
            raise FormatError("checkpoint checksum mismatch", offset=end, path=path)
        if error is not None:
            raise error
    return header, tensors


def save_model(path, header: dict, **parts):
    """Write ``header``, which names the ``kind``, and dataclass or bare-array ``parts``."""
    header, tensors = dict(header), {}
    for name, part in parts.items():
        if not dataclasses.is_dataclass(part):
            tensors[name] = part
            continue
        for fld in dataclasses.fields(part):
            value = getattr(part, fld.name)
            (tensors if isinstance(value, np.ndarray) else header)[f"{name}.{fld.name}"] = value
    save_checkpoint(path, header, tensors)


def load_kind(path, header):
    """``load_checkpoint`` of a checkpoint that holds each entry of ``header``, the
    identity its writer stored (``{"kind": "backend", "system": "ivector"}``).

    An entry that differs is a DataError naming the file and the entry."""
    stored, tensors = load_checkpoint(path)
    for key, value in header.items():
        if stored.get(key) != value:
            raise DataError(f"{path}: checkpoint {key} is {stored.get(key)!r}, not {value!r}")
    return stored, tensors


def load_model(path, header, **parts):
    """The ``parts`` of a ``save_model`` checkpoint, by name; ``header`` as in ``load_kind``.

    Each part names its dataclass, or ``np.ndarray`` for a bare array. A
    missing field is a DataError naming ``path``.
    """
    stored = collections.ChainMap(*load_kind(path, header))
    try:
        return {name: stored[name] if cls is np.ndarray
                else cls(**{f.name: stored[f"{name}.{f.name}"] for f in dataclasses.fields(cls)})
                for name, cls in parts.items()}
    except KeyError as exc:
        raise DataError(f"{path}: {header['kind']} checkpoint lacks {exc}") from None
