"""Binary run snapshots with integrity checking.

Layout, all integers little-endian:

    bytes 0..3    magic b"WSSR"
    bytes 4..7    u32 format version (currently 1)
    bytes 8..15   u64 length of the JSON header
    ...           header: UTF-8 JSON, sorted keys
    ...           raw array payload, concatenated in manifest order
    last 4 bytes  u32 CRC32 of everything before the trailer

The header carries three top-level entries: "scalars" (JSON-safe dict),
"arrays" (manifest of name/dtype/shape, payload offsets implied by
order), and "rng_states" (bit-generator state dicts, which are plain
JSON since Python ints are unbounded). Arrays are restricted to float64
and int64 so the byte layout is unambiguous.

Writes go to a sibling temp file and are renamed into place, so a crash
mid-write never clobbers the previous snapshot.
"""

import json
import math
import os
import struct
import zlib

import numpy as np

from .errors import CorruptChecksum, VersionMismatch

MAGIC = b"WSSR"
FORMAT_VERSION = 1
_DTYPE_CODES = {"float64": "<f8", "int64": "<i8"}


def write_checkpoint(path, scalars, arrays, rng_states):
    """Atomically snapshot scalars + named arrays + RNG states to path.

    arrays is an ordered mapping name -> ndarray (float64 or int64);
    rng_states is a list of numpy bit-generator ``.state`` dicts.
    """
    manifest = []
    payload = []
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        code = _DTYPE_CODES.get(arr.dtype.name)
        if code is None:
            raise ValueError(f"unsupported checkpoint dtype for {name!r}: {arr.dtype}")
        manifest.append({"name": name, "dtype": code, "shape": list(arr.shape)})
        payload.append(np.ascontiguousarray(arr).astype(code, copy=False))

    header = {"scalars": scalars, "arrays": manifest, "rng_states": rng_states}
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )
    head = MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(header_bytes)) + header_bytes

    # stream each array's own buffer into the file and the CRC, so the
    # payload is never copied
    path = os.fspath(path)
    tmp = path + ".tmp"
    crc = 0
    with open(tmp, "wb") as fh:
        for chunk in (head, *payload):
            fh.write(chunk)
            crc = zlib.crc32(chunk, crc)
        fh.write(struct.pack("<I", crc))
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def read_checkpoint(path):
    """Inverse of write_checkpoint: (scalars, arrays, rng_states).

    Streams the file as write_checkpoint streams it: the header, then
    each array read straight into its own buffer, with a running CRC32,
    so the payload is held once.

    Raises CorruptChecksum for anything structurally wrong (bad magic,
    truncation, CRC mismatch, malformed header, an array entry that is not
    float64 or int64 or has a negative dimension) and VersionMismatch for
    a well-formed file written by a different format version. A CRC
    mismatch is reported before any fault of the header or the payload,
    since damage can garble either.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < 20:
            raise CorruptChecksum(f"checkpoint truncated: {size} bytes")
        head = fh.read(16)
        if head[:4] != MAGIC:
            raise CorruptChecksum(f"bad checkpoint magic: {head[:4]!r}")
        version, header_len = struct.unpack_from("<IQ", head, 4)
        if version != FORMAT_VERSION:
            raise VersionMismatch(
                f"checkpoint format version {version}, expected {FORMAT_VERSION}"
            )
        body = _CrcReader(fh, head, end=size - 4)
        try:
            contents, fault = _read_body(body, header_len), None
        except CorruptChecksum as exc:
            contents, fault = None, exc
        body.skip_to_end()
        (stored_crc,) = struct.unpack("<I", fh.read(4))
    if stored_crc != body.crc:
        raise CorruptChecksum(
            f"checkpoint CRC mismatch: stored {stored_crc:#010x}, "
            f"computed {body.crc:#010x}"
        )
    if fault is not None:
        raise fault
    return contents


class _CrcReader:
    """Reads a checkpoint's body, up to its CRC trailer at byte `end`,
    keeping the running CRC32 of every byte read, `head` included."""

    _BLOCK = 1 << 20

    def __init__(self, fh, head, end):
        self.fh, self.crc, self.end = fh, zlib.crc32(head), end
        self.offset = len(head)

    def read_into(self, buffer):
        """Fill buffer (any writable contiguous array) with the next bytes;
        the caller has checked that they lie before the trailer."""
        nbytes = memoryview(buffer).nbytes
        if self.fh.readinto(buffer) != nbytes:
            raise CorruptChecksum("checkpoint truncated mid-payload")
        self.crc = zlib.crc32(buffer, self.crc)
        self.offset += nbytes

    def skip_to_end(self):
        """Fold every byte left before the trailer into the CRC."""
        while self.offset < self.end:
            block = self.fh.read(min(self._BLOCK, self.end - self.offset))
            if not block:
                raise CorruptChecksum("checkpoint truncated mid-payload")
            self.crc = zlib.crc32(block, self.crc)
            self.offset += len(block)


def _read_body(body, header_len):
    """(scalars, arrays, rng_states) from the header and payload."""
    if body.offset + header_len > body.end:
        raise CorruptChecksum("checkpoint header overruns file")
    header_bytes = bytearray(header_len)
    body.read_into(header_bytes)
    try:
        header = json.loads(header_bytes.decode("utf-8"))
        manifest = header["arrays"]
        scalars = header["scalars"]
        rng_states = header["rng_states"]
        if not (isinstance(scalars, dict) and isinstance(manifest, list)
                and isinstance(rng_states, list)):
            raise ValueError("scalars must be an object, arrays and rng_states lists")
    except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
        raise CorruptChecksum(f"malformed checkpoint header: {exc}") from exc

    arrays = {}
    for entry in manifest:
        try:
            name = entry["name"]
            code = entry["dtype"]
            shape = tuple(int(s) for s in entry["shape"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CorruptChecksum(f"malformed array manifest: {exc}") from exc
        if code not in _DTYPE_CODES.values() or any(s < 0 for s in shape):
            raise CorruptChecksum(
                f"malformed array manifest for {name!r}: dtype {code!r}, shape {list(shape)}"
            )
        dtype = np.dtype(code)
        if body.offset + math.prod(shape) * dtype.itemsize > body.end:
            raise CorruptChecksum(f"array payload for {name!r} overruns file")
        arrays[name] = np.empty(shape, dtype=dtype)
        body.read_into(arrays[name])
    if body.offset != body.end:
        raise CorruptChecksum("trailing bytes after array payload")
    return scalars, arrays, rng_states
