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

    Raises CorruptChecksum for anything structurally wrong (bad magic,
    truncation, CRC mismatch, malformed header, an array entry that is not
    float64 or int64 or has a negative dimension) and VersionMismatch for
    a well-formed file written by a different format version.
    """
    with open(path, "rb") as fh:
        data = fh.read()

    if len(data) < 20:
        raise CorruptChecksum(f"checkpoint truncated: {len(data)} bytes")
    if data[:4] != MAGIC:
        raise CorruptChecksum(f"bad checkpoint magic: {data[:4]!r}")
    (version,) = struct.unpack_from("<I", data, 4)
    if version != FORMAT_VERSION:
        raise VersionMismatch(
            f"checkpoint format version {version}, expected {FORMAT_VERSION}"
        )
    (stored_crc,) = struct.unpack_from("<I", data, len(data) - 4)
    actual_crc = zlib.crc32(data[:-4]) & 0xFFFFFFFF
    if stored_crc != actual_crc:
        raise CorruptChecksum(
            f"checkpoint CRC mismatch: stored {stored_crc:#010x}, "
            f"computed {actual_crc:#010x}"
        )

    (header_len,) = struct.unpack_from("<Q", data, 8)
    header_end = 16 + header_len
    if header_end > len(data) - 4:
        raise CorruptChecksum("checkpoint header overruns file")
    try:
        header = json.loads(data[16:header_end].decode("utf-8"))
        manifest = header["arrays"]
        scalars = header["scalars"]
        rng_states = header["rng_states"]
        if not (isinstance(scalars, dict) and isinstance(manifest, list)
                and isinstance(rng_states, list)):
            raise ValueError("scalars must be an object, arrays and rng_states lists")
    except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
        raise CorruptChecksum(f"malformed checkpoint header: {exc}") from exc

    arrays = {}
    offset = header_end
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
        count = math.prod(shape)
        nbytes = count * dtype.itemsize
        if offset + nbytes > len(data) - 4:
            raise CorruptChecksum(f"array payload for {name!r} overruns file")
        arr = np.frombuffer(data, dtype=dtype, count=count, offset=offset)
        arrays[name] = arr.reshape(shape).copy()
        offset += nbytes
    if offset != len(data) - 4:
        raise CorruptChecksum("trailing bytes after array payload")

    return scalars, arrays, rng_states
