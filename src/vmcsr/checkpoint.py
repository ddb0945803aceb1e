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

A read checks the size, the magic and the version, then the CRC32 of the
whole file in one streamed pass, and only then parses the header and
the payload: a damaged file is refused before any of its bytes is
parsed, so a CRC mismatch is reported ahead of any fault it could have
caused. A manifest entry must name a string, a dtype of the two above
and a shape of JSON integers >= 0.
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
_BLOCK = 1 << 20


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

    Checks the size, the magic and the version, then the CRC32 of the
    whole file in one streamed pass through a fixed block, and only when
    it matches parses the header and reads each array straight into its
    own buffer. So no parser sees an unverified byte, and the payload is
    held once.

    Raises CorruptChecksum for anything structurally wrong (bad magic,
    truncation, CRC mismatch, malformed header, an array entry whose name
    is not a string, whose dtype is not float64 or int64, or whose
    dimensions are not integers >= 0) and VersionMismatch for a file
    written by a different format version.
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
        fh.seek(0)
        computed = _crc32(fh, size - 4)
        (stored,) = struct.unpack("<I", fh.read(4))
        if stored != computed:
            raise CorruptChecksum(
                f"checkpoint CRC mismatch: stored {stored:#010x}, computed {computed:#010x}"
            )
        fh.seek(16)
        return _parse(fh, header_len, size - 4)


def _crc32(fh, nbytes):
    """CRC32 of fh's next nbytes, read through one fixed block."""
    block = memoryview(bytearray(_BLOCK))
    crc = 0
    while nbytes:
        got = fh.readinto(block[: min(_BLOCK, nbytes)])
        if not got:
            raise CorruptChecksum("checkpoint truncated while it was read")
        crc = zlib.crc32(block[:got], crc)
        nbytes -= got
    return crc


def _parse(fh, header_len, end):
    """(scalars, arrays, rng_states) from a verified file, read from byte
    16 up to its CRC trailer at byte `end`."""
    offset = 16 + header_len
    if offset > end:
        raise CorruptChecksum("checkpoint header overruns file")
    try:
        header = json.loads(fh.read(header_len).decode("utf-8"))
        manifest = header["arrays"]
        scalars = header["scalars"]
        rng_states = header["rng_states"]
        if not (isinstance(scalars, dict) and isinstance(manifest, list)
                and isinstance(rng_states, list)):
            raise ValueError("scalars must be an object, arrays and rng_states lists")
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise CorruptChecksum(f"malformed checkpoint header: {exc}") from exc

    arrays = {}
    for entry in manifest:
        try:
            name, code, shape = entry["name"], entry["dtype"], entry["shape"]
        except (KeyError, TypeError) as exc:
            raise CorruptChecksum(f"malformed array manifest: {exc}") from exc
        # a bool is a JSON true or false, not a dimension
        if not (isinstance(name, str) and code in _DTYPE_CODES.values()
                and isinstance(shape, list)
                and all(type(s) is int and s >= 0 for s in shape)):
            raise CorruptChecksum(
                f"malformed array manifest for {name!r}: dtype {code!r}, shape {shape!r}"
            )
        nbytes = math.prod(shape) * np.dtype(code).itemsize
        if offset + nbytes > end:
            raise CorruptChecksum(f"array payload for {name!r} overruns file")
        try:
            arrays[name] = np.empty(shape, dtype=code)
        except ValueError as exc:  # a zero-size shape with a dimension numpy cannot hold
            raise CorruptChecksum(f"malformed array manifest for {name!r}: {exc}") from exc
        if fh.readinto(arrays[name]) != nbytes:
            raise CorruptChecksum("checkpoint truncated mid-payload")
        offset += nbytes
    if offset != end:
        raise CorruptChecksum("trailing bytes after array payload")
    return scalars, arrays, rng_states
