import json
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from vmcsr.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    read_checkpoint,
    write_checkpoint,
)
from vmcsr.errors import CorruptChecksum, VersionMismatch


def sample_payload():
    rng = np.random.default_rng(11)
    scalars = {
        "step": 42,
        "optimizer": "wssr",
        "proposal_std": 0.6789,
        "burned_in": True,
        "note": None,
        "nested": {"delta": 0.95, "r_max": 64},
    }
    arrays = {
        "theta": rng.normal(size=17),
        "positions": rng.normal(size=(8, 2, 3)),
        "spins": np.array([1, 1, -1, -1], dtype=np.int64),
        "empty_history": np.zeros((5, 0)),
        "scalar_shaped": np.array(3.5),
    }
    rng_states = [np.random.PCG64(seed).state for seed in (0, 1, 2)]
    return scalars, arrays, rng_states


def write_sealed(path, header, payload=b""):
    """A checkpoint with a valid CRC, whatever its header says."""
    write_raw(path, json.dumps(header).encode(), payload)


def write_raw(path, header, payload=b"", crc_flip=0):
    """A checkpoint of these header bytes, its CRC xor-ed with crc_flip."""
    body = MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(header)) + header + payload
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body) ^ crc_flip))


# a header nested past any recursion limit, and one whose only dimension is
# infinite: under a wrong CRC neither may reach a parser
NESTED_HEADER = b"[" * 100_000 + b"]" * 100_000
INFINITE_DIM_HEADER = json.dumps({
    "scalars": {}, "arrays": [{"name": "x", "dtype": "<f8", "shape": [float("inf")]}],
    "rng_states": [],
}).encode()


class TestRoundTrip:
    def test_scalars_arrays_and_rng_states_survive(self, tmp_path):
        path = tmp_path / "run.ckpt"
        scalars, arrays, rng_states = sample_payload()
        write_checkpoint(path, scalars, arrays, rng_states)
        got_scalars, got_arrays, got_rng = read_checkpoint(path)
        assert got_scalars == scalars
        assert got_rng == rng_states
        assert set(got_arrays) == set(arrays)
        for name, arr in arrays.items():
            assert got_arrays[name].dtype == arr.dtype
            assert got_arrays[name].shape == arr.shape
            assert_array_equal(got_arrays[name], arr)

    def test_restored_rng_state_continues_the_stream(self, tmp_path):
        path = tmp_path / "rng.ckpt"
        gen = np.random.Generator(np.random.PCG64(123))
        gen.normal(size=100)
        write_checkpoint(path, {}, {}, [gen.bit_generator.state])
        expected = gen.normal(size=10)

        _, _, states = read_checkpoint(path)
        revived = np.random.Generator(np.random.PCG64())
        revived.bit_generator.state = states[0]
        assert_array_equal(revived.normal(size=10), expected)

    def test_read_arrays_are_writable_copies(self, tmp_path):
        path = tmp_path / "w.ckpt"
        write_checkpoint(path, {}, {"x": np.arange(4.0)}, [])
        _, arrays, _ = read_checkpoint(path)
        arrays["x"][0] = 99.0  # must not raise

    def test_read_holds_the_payload_once(self, tmp_path):
        """Each array is read straight into its own buffer: reading an 8 MB
        array peaks near one payload, not at the file's bytes plus a copy."""
        path = tmp_path / "big.ckpt"
        payload = np.random.default_rng(3).standard_normal(1 << 20)
        write_checkpoint(path, {"step": 1}, {"x": payload}, [])
        tracemalloc.start()
        try:
            _, arrays, _ = read_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert_array_equal(arrays["x"], payload)
        assert peak <= 1.25 * payload.nbytes

    def test_overwrite_replaces_previous_snapshot(self, tmp_path):
        path = tmp_path / "same.ckpt"
        write_checkpoint(path, {"step": 1}, {}, [])
        write_checkpoint(path, {"step": 2}, {}, [])
        scalars, _, _ = read_checkpoint(path)
        assert scalars["step"] == 2

    def test_no_temp_file_left_behind(self, tmp_path):
        path = tmp_path / "clean.ckpt"
        write_checkpoint(path, {"step": 1}, {}, [])
        assert [p.name for p in tmp_path.iterdir()] == ["clean.ckpt"]

    def test_rejects_unsupported_dtype(self, tmp_path):
        with pytest.raises(ValueError, match="dtype"):
            write_checkpoint(
                tmp_path / "bad.ckpt",
                {},
                {"x": np.zeros(3, dtype=np.float32)},
                [],
            )


class TestCorruptionDetection:
    def write_valid(self, tmp_path):
        path = tmp_path / "victim.ckpt"
        scalars, arrays, rng_states = sample_payload()
        write_checkpoint(path, scalars, arrays, rng_states)
        return path

    def test_bad_magic(self, tmp_path):
        path = self.write_valid(tmp_path)
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptChecksum, match="magic"):
            read_checkpoint(path)

    def test_flipped_payload_byte_fails_crc(self, tmp_path):
        path = self.write_valid(tmp_path)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptChecksum, match="CRC"):
            read_checkpoint(path)

    def test_flipped_header_byte_fails_crc_not_the_header_parse(self, tmp_path):
        path = self.write_valid(tmp_path)
        data = bytearray(path.read_bytes())
        data[20] ^= 0xFF  # inside the JSON header: no longer UTF-8
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptChecksum, match="CRC"):
            read_checkpoint(path)

    @pytest.mark.parametrize("header", [NESTED_HEADER, INFINITE_DIM_HEADER],
                             ids=["nested-100000-deep", "infinite-dim"])
    def test_wrong_crc_fails_before_a_header_no_parse_survives(self, tmp_path, header):
        path = tmp_path / "damaged.ckpt"
        write_raw(path, header, bytes(8), crc_flip=1)
        with pytest.raises(CorruptChecksum, match="CRC"):
            read_checkpoint(path)

    def test_sealed_header_nested_past_the_recursion_limit(self, tmp_path):
        path = tmp_path / "crafted.ckpt"
        write_raw(path, NESTED_HEADER)
        with pytest.raises(CorruptChecksum, match="malformed checkpoint header"):
            read_checkpoint(path)

    def test_sealed_bytes_past_the_manifest_are_refused(self, tmp_path):
        path = tmp_path / "crafted.ckpt"
        write_sealed(path, {"scalars": {}, "arrays": [], "rng_states": []}, bytes(8))
        with pytest.raises(CorruptChecksum, match="trailing bytes"):
            read_checkpoint(path)

    def test_truncated_file(self, tmp_path):
        path = self.write_valid(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        with pytest.raises(CorruptChecksum):
            read_checkpoint(path)

    def test_nearly_empty_file(self, tmp_path):
        path = tmp_path / "stub.ckpt"
        path.write_bytes(MAGIC + b"\x01")
        with pytest.raises(CorruptChecksum, match="truncated"):
            read_checkpoint(path)

    def test_future_version_raises_version_mismatch(self, tmp_path):
        path = self.write_valid(tmp_path)
        data = bytearray(path.read_bytes())
        struct.pack_into("<I", data, 4, FORMAT_VERSION + 1)
        # Re-seal so only the version differs, not the CRC.
        crc = zlib.crc32(bytes(data[:-4])) & 0xFFFFFFFF
        struct.pack_into("<I", data, len(data) - 4, crc)
        path.write_bytes(bytes(data))
        with pytest.raises(VersionMismatch, match="version"):
            read_checkpoint(path)

    @pytest.mark.parametrize(
        "entry",
        [
            {"name": "x", "dtype": "|O", "shape": [1]},
            {"name": "x", "dtype": "<f4", "shape": [2]},
            {"name": "x", "dtype": "<f8", "shape": [-1]},
            {"name": "x", "dtype": "<f8", "shape": [2**62, 4]},
            {"name": "x", "dtype": "<f8", "shape": [1.5]},
            {"name": "x", "dtype": "<f8", "shape": [True]},
            {"name": "x", "dtype": "<f8", "shape": ["1"]},
            {"name": "x", "dtype": "<f8", "shape": [float("inf")]},
            {"name": ["x"], "dtype": "<f8", "shape": [1]},
            {"name": "x", "dtype": "<f8", "shape": [0, 2**70]},
        ],
        ids=["object-dtype", "float32-dtype", "negative-dim", "int64-overflowing-size",
             "float-dim", "bool-dim", "string-dim", "infinite-dim", "list-name",
             "zero-size-beside-an-unindexable-dim"],
    )
    def test_manifest_outside_the_written_formats(self, tmp_path, entry):
        path = tmp_path / "crafted.ckpt"
        write_sealed(path, {"scalars": {}, "arrays": [entry], "rng_states": []}, bytes(8))
        with pytest.raises(CorruptChecksum, match="manifest|overruns"):
            read_checkpoint(path)

    @pytest.mark.parametrize(
        "header",
        [[1, 2], {"scalars": {}, "arrays": 5, "rng_states": []},
         {"scalars": [], "arrays": [], "rng_states": []}],
        ids=["list-header", "int-manifest", "list-scalars"],
    )
    def test_header_sections_of_the_wrong_type(self, tmp_path, header):
        path = tmp_path / "crafted.ckpt"
        write_sealed(path, header)
        with pytest.raises(CorruptChecksum, match="malformed checkpoint header"):
            read_checkpoint(path)
