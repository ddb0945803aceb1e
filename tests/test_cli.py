import json
import re
import struct
import zlib

import numpy as np
import pytest

import vmcsr.runner
from vmcsr.checkpoint import FORMAT_VERSION, MAGIC, read_checkpoint, write_checkpoint
from vmcsr.cli import main
from vmcsr.wavefunction import AceWavefunction

SMALL_RUN = """
[system]
preset = h

[wavefunction]
correlation_order = 1
jastrow = false
init_noise = 0
basis = 0 0 0 0 1.0 either

[sampler]
walkers = 16
burn_in = 20
thinning = 1

[optimizer]
name = sgd

[run]
steps = 3
seed = 1
out_dir = {out}
"""


HELIUM_SR = """
[system]
preset = he

[wavefunction]
ell_max = 0

[sampler]
walkers = 16
samples_per_step = {samples}
burn_in = 20
thinning = 1

[optimizer]
name = sr

[sr]
reg_mode = {mode}

[run]
steps = 2
seed = 1
out_dir = {out}
"""


def write_config(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(SMALL_RUN.format(out=tmp_path / "artifacts"), encoding="utf-8")
    return path


def write_sealed(path, entry):
    """A checkpoint with one array entry and a valid CRC, whatever the entry says."""
    write_raw(path, json.dumps({"scalars": {}, "arrays": [entry], "rng_states": []}).encode())


MALFORMED_ENTRIES = pytest.mark.parametrize(
    "entry",
    [{"name": "x", "dtype": "|O", "shape": [1]}, {"name": "x", "dtype": "<f8", "shape": [-1]},
     {"name": "x", "dtype": "<f8", "shape": [1.5]}, {"name": "x", "dtype": "<f8", "shape": [True]},
     {"name": "x", "dtype": "<f8", "shape": ["1"]},
     {"name": "x", "dtype": "<f8", "shape": [float("inf")]},
     {"name": ["x"], "dtype": "<f8", "shape": [1]},
     {"name": "x", "dtype": "<f8", "shape": [0, 2**70]}],
    ids=["object-dtype", "negative-dim", "float-dim", "bool-dim", "string-dim", "infinite-dim",
         "list-name", "zero-size-beside-an-unindexable-dim"],
)


def write_raw(path, header, crc_flip=0):
    """A checkpoint of these header bytes and 8 payload bytes, its CRC
    xor-ed with crc_flip."""
    body = MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(header)) + header + bytes(8)
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body) ^ crc_flip))


# a header nested past any recursion limit, and one whose only dimension is
# infinite: sealed, the first is malformed; under a wrong CRC neither may
# reach a parser
NESTED_HEADER = b"[" * 100_000 + b"]" * 100_000
INFINITE_DIM_HEADER = json.dumps({
    "scalars": {}, "arrays": [{"name": "x", "dtype": "<f8", "shape": [float("inf")]}],
    "rng_states": [],
}).encode()
UNPARSABLE_FILES = pytest.mark.parametrize("header, crc_flip, message", [
    (NESTED_HEADER, 0, "error: malformed checkpoint header"),
    (NESTED_HEADER, 1, "error: checkpoint CRC mismatch"),
    (INFINITE_DIM_HEADER, 1, "error: checkpoint CRC mismatch"),
], ids=["sealed-nested-header", "nested-header-wrong-crc", "infinite-dim-wrong-crc"])


class TestRunCommand:
    def test_successful_run(self, tmp_path, capsys):
        code = main(["run", "--config", str(write_config(tmp_path))])
        out = capsys.readouterr().out
        assert code == 0
        assert "completed 3 steps" in out
        assert (tmp_path / "artifacts" / "trace.csv").exists()
        assert (tmp_path / "artifacts" / "checkpoint.bin").exists()

    def test_invalid_optimizer_exits_2_naming_valid_set(self, tmp_path, capsys):
        code = main(
            ["run", "--config", str(write_config(tmp_path)), "--optimizer", "bogus"]
        )
        err = capsys.readouterr().err
        assert code == 2
        for name in ("sgd", "sr", "minsr", "spring", "wssr", "rssr"):
            assert name in err

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "absent.ini")])
        assert code == 2
        assert "cannot read config file" in capsys.readouterr().err

    def test_flag_overrides_steps_and_out(self, tmp_path, capsys):
        alt = tmp_path / "alt"
        code = main(
            [
                "run",
                "--config",
                str(write_config(tmp_path)),
                "--steps",
                "2",
                "--out",
                str(alt),
            ]
        )
        assert code == 0
        assert "completed 2 steps" in capsys.readouterr().out
        assert (alt / "trace.csv").exists()

    @pytest.mark.parametrize("flag, section, key, value", [
        ("--seed", "run", "seed", "-1"),
        ("--steps", "run", "steps", "0"),
        ("--steps", "run", "steps", "2.5"),
        ("--optimizer", "optimizer", "name", "newton"),
        ("--out", "run", "out_dir", ""),
    ])
    def test_bad_flag_exits_2_like_the_same_ini_value(
        self, tmp_path, capsys, flag, section, key, value
    ):
        config = write_config(tmp_path)
        code = main(["run", "--config", str(config), flag, value])
        from_flag = capsys.readouterr().err
        written = tmp_path / "written.ini"
        written.write_text(
            re.sub(rf"^{key} = .*$", f"{key} = {value}", config.read_text(encoding="utf-8"),
                   flags=re.MULTILINE),
            encoding="utf-8",
        )
        assert main(["run", "--config", str(written)]) == code == 2
        assert capsys.readouterr().err == from_flag
        assert from_flag.startswith(f"error: [{section}] {key}: ")

    def test_uncreatable_out_dir_exits_2_naming_the_key(self, tmp_path, capsys):
        blocker = tmp_path / "afile"
        blocker.write_text("", encoding="utf-8")
        code = main(
            ["run", "--config", str(write_config(tmp_path)), "--out", str(blocker / "sub")]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "out_dir" in err and "Not a directory" in err
        assert "Traceback" not in err

    def test_coincident_nuclei_exit_2_before_any_step(self, tmp_path, capsys):
        geometry = "charges = 1, 1\npositions = 0 0 0; 0 0 0\nn_up = 1\nn_down = 1"
        config = write_config(tmp_path)
        config.write_text(config.read_text().replace("preset = h", geometry))
        code = main(["run", "--config", str(config)])
        assert code == 2
        assert capsys.readouterr().err == "error: [system] nuclei 0 and 1 coincide\n"
        assert not (tmp_path / "artifacts" / "checkpoint.bin").exists()

    def test_resume_flag(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["run", "--config", str(config)]) == 0
        ckpt = tmp_path / "artifacts" / "checkpoint.bin"
        code = main(
            ["run", "--config", str(config), "--steps", "5", "--resume", str(ckpt)]
        )
        assert code == 0
        assert "completed 5 steps" in capsys.readouterr().out

    def test_memory_error_in_a_step_exits_3_with_a_resumable_checkpoint(
        self, tmp_path, capsys, monkeypatch
    ):
        calls = {"n": 0}
        original = vmcsr.runner.assemble

        def starved(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise MemoryError("Unable to allocate 3.59 GiB")
            return original(*args, **kwargs)

        monkeypatch.setattr(vmcsr.runner, "assemble", starved)
        config = write_config(tmp_path)
        assert main(["run", "--config", str(config)]) == 3
        err = capsys.readouterr().err
        assert "aborted at step 2: out of memory: Unable to allocate 3.59 GiB" in err
        ckpt = tmp_path / "artifacts" / "checkpoint.bin"
        scalars, _, _ = read_checkpoint(ckpt)
        assert scalars["step"] == 1

        monkeypatch.setattr(vmcsr.runner, "assemble", original)
        assert main(["run", "--config", str(config), "--resume", str(ckpt)]) == 0
        assert "completed 3 steps" in capsys.readouterr().out

    @pytest.mark.parametrize("samples", [16, 160], ids=["dual", "primal"])
    def test_dead_parameters_fail_sr_diagonal_scale_with_exit_3(self, tmp_path, capsys, samples):
        # He ell_max = 0 has 64 parameters whose log-derivative is zero at
        # every configuration, so diag(S) has zero entries. Its 144
        # parameters take the dual over 16 samples and S over 160.
        out = tmp_path / "artifacts"
        scaled, shifted = tmp_path / "scale.ini", tmp_path / "shift.ini"
        for path, mode in ((scaled, "diagonal_scale"), (shifted, "diagonal_shift")):
            path.write_text(HELIUM_SR.format(samples=samples, mode=mode, out=out),
                            encoding="utf-8")
        assert main(["run", "--config", str(scaled)]) == 3
        err = capsys.readouterr().err
        assert ("aborted at step 1: regularized matrix is not positive definite "
                "(diagonal_scale, eps=0.001)") in err
        ckpt = out / "checkpoint.bin"
        scalars, _, _ = read_checkpoint(ckpt)
        assert scalars["step"] == 0
        # the checkpoint resumes, here under the shift, which has no zero pivot
        assert main(["run", "--config", str(shifted), "--resume", str(ckpt)]) == 0
        assert "completed 2 steps" in capsys.readouterr().out

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("name", ["sgd", "sr", "minsr", "spring", "wssr", "rssr"])
    def test_non_finite_log_derivative_exits_3_with_a_resumable_checkpoint(
        self, tmp_path, capsys, monkeypatch, name
    ):
        # Injected: no run has been seen to produce one.
        calls = {"n": 0}
        original = AceWavefunction.grad_theta_batch

        def poisoned(wavefunction, positions):
            grad = original(wavefunction, positions)
            calls["n"] += 1
            if calls["n"] == 2:
                grad[0, 0] = np.inf
            return grad

        monkeypatch.setattr(AceWavefunction, "grad_theta_batch", poisoned)
        config = write_config(tmp_path)
        assert main(["run", "--config", str(config), "--optimizer", name]) == 3
        err = capsys.readouterr().err
        assert "aborted at step 2: non-finite log-derivatives at step 2" in err
        ckpt = tmp_path / "artifacts" / "checkpoint.bin"
        scalars, _, _ = read_checkpoint(ckpt)
        assert scalars["step"] == 1

        monkeypatch.setattr(AceWavefunction, "grad_theta_batch", original)
        code = main(["run", "--config", str(config), "--optimizer", name, "--resume", str(ckpt)])
        assert code == 0

    @MALFORMED_ENTRIES
    def test_resume_from_malformed_manifest_exits_2(self, tmp_path, capsys, entry):
        crafted = tmp_path / "crafted.bin"
        write_sealed(crafted, entry)
        code = main(["run", "--config", str(write_config(tmp_path)), "--resume", str(crafted)])
        assert code == 2
        assert "malformed array manifest" in capsys.readouterr().err

    @UNPARSABLE_FILES
    def test_resume_from_an_unparsable_file_exits_2(
        self, tmp_path, capsys, header, crc_flip, message
    ):
        crafted = tmp_path / "crafted.bin"
        write_raw(crafted, header, crc_flip)
        code = main(["run", "--config", str(write_config(tmp_path)), "--resume", str(crafted)])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_resume_from_missing_checkpoint_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path)
        missing = tmp_path / "none.bin"
        code = main(["run", "--config", str(config), "--resume", str(missing)])
        assert code == 2
        assert "cannot read checkpoint" in capsys.readouterr().err

    def test_resume_under_another_walker_count_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["run", "--config", str(config)]) == 0
        more = tmp_path / "more.ini"
        more.write_text(
            config.read_text(encoding="utf-8").replace("walkers = 16", "walkers = 32"),
            encoding="utf-8",
        )
        ckpt = tmp_path / "artifacts" / "checkpoint.bin"
        code = main(["run", "--config", str(more), "--steps", "5", "--resume", str(ckpt)])
        assert code == 2
        err = capsys.readouterr().err
        assert "checkpoint entry 'positions' has shape (16, 1, 3)" in err
        assert "the configured run's is (32, 1, 3)" in err

    @pytest.mark.parametrize("entry, shape", [
        ("log_abs", (5,)), ("positions", (16, 3, 3)), ("positions", (16, 2, 2)),
    ], ids=["log_abs-5", "positions-3-electrons", "positions-2-axes"])
    def test_resume_of_walker_arrays_that_do_not_fit_exits_2_naming_the_entry(
        self, tmp_path, capsys, entry, shape
    ):
        config = write_config(tmp_path)
        assert main(["run", "--config", str(config)]) == 0
        scalars, arrays, rng_states = read_checkpoint(tmp_path / "artifacts" / "checkpoint.bin")
        arrays[entry] = np.zeros(shape)
        damaged = tmp_path / "damaged.bin"
        write_checkpoint(damaged, scalars, arrays, rng_states)
        code = main(["run", "--config", str(config), "--steps", "5", "--resume", str(damaged)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"checkpoint entry '{entry}' has shape {shape}" in err
        assert str({"log_abs": (16,), "positions": (16, 1, 3)}[entry]) in err

    @pytest.mark.parametrize("entry", ["theta", "positions"])
    def test_resume_of_an_integer_array_exits_2_naming_it(self, tmp_path, capsys, entry):
        # The CRC is valid, and int64 is a checkpoint dtype; the run writes float64.
        config = write_config(tmp_path)
        assert main(["run", "--config", str(config)]) == 0
        scalars, arrays, rng_states = read_checkpoint(tmp_path / "artifacts" / "checkpoint.bin")
        arrays[entry] = np.round(arrays[entry]).astype(np.int64)
        damaged = tmp_path / "damaged.bin"
        write_checkpoint(damaged, scalars, arrays, rng_states)
        code = main(["run", "--config", str(config), "--steps", "5", "--resume", str(damaged)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"checkpoint is malformed: entry '{entry}' must hold float64, got int64" in err

    def test_resume_under_another_seed_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["run", "--config", str(config)]) == 0
        ckpt = tmp_path / "artifacts" / "checkpoint.bin"
        code = main(["run", "--config", str(config), "--seed", "99", "--steps", "5",
                     "--resume", str(ckpt)])
        assert code == 2
        assert "checkpoint has seed 1, the configured run 99" in capsys.readouterr().err

    def test_resume_under_another_spin_split_exits_2(self, tmp_path, capsys):
        # Li with three spin-agnostic orbitals: the electron and parameter
        # counts are the same under either split
        config = tmp_path / "li.ini"
        config.write_text(
            "[system]\ncharges = 3\npositions = 0 0 0\nn_up = 2\nn_down = 1\n"
            "[wavefunction]\ncorrelation_order = 1\n"
            "basis = 0 0 0 0 3.0 either; 0 0 0 0 1.5 either; 0 1 0 0 1.0 either\n"
            "[sampler]\nwalkers = 8\nburn_in = 5\nthinning = 1\n"
            "[optimizer]\nname = sgd\n"
            f"[run]\nsteps = 1\nout_dir = {tmp_path / 'li'}\n",
            encoding="utf-8",
        )
        assert main(["run", "--config", str(config)]) == 0
        flipped = tmp_path / "flipped.ini"
        flipped.write_text(
            config.read_text(encoding="utf-8")
            .replace("n_up = 2\nn_down = 1", "n_up = 1\nn_down = 2"),
            encoding="utf-8",
        )
        ckpt = tmp_path / "li" / "checkpoint.bin"
        code = main(["run", "--config", str(flipped), "--steps", "2", "--resume", str(ckpt)])
        assert code == 2
        err = capsys.readouterr().err
        assert "checkpoint has spin labels [0, 0, 1], the configured run [0, 1, 1]" in err

    @pytest.mark.parametrize("damage", ["header", "row"])
    def test_resume_into_a_malformed_trace_exits_2_naming_it(self, tmp_path, capsys, damage):
        config = write_config(tmp_path)
        assert main(["run", "--config", str(config)]) == 0
        trace = tmp_path / "artifacts" / "trace.csv"
        lines = trace.read_text(encoding="utf-8").splitlines(keepends=True)
        if damage == "header":
            lines[0] = "step,energy\n"
        else:
            lines[2] = "2,not-a-number\n"
        trace.write_text("".join(lines), encoding="utf-8")
        ckpt = tmp_path / "artifacts" / "checkpoint.bin"
        code = main(["run", "--config", str(config), "--steps", "5", "--resume", str(ckpt)])
        assert code == 2
        assert str(trace) in capsys.readouterr().err

    @pytest.mark.parametrize("entry, value", [
        ("step", -5), ("step", True), ("step", 2.7),
        ("proposal_std", -1.0), ("proposal_std", float("inf")), ("proposal_std", True),
        ("accepted", 2.7), ("burned_in", "false"), ("seed", True),
    ])
    def test_resume_from_a_malformed_checkpoint_value_exits_2_naming_it(
        self, tmp_path, capsys, entry, value
    ):
        config = write_config(tmp_path)
        assert main(["run", "--config", str(config)]) == 0
        scalars, arrays, rng_states = read_checkpoint(tmp_path / "artifacts" / "checkpoint.bin")
        scalars[entry] = value
        damaged = tmp_path / "damaged.bin"
        write_checkpoint(damaged, scalars, arrays, rng_states)
        code = main(["run", "--config", str(config), "--steps", "5", "--resume", str(damaged)])
        assert code == 2
        err = capsys.readouterr().err
        assert "checkpoint is malformed" in err
        assert entry in err and repr(value) in err

    @pytest.mark.parametrize("section, key", [
        ("wavefunction", "degree_cap"),
        ("wavefunction", "fd_step"),
        ("wssr", "sigma_floor_relative"),
        ("wssr", "ssi_residual_tol"),
        ("wssr", "svd_backend"),
        ("wssr", "ssi_max_iters"),
    ])
    def test_removed_key_exits_2(self, tmp_path, capsys, section, key):
        text = write_config(tmp_path).read_text(encoding="utf-8")
        if f"[{section}]\n" not in text:
            text += f"[{section}]\n"
        path = tmp_path / "removed.ini"
        path.write_text(
            text.replace(f"[{section}]\n", f"[{section}]\n{key} = 1\n"),
            encoding="utf-8",
        )
        code = main(["run", "--config", str(path)])
        assert code == 2
        assert f"unknown key '{key}' in [{section}]" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value", [
        ("wavefunction", "init_noise", "inf"),
        ("minsr", "tikhonov_eps", "inf"),
        ("spring", "tikhonov_eps", "inf"),
        ("sr", "reg_eps", "inf"),
        ("wssr", "eps_grow", "inf"),
        ("run", "out_dir", ""),
        ("sampler", "proposal_std", "inf"),
        ("optimizer", "alpha", "inf"),
    ])
    def test_non_finite_or_empty_value_exits_2_naming_the_key(
        self, tmp_path, capsys, section, key, value
    ):
        sections = {
            "system": {"preset": "h"},
            "sampler": {"walkers": "16", "burn_in": "10", "thinning": "1"},
            "wssr": {"rank_init": "2"},
            "run": {"steps": "2", "out_dir": str(tmp_path / "out")},
        }
        sections.setdefault(section, {})[key] = value
        path = tmp_path / "bad.ini"
        path.write_text(
            "".join(
                f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                for name, keys in sections.items()
            ),
            encoding="utf-8",
        )
        code = main(["run", "--config", str(path)])
        assert code == 2
        assert f"error: [{section}] {key}: " in capsys.readouterr().err

    @pytest.mark.parametrize("table, entry", [
        ("arrays", "log_abs"), ("scalars", "proposal_std"), ("scalars", "accepted"),
    ])
    def test_resume_from_checkpoint_lacking_an_entry_exits_2(
        self, tmp_path, capsys, table, entry
    ):
        config = write_config(tmp_path)
        assert main(["run", "--config", str(config)]) == 0
        scalars, arrays, rng_states = read_checkpoint(tmp_path / "artifacts" / "checkpoint.bin")
        del {"arrays": arrays, "scalars": scalars}[table][entry]
        partial = tmp_path / "partial.bin"
        write_checkpoint(partial, scalars, arrays, rng_states)
        code = main(["run", "--config", str(config), "--steps", "5", "--resume", str(partial)])
        assert code == 2
        assert f"unknown [], missing ['{entry}']" in capsys.readouterr().err

    def test_resume_from_checkpoint_lacking_its_optimizer_exits_2(self, tmp_path, capsys):
        # the identity entries are read before the key set is compared
        config = write_config(tmp_path)
        assert main(["run", "--config", str(config)]) == 0
        scalars, arrays, rng_states = read_checkpoint(tmp_path / "artifacts" / "checkpoint.bin")
        del scalars["optimizer"]
        partial = tmp_path / "partial.bin"
        write_checkpoint(partial, scalars, arrays, rng_states)
        code = main(["run", "--config", str(config), "--steps", "5", "--resume", str(partial)])
        assert code == 2
        assert "checkpoint lacks the entry 'optimizer'" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["rng_state", "step"])
    def test_resume_from_checkpoint_of_wrong_types_exits_2(self, tmp_path, capsys, damage):
        # The CRC is valid; only the types inside are wrong.
        config = write_config(tmp_path)
        assert main(["run", "--config", str(config)]) == 0
        scalars, arrays, rng_states = read_checkpoint(tmp_path / "artifacts" / "checkpoint.bin")
        if damage == "rng_state":
            rng_states = [5]
        else:
            scalars["step"] = "x"
        damaged = tmp_path / "damaged.bin"
        write_checkpoint(damaged, scalars, arrays, rng_states)
        code = main(["run", "--config", str(config), "--steps", "5", "--resume", str(damaged)])
        assert code == 2
        assert "checkpoint is malformed" in capsys.readouterr().err

    def test_resume_from_checkpoint_carrying_wssr_obar_exits_2(self, tmp_path, capsys):
        # The layout before the history was held as its thin SVD: the
        # factor U * sigma beside U, and no sigma.
        config = tmp_path / "wssr.ini"
        config.write_text(
            write_config(tmp_path).read_text(encoding="utf-8")
            .replace("name = sgd", "name = wssr"),
            encoding="utf-8",
        )
        assert main(["run", "--config", str(config)]) == 0
        scalars, arrays, rng_states = read_checkpoint(tmp_path / "artifacts" / "checkpoint.bin")
        arrays["wssr_obar"] = arrays["wssr_u_prev"] * arrays.pop("wssr_sigma")
        older = tmp_path / "older.bin"
        write_checkpoint(older, scalars, arrays, rng_states)
        code = main(["run", "--config", str(config), "--steps", "5", "--resume", str(older)])
        assert code == 2
        assert "unknown ['wssr_obar'], missing ['wssr_sigma']" in capsys.readouterr().err


    def test_resume_of_a_wssr_history_wider_than_its_budget_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["run", "--config", str(config), "--optimizer", "wssr"]) == 0
        scalars, arrays, rng_states = read_checkpoint(tmp_path / "artifacts" / "checkpoint.bin")
        # hydrogen's one parameter carries one vector; carry it twice under a budget of 1
        assert arrays["wssr_u_prev"].shape == (1, 1)
        for entry in ("wssr_u_prev", "wssr_sigma", "wssr_lbar"):
            arrays[entry] = np.concatenate([arrays[entry]] * 2, axis=-1)
        scalars["wssr_r_max"] = 1
        damaged = tmp_path / "damaged.bin"
        write_checkpoint(damaged, scalars, arrays, rng_states)
        code = main(["run", "--config", str(config), "--optimizer", "wssr",
                     "--steps", "5", "--resume", str(damaged)])
        assert code == 2
        assert "history rank 2 exceeds r_max 1" in capsys.readouterr().err

    @pytest.mark.parametrize("damage, entry", [
        ("scalars", "wssr"), ("rows", "wssr_u_prev"), ("shape", "spring_prev_update"),
    ])
    def test_resume_from_a_malformed_optimizer_section_exits_2_naming_it(
        self, tmp_path, capsys, damage, entry
    ):
        # The CRC is valid; only the optimizer state inside is wrong. The
        # scalars case is the layout before every field of the state was a
        # flat entry: its scalars in a table under the optimizer's name.
        name = entry.split("_")[0]
        config = write_config(tmp_path)
        assert main(["run", "--config", str(config), "--optimizer", name]) == 0
        scalars, arrays, rng_states = read_checkpoint(tmp_path / "artifacts" / "checkpoint.bin")
        expected = f"checkpoint entry '{entry}'"
        if damage == "scalars":
            scalars[entry] = {key: scalars.pop(f"{entry}_{key}") for key in ("r_max", "step")}
            expected = "unknown ['wssr'], missing ['wssr_r_max', 'wssr_step']"
        elif damage == "rows":
            u_prev = arrays[entry]
            arrays[entry] = np.concatenate([u_prev, np.zeros((3, u_prev.shape[1]))])
        else:
            arrays[entry] = np.zeros(arrays["theta"].size + 2)
        damaged = tmp_path / "damaged.bin"
        write_checkpoint(damaged, scalars, arrays, rng_states)
        code = main(["run", "--config", str(config), "--optimizer", name,
                     "--steps", "5", "--resume", str(damaged)])
        assert code == 2
        assert expected in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("r_max", 7.5), ("step", 1.5)])
    def test_resume_from_a_mistyped_optimizer_scalar_exits_2_naming_it(
        self, tmp_path, capsys, key, value
    ):
        # The CRC is valid; a scalar of the wssr state has a type the run never writes.
        config = write_config(tmp_path)
        assert main(["run", "--config", str(config), "--optimizer", "wssr"]) == 0
        scalars, arrays, rng_states = read_checkpoint(tmp_path / "artifacts" / "checkpoint.bin")
        scalars[f"wssr_{key}"] = value
        damaged = tmp_path / "damaged.bin"
        write_checkpoint(damaged, scalars, arrays, rng_states)
        code = main(["run", "--config", str(config), "--optimizer", "wssr",
                     "--steps", "5", "--resume", str(damaged)])
        assert code == 2
        err = capsys.readouterr().err
        assert "checkpoint is malformed" in err
        assert f"'wssr_{key}'" in err and repr(value) in err


class TestInspectCommand:
    def test_prints_summary(self, tmp_path, capsys):
        config = write_config(tmp_path)
        main(["run", "--config", str(config), "--optimizer", "wssr"])
        capsys.readouterr()
        code = main(
            ["inspect", "--ckpt", str(tmp_path / "artifacts" / "checkpoint.bin")]
        )
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert "step = 3" in lines
        assert "optimizer = wssr" in lines
        assert "wssr_step = 3" in lines
        assert "array wssr_u_prev: shape (1, 1), dtype float64" in lines
        assert "rng streams: 1" in lines
        # one flat "key = value" line per scalar
        assert not any(line.startswith(" ") or line.endswith(":") for line in lines)

    def test_corrupt_checkpoint_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"WSSR garbage that is long enough to parse a bit")
        code = main(["inspect", "--ckpt", str(bad)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @MALFORMED_ENTRIES
    def test_malformed_manifest_exits_2(self, tmp_path, capsys, entry):
        crafted = tmp_path / "crafted.bin"
        write_sealed(crafted, entry)
        assert main(["inspect", "--ckpt", str(crafted)]) == 2
        assert "malformed array manifest" in capsys.readouterr().err

    @UNPARSABLE_FILES
    def test_unparsable_file_exits_2(self, tmp_path, capsys, header, crc_flip, message):
        crafted = tmp_path / "crafted.bin"
        write_raw(crafted, header, crc_flip)
        assert main(["inspect", "--ckpt", str(crafted)]) == 2
        assert message in capsys.readouterr().err

    def test_missing_checkpoint_exits_2(self, tmp_path, capsys):
        code = main(["inspect", "--ckpt", str(tmp_path / "none.bin")])
        assert code == 2


class TestPresetsCommand:
    def test_lists_all_builtin_systems(self, capsys):
        code = main(["presets"])
        out = capsys.readouterr().out
        assert code == 0
        for name in ("h", "he", "be", "o", "ne", "lih", "li2"):
            assert f"{name}:" in out


class TestHelp:
    def test_run_help_documents_config_keys(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for key in ("walkers", "eps_grow", "clip_n_std", "rank_init", "out_dir"):
            assert key in out
