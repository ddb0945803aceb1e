import ctypes
import dataclasses
import os
import shutil
import subprocess
import sys
import tracemalloc
import types
import weakref
from pathlib import Path

import numpy as np
import pytest

import vmcsr.runner
import vmcsr.sampler
from vmcsr.checkpoint import read_checkpoint, write_checkpoint
from vmcsr.config import parse_config_text
from vmcsr.errors import ConfigError
from vmcsr.runner import run
from vmcsr.trace import read_trace
from vmcsr.wavefunction import AceWavefunction

HYDROGEN_SGD = """
[system]
preset = h

[wavefunction]
correlation_order = 1
jastrow = false
init_noise = 0
basis = 0 0 0 0 1.0 either

[sampler]
walkers = 64
burn_in = 50
thinning = 2

[optimizer]
name = sgd

[run]
steps = 10
seed = 7
out_dir = {out}
smooth_window = 3
"""

HELIUM_SMALL = """
[system]
preset = he

[wavefunction]
correlation_order = 2
ell_max = 0

[sampler]
walkers = 16
burn_in = 40
thinning = 2

[optimizer]
name = {name}

[wssr]
rank_init = 6

[run]
steps = {steps}
seed = 3
out_dir = {out}
checkpoint_every = {every}
"""


def hydrogen_config(tmp_path, **kw):
    return parse_config_text(HYDROGEN_SGD.format(out=tmp_path / "out", **kw))


def helium_config(tmp_path, name="wssr", steps=6, every=0, sub="out"):
    return parse_config_text(
        HELIUM_SMALL.format(name=name, steps=steps, out=tmp_path / sub, every=every)
    )


def strip_wall(records):
    return [dataclasses.replace(r, wall_ms=0.0) for r in records]


class TestHydrogenExample:
    def test_exact_ansatz_stays_at_half_hartree(self, tmp_path):
        result = run(hydrogen_config(tmp_path))
        assert result.exit_code == 0
        assert not result.aborted
        assert len(result.records) == 10
        for rec in result.records:
            assert abs(rec.raw_energy - (-0.5)) < 1e-6
            assert rec.energy_variance < 1e-8

    def test_trace_complete_and_monotone(self, tmp_path):
        result = run(hydrogen_config(tmp_path))
        steps = [rec.step for rec in result.records]
        assert steps == list(range(1, 11))
        assert result.records[-1].step == 10

    def test_disk_trace_matches_memory(self, tmp_path):
        result = run(hydrogen_config(tmp_path))
        assert read_trace(result.trace_path) == list(result.records)

    def test_final_checkpoint_at_last_step(self, tmp_path):
        result = run(hydrogen_config(tmp_path))
        scalars, arrays, rng_states = read_checkpoint(result.checkpoint_path)
        assert scalars["step"] == 10
        assert scalars["optimizer"] == "sgd"
        assert arrays["theta"].shape == (1,)
        assert len(rng_states) == 1


class TestResumeDeterminism:
    @pytest.mark.parametrize("name", ["sgd", "sr", "minsr", "spring", "wssr", "rssr"])
    def test_split_run_matches_uninterrupted(self, tmp_path, name):
        full = run(helium_config(tmp_path, name=name, steps=6, sub="full"))

        split_cfg = helium_config(tmp_path, name=name, steps=6, sub="split")
        half_cfg = dataclasses.replace(
            split_cfg, run=dataclasses.replace(split_cfg.run, steps=3)
        )
        run(half_cfg)
        resumed = run(
            split_cfg, resume_path=str(tmp_path / "split" / "checkpoint.bin")
        )

        assert resumed.exit_code == 0
        full_records = read_trace(full.trace_path)
        split_records = read_trace(resumed.trace_path)
        assert [r.step for r in split_records] == [1, 2, 3, 4, 5, 6]
        assert strip_wall(full_records) == strip_wall(split_records)

    def test_resume_drops_records_past_checkpoint(self, tmp_path):
        cfg = helium_config(tmp_path, steps=6, every=2)
        run(cfg)
        # Final checkpoint is at step 6; rerun from the step-4 periodic one
        # is not retained (overwritten), so emulate a stale trace instead:
        # resume from the final checkpoint with a longer target.
        longer = dataclasses.replace(cfg, run=dataclasses.replace(cfg.run, steps=8))
        resumed = run(longer, resume_path=str(tmp_path / "out" / "checkpoint.bin"))
        assert [r.step for r in read_trace(resumed.trace_path)] == list(range(1, 9))

    def test_resume_past_a_cut_short_trace_row_matches_a_straight_run(self, tmp_path):
        # A run killed mid-write can leave a partial last row; rows past
        # the checkpointed step are dropped unread.
        full = run(helium_config(tmp_path, steps=4, sub="full"))
        cfg = helium_config(tmp_path, steps=3)
        run(cfg)
        with open(tmp_path / "out" / "trace.csv", "a", encoding="utf-8") as fh:
            fh.write("4,-0.49")
        longer = dataclasses.replace(cfg, run=dataclasses.replace(cfg.run, steps=4))
        resumed = run(longer, resume_path=str(tmp_path / "out" / "checkpoint.bin"))
        assert resumed.exit_code == 0
        records = read_trace(resumed.trace_path)
        assert [r.step for r in records] == [1, 2, 3, 4]
        assert strip_wall(records) == strip_wall(read_trace(full.trace_path))

    def test_resume_past_a_row_cut_inside_its_step_field(self, tmp_path):
        # A row cut short before its first comma has no step to compare; a
        # last line without its newline is dropped unread.
        full = run(helium_config(tmp_path, steps=4, sub="full"))
        cfg = helium_config(tmp_path, steps=3)
        run(cfg)
        with open(tmp_path / "out" / "trace.csv", "a", encoding="utf-8") as fh:
            fh.write("1")
        longer = dataclasses.replace(cfg, run=dataclasses.replace(cfg.run, steps=4))
        resumed = run(longer, resume_path=str(tmp_path / "out" / "checkpoint.bin"))
        assert resumed.exit_code == 0
        records = read_trace(resumed.trace_path)
        assert strip_wall(records) == strip_wall(read_trace(full.trace_path))

    def test_resume_into_a_fresh_out_dir_keeps_rows_by_step(self, tmp_path):
        # A trace begun by a resume into a fresh out_dir starts past step 1.
        # Resume into one twice, the second time from a kept copy of an
        # older checkpoint, with the trace run past it and its last row cut short.
        def cfg(steps, sub):
            return helium_config(tmp_path, steps=steps, every=2, sub=sub)

        full = run(cfg(10, "full"))
        run(cfg(4, "a"))
        run(cfg(8, "b"), resume_path=str(tmp_path / "a" / "checkpoint.bin"))
        older = tmp_path / "step8.bin"
        shutil.copy(tmp_path / "b" / "checkpoint.bin", older)
        run(cfg(9, "b"), resume_path=str(older))
        with open(tmp_path / "b" / "trace.csv", "a", encoding="utf-8") as fh:
            fh.write("10,-0.49")
        resumed = run(cfg(10, "b"), resume_path=str(older))
        assert resumed.exit_code == 0
        records = read_trace(resumed.trace_path)
        assert [r.step for r in records] == list(range(5, 11))
        assert strip_wall(records) == strip_wall(read_trace(full.trace_path)[4:])

    def test_checkpoint_optimizer_section_names(self, tmp_path):
        # every field of the optimizer state, scalar or array, is a flat
        # "<optimizer>_<field>" entry
        run(helium_config(tmp_path, name="wssr", steps=2, sub="wssr"))
        scalars, arrays, _ = read_checkpoint(tmp_path / "wssr" / "checkpoint.bin")
        assert sorted(k for k in scalars if k.startswith("wssr")) == ["wssr_r_max", "wssr_step"]
        assert scalars["wssr_step"] == 2
        assert [k for k in arrays if k.startswith("wssr")] == [
            "wssr_u_prev", "wssr_sigma", "wssr_lbar",
        ]

        run(helium_config(tmp_path, name="rssr", steps=2, sub="rssr"))
        scalars, arrays, _ = read_checkpoint(tmp_path / "rssr" / "checkpoint.bin")
        assert sorted(k for k in {**scalars, **arrays} if k.startswith("rssr")) == [
            "rssr_lbar", "rssr_r_max", "rssr_sigma", "rssr_step", "rssr_u_prev",
        ]
        assert not any(k.startswith("wssr") for k in {**scalars, **arrays})

        run(helium_config(tmp_path, name="spring", steps=2, sub="spring"))
        scalars, arrays, _ = read_checkpoint(tmp_path / "spring" / "checkpoint.bin")
        assert not any(k.startswith("spring") for k in scalars)
        assert [k for k in arrays if k.startswith("spring")] == ["spring_prev_update"]

    def test_resume_rejects_per_walker_rng_streams(self, tmp_path):
        result = run(hydrogen_config(tmp_path))
        scalars, arrays, rng_states = read_checkpoint(result.checkpoint_path)
        two_streams = tmp_path / "two_streams.bin"
        write_checkpoint(two_streams, scalars, arrays, rng_states * 2)
        with pytest.raises(ConfigError, match="2 RNG streams"):
            run(hydrogen_config(tmp_path), resume_path=str(two_streams))

    @pytest.mark.parametrize("damage", [
        "no-state", "no-inc", "other-generator", "state-past-128-bits", "not-a-dict",
    ])
    def test_resume_rejects_a_malformed_rng_state(self, tmp_path, damage):
        # numpy's state setter raises KeyError for a missing field, which
        # must not read as a missing checkpoint entry
        result = run(hydrogen_config(tmp_path))
        scalars, arrays, (state,) = read_checkpoint(result.checkpoint_path)
        state = {
            "no-state": {k: v for k, v in state.items() if k != "state"},
            "no-inc": {**state, "state": {"state": state["state"]["state"]}},
            "other-generator": {**state, "bit_generator": "MT19937"},
            "state-past-128-bits": {**state, "state": {**state["state"], "state": 2**300}},
            "not-a-dict": [state],
        }[damage]
        crafted = tmp_path / "crafted.bin"
        write_checkpoint(crafted, scalars, arrays, [state])
        with pytest.raises(ConfigError, match="checkpoint is malformed: RNG state") as exc:
            run(hydrogen_config(tmp_path), resume_path=str(crafted))
        assert exc.value.exit_code == 2

    def test_resume_rejects_mismatched_optimizer_state(self, tmp_path):
        # Checkpoints once carried wssr hyperparameters such as delta; the
        # state now holds only what evolves, and a resume refuses (exit 2)
        # rather than half-reading such a section.
        result = run(helium_config(tmp_path, name="wssr", steps=2))
        scalars, arrays, rng_states = read_checkpoint(result.checkpoint_path)
        stale = tmp_path / "stale.bin"

        def resume_fails(match):
            write_checkpoint(stale, scalars, arrays, rng_states)
            with pytest.raises(ConfigError, match=match):
                run(helium_config(tmp_path, name="wssr", steps=4), resume_path=str(stale))

        scalars["wssr_delta"] = 0.95
        resume_fails(r"unknown \['wssr_delta'\], missing \[\]")
        del scalars["wssr_delta"]
        lbar = arrays.pop("wssr_lbar")
        resume_fails(r"unknown \[\], missing \['wssr_lbar'\]")
        arrays["wssr_lbar"] = lbar[:-1]
        resume_fails("malformed")

    @pytest.mark.parametrize("name", ["wssr", "rssr"])
    def test_resume_refuses_an_optimizer_step_other_than_the_step(self, tmp_path, name):
        # The per-step seeds follow the optimizer's own step, so a resume
        # from such a checkpoint would leave the straight run's trajectory.
        result = run(helium_config(tmp_path, name=name, steps=2))
        scalars, arrays, rng_states = read_checkpoint(result.checkpoint_path)
        assert scalars["step"] == scalars[f"{name}_step"] == 2
        scalars[f"{name}_step"] = 7
        crafted = tmp_path / "crafted.bin"
        write_checkpoint(crafted, scalars, arrays, rng_states)
        with pytest.raises(ConfigError, match=f"checkpoint has {name}_step 7, but step 2") as exc:
            run(helium_config(tmp_path, name=name, steps=4), resume_path=str(crafted))
        assert exc.value.exit_code == 2

    @pytest.mark.parametrize("table, entry", [
        ("arrays", "foo"), ("scalars", "bar"), ("scalars", "theta"),
    ])
    def test_resume_refuses_an_unknown_entry(self, tmp_path, table, entry):
        # a scalar named like an array is a second entry of that name
        result = run(helium_config(tmp_path, name="wssr", steps=2))
        scalars, arrays, rng_states = read_checkpoint(result.checkpoint_path)
        if table == "arrays":
            arrays[entry] = np.zeros(3)
        else:
            scalars[entry] = 1
        crafted = tmp_path / "crafted.bin"
        write_checkpoint(crafted, scalars, arrays, rng_states)
        with pytest.raises(ConfigError, match=rf"unknown \['{entry}'\], missing \[\]") as exc:
            run(helium_config(tmp_path, name="wssr", steps=4), resume_path=str(crafted))
        assert exc.value.exit_code == 2

    def test_resume_rejects_optimizer_mismatch(self, tmp_path):
        cfg = helium_config(tmp_path, name="wssr", steps=2)
        run(cfg)
        other = helium_config(tmp_path, name="spring", steps=4)
        with pytest.raises(ConfigError, match="optimizer"):
            run(other, resume_path=str(tmp_path / "out" / "checkpoint.bin"))


class TestRankColumns:
    def test_optimizer_name_picks_the_factorization(self, tmp_path):
        # Step 1 is exact for both; afterwards wssr iterates from its warm
        # start and rssr makes one pass from a Gaussian block, which counts 1.
        wssr = read_trace(run(helium_config(tmp_path, name="wssr", steps=4, sub="w")).trace_path)
        rssr = read_trace(run(helium_config(tmp_path, name="rssr", steps=4, sub="r")).trace_path)
        assert [r.ssi_iterations for r in rssr] == [0, 1, 1, 1]
        assert wssr[0].ssi_iterations == 0
        assert all(r.ssi_iterations >= 1 for r in wssr[1:])
        assert all(r.effective_rank >= 1 and r.r_max >= 1 for r in wssr + rssr)

    def test_stateless_rules_write_zero_rank_columns(self, tmp_path):
        for rec in run(helium_config(tmp_path, name="minsr", steps=2)).records:
            assert (rec.effective_rank, rec.r_max, rec.ssi_iterations) == (0, 0, 0)
            assert (rec.sigma_drift, rec.projector_drift) == (0.0, 0.0)
            assert isinstance(rec.sigma_drift, float)


class TestAbortPath:
    def test_nan_energy_aborts_with_last_good_checkpoint(self, tmp_path, monkeypatch):
        calls = {"n": 0}
        original = vmcsr.sampler.local_energy_batch

        def poisoned(system, wavefunction, positions):
            calls["n"] += 1
            energies = original(system, wavefunction, positions)
            if calls["n"] >= 3:
                energies = np.asarray(energies).copy()
                energies[0] = np.nan
            return energies

        monkeypatch.setattr(vmcsr.sampler, "local_energy_batch", poisoned)
        result = run(hydrogen_config(tmp_path))
        assert result.exit_code == 3
        assert result.aborted
        assert result.steps_completed == 2
        assert "step 3" in result.message
        assert [r.step for r in result.records] == [1, 2]

        scalars, _, _ = read_checkpoint(result.checkpoint_path)
        assert scalars["step"] == 2

        # The retained checkpoint must be resumable once the failure clears.
        monkeypatch.setattr(vmcsr.sampler, "local_energy_batch", original)
        resumed = run(hydrogen_config(tmp_path), resume_path=result.checkpoint_path)
        assert resumed.exit_code == 0
        assert [r.step for r in read_trace(resumed.trace_path)] == list(range(1, 11))

    def test_abort_on_first_step_leaves_step_zero_checkpoint(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(
            vmcsr.sampler,
            "local_energy_batch",
            lambda *a, **k: np.full(64, np.nan),
        )
        result = run(hydrogen_config(tmp_path))
        assert result.exit_code == 3
        assert result.steps_completed == 0
        assert result.records == ()
        scalars, _, _ = read_checkpoint(result.checkpoint_path)
        assert scalars["step"] == 0


    @pytest.mark.parametrize("failing", [1, 3])
    def test_memory_error_in_the_amplitude_refresh_aborts_the_step(
        self, tmp_path, monkeypatch, failing
    ):
        # The refresh is the first amplitude evaluation after a step's
        # assembly. It fails at a step whose periodic checkpoint (every 2
        # steps) has not been written.
        assembled, passed = {"n": 0}, []
        original_assemble = vmcsr.runner.assemble
        original_log_abs = AceWavefunction.log_abs_batch
        original_wssr_step = vmcsr.runner.wssr_step

        def counting(*args, **kwargs):
            assembled["n"] += 1
            return original_assemble(*args, **kwargs)

        def starved(wavefunction, positions):
            if assembled["n"] == failing:
                raise MemoryError("Unable to allocate 1.00 GiB")
            return original_log_abs(wavefunction, positions)

        def spy(theta, *args, **kwargs):
            passed.append(theta.copy())
            return original_wssr_step(theta, *args, **kwargs)

        monkeypatch.setattr(vmcsr.runner, "assemble", counting)
        monkeypatch.setattr(vmcsr.runner, "wssr_step", spy)
        monkeypatch.setattr(AceWavefunction, "log_abs_batch", starved)
        cfg = helium_config(tmp_path, steps=4, every=2)
        result = run(cfg)
        assert result.exit_code == 3
        assert result.message == f"aborted at step {failing}: out of memory: Unable to allocate 1.00 GiB"
        assert [r.step for r in result.records] == list(range(1, failing))
        scalars, arrays, _ = read_checkpoint(result.checkpoint_path)
        assert scalars["step"] == failing - 1
        # the parameters the failed step started from, not its update
        assert len(passed) == failing
        np.testing.assert_array_equal(arrays["theta"], passed[-1])

        monkeypatch.undo()
        resumed = run(cfg, resume_path=result.checkpoint_path)
        assert resumed.exit_code == 0
        assert [r.step for r in read_trace(resumed.trace_path)] == [1, 2, 3, 4]


def _owner(array):
    """The array that owns array's memory, through any chain of views."""
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


class TestStepLifetime:
    @pytest.mark.parametrize("name, rule", [
        ("wssr", "wssr_step"), ("minsr", "minsr_update"), ("sr", "full_sr_update"),
    ])
    def test_no_o_sized_array_outlives_its_use(self, tmp_path, monkeypatch, name, rule):
        # O is the batch's log-derivatives, centred in place: it is the one
        # O-sized array alive at the update, and it dies with the step, so
        # no O-sized array is alive at the next step's sampling. The dense
        # rules allocate neither a second O nor a parameter-square matrix
        # (sr takes the dual: 144 parameters, 32 samples).
        earlier, current = [], []
        stale, o_sized_at_sampling, o_sized_at_update, owned, rises = [], [], [], [], []
        o_bytes = 32 * 144 * 8
        original_sample = vmcsr.runner.sample_batch
        original_assemble = vmcsr.runner.assemble
        original_rule = getattr(vmcsr.runner, rule)

        def alive(refs):
            return sum(ref() is not None for ref in refs)

        def o_sized():
            return sum(t.size == o_bytes for t in tracemalloc.take_snapshot().traces)

        def sampling(*args, **kwargs):
            earlier.extend(current)
            current.clear()
            stale.append(alive(earlier))
            o_sized_at_sampling.append(o_sized())
            batch = original_sample(*args, **kwargs)
            current.append(weakref.ref(_owner(batch.theta_logderivs)))
            return batch

        def assembling(batch, *args, **kwargs):
            bundle = original_assemble(batch, *args, **kwargs)
            owned.append(_owner(bundle.o_matrix) is _owner(batch.theta_logderivs))
            return bundle

        def updating(theta, bundle, *args, **kwargs):
            assert bundle.o_matrix.shape == (144, 32)
            o_sized_at_update.append(o_sized())
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = original_rule(theta, bundle, *args, **kwargs)
            rises.append(tracemalloc.get_traced_memory()[1] - before)
            return result

        monkeypatch.setattr(vmcsr.runner, "sample_batch", sampling)
        monkeypatch.setattr(vmcsr.runner, "assemble", assembling)
        monkeypatch.setattr(vmcsr.runner, rule, updating)
        cfg = helium_config(tmp_path, name=name, steps=4)
        cfg = dataclasses.replace(cfg, sampler=dataclasses.replace(cfg.sampler, walkers=32))
        tracemalloc.start()
        try:
            assert run(cfg).exit_code == 0
        finally:
            tracemalloc.stop()
        assert len(earlier) + len(current) == 4
        assert owned == [True] * 4, "O is not the batch's log-derivative array"
        assert o_sized_at_update == [1] * 4, "a second O-sized array alive at the update"
        assert stale == [0] * 4, "arrays of an earlier step alive at sampling"
        assert o_sized_at_sampling == [0] * 4, "an O-sized array alive at sampling"
        assert not alive(earlier + current)
        if name != "wssr":  # wssr's stacked matrix holds a scaled copy of O
            assert max(rises) < o_bytes, "the update allocated a second O or more"


class TestPeriodicCheckpoints:
    def test_interval_checkpoint_exists_midway(self, tmp_path, monkeypatch):
        # Crash after step 5's snapshot by poisoning step 6's energies.
        calls = {"n": 0}
        original = vmcsr.sampler.local_energy_batch

        def poisoned(*args, **kwargs):
            calls["n"] += 1
            energies = original(*args, **kwargs)
            if calls["n"] >= 6:
                energies = np.asarray(energies).copy()
                energies[:] = np.nan
            return energies

        monkeypatch.setattr(vmcsr.sampler, "local_energy_batch", poisoned)
        cfg = helium_config(tmp_path, name="wssr", steps=8, every=5)
        result = run(cfg)
        assert result.exit_code == 3
        scalars, _, _ = read_checkpoint(result.checkpoint_path)
        assert scalars["step"] == 5


class TestLearningRateIndexing:
    def test_first_step_uses_base_rate(self, tmp_path, monkeypatch):
        # With the exact hydrogen ansatz the gradient vanishes, so capture
        # the rate through the update call instead.
        seen = []
        import vmcsr.runner as runner_module

        original = runner_module.sgd_update

        def spy(theta, bundle, eta):
            seen.append(eta)
            return original(theta, bundle, eta)

        monkeypatch.setattr(runner_module, "sgd_update", spy)
        cfg = hydrogen_config(tmp_path)
        cfg = dataclasses.replace(cfg, run=dataclasses.replace(cfg.run, steps=3))
        run(cfg)
        assert seen[0] == 0.015
        assert seen[1] == 0.015 / (1 + 1 / 1000)
        assert seen[2] == 0.015 / (1 + 2 / 1000)


SWEEP_FAULTS = """\
import resource, sys
from vmcsr.config import build_system, build_wavefunction, parse_config_text
from vmcsr.runner import run
from vmcsr.sampler import WalkerEnsemble, metropolis_step

config = parse_config_text(sys.argv[1])
assert run(config).exit_code == 0
system = build_system(config.system)
wf = build_wavefunction(config.wavefunction, system, config.run.seed)
ensemble = WalkerEnsemble.create(
    system, wf, 2048, seed=1, proposal_std=config.sampler.proposal_std
)
for _ in range(20):
    metropolis_step(ensemble, wf)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(50):
    metropolis_step(ensemble, wf)
print("faults", resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestHeapResidence:
    @pytest.mark.skipif(
        not hasattr(ctypes.CDLL(None), "mallopt"), reason="libc has no mallopt"
    )
    def test_sweeps_after_a_run_do_not_page_fault(self, tmp_path):
        # Without the allocator setting, each 2048-walker helium sweep
        # faults in about 470 fresh pages for its temporaries.
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        config = HELIUM_SMALL.format(name="sgd", steps=1, out=tmp_path / "out", every=0)
        child = subprocess.run(
            [sys.executable, "-c", SWEEP_FAULTS, config],
            env=env, capture_output=True, text=True, check=False,
        )
        assert child.returncode == 0, child.stderr
        faults = int(child.stdout.split("faults")[-1])
        assert faults <= 50, f"{faults} minor page faults in 50 sweeps"

    def test_run_without_mallopt_is_unchanged(self, tmp_path, monkeypatch):
        reference = run(helium_config(tmp_path, steps=3, sub="reference"))
        monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace())
        result = run(helium_config(tmp_path, steps=3))
        assert result.exit_code == 0
        assert strip_wall(result.records) == strip_wall(reference.records)
