"""The optimization driver: sample, assemble, update, log, snapshot.

Steps are 1-indexed; step k uses the learning rate at schedule argument
k-1, so the very first step runs at the schedule's base rate. Every step
appends exactly one trace record, and the final checkpoint always lands
at the last completed step. A numerical failure or a MemoryError
mid-step aborts the run (exit 3) but first re-snapshots the last good
state, so a crashed run is always resumable from where it still made
sense.
"""

import ctypes
import dataclasses
import os
import time

import numpy as np

from . import checkpoint as ckpt
from .errors import ConfigError, NumericalAbort, NumericalError
from .config import build_system, build_wavefunction
from .estimators import assemble
from .optimizers import (
    SpringState,
    WssrDiagnostics,
    WssrState,
    full_sr_update,
    minsr_update,
    sgd_update,
    spring_update,
    wssr_step,
)
from .sampler import WalkerEnsemble, sample_batch
from .trace import TraceRecord, TraceWriter, read_trace, smooth_trace
from .wavefunction import EVAL_CHUNK_BYTES

TRACE_FILENAME = "trace.csv"
CHECKPOINT_FILENAME = "checkpoint.bin"
# The trace's rank columns for the rules without a low-rank factorization.
_NO_RANK = dataclasses.asdict(WssrDiagnostics(0, 0, 0, 0.0, 0.0))
# glibc mallopt parameters (malloc.h)
_M_TOP_PAD = -2
_M_MMAP_THRESHOLD = -3


@dataclasses.dataclass(frozen=True)
class RunResult:
    exit_code: int
    steps_completed: int
    trace_path: str
    checkpoint_path: str
    aborted: bool
    smoothed_energy: float
    message: str
    records: tuple


def _optimizer(config, n_params):
    """The configured update rule: (initial state, checkpoint prefix, update).

    This is the one place that names the optimizers. update(theta, bundle,
    eta, state, seed) returns (theta', state', wssr diagnostics or None).
    The rules are looked up in this module's globals at call time, so a
    replacement of one of those names (a tracer, a test spy) sees every
    call. Stateless rules have neither state nor prefix. Each rule gets
    its options section of config; rssr is wssr with the sketch in place
    of the warm-started subspace iteration.
    """
    name = config.optimizer.name
    if name == "sgd":
        return None, None, lambda theta, bundle, eta, state, seed: (
            sgd_update(theta, bundle, eta), None, None)
    if name == "sr":
        return None, None, lambda theta, bundle, eta, state, seed: (
            full_sr_update(theta, bundle, eta, config.sr), None, None)
    if name == "minsr":
        return None, None, lambda theta, bundle, eta, state, seed: (
            minsr_update(theta, bundle, eta, config.minsr), None, None)
    if name == "spring":
        initial = SpringState(prev_update=np.zeros(n_params))
        return initial, "spring", lambda theta, bundle, eta, state, seed: (
            *spring_update(theta, bundle, eta, state, config.spring), None)
    initial = WssrState.initial(n_params, config.wssr.rank_init)
    return initial, "wssr", lambda theta, bundle, eta, state, seed: wssr_step(
        theta, bundle, eta, state, config.wssr, rng_seed=seed, sketch=name == "rssr")


def _keep_heap_resident():
    """Keep same-shaped temporaries in pages the process already holds.

    By default glibc maps a large array fresh on every allocation and
    hands the freed top of the heap back to the kernel, so each sweep
    page-faults its temporaries in again. Arrays up to twice the chunk
    budget now come from the heap, which keeps a pad of four chunk
    budgets when it shrinks. Larger arrays, such as the O matrix of a
    big system, are still mapped and unmapped whole, so they do not
    fragment the heap. Only where memory comes from changes, never a
    value. A libc without mallopt is left as it is.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 2 * EVAL_CHUNK_BYTES)
    mallopt(_M_TOP_PAD, 4 * EVAL_CHUNK_BYTES)


def _snapshot(path, step, config, system, seed, theta, ensemble, opt_state, prefix):
    scalars = {
        "step": step,
        "optimizer": config.optimizer.name,
        "seed": seed,
        "proposal_std": ensemble.proposal_std,
        "accepted": ensemble.accepted,
        "proposed": ensemble.proposed,
        "burned_in": ensemble.burned_in,
    }
    arrays = {
        "theta": theta,
        "positions": ensemble.positions,
        "spins": system.spins,
        "log_abs": ensemble.log_abs,
    }
    if opt_state is not None:
        section = {}
        for f in dataclasses.fields(opt_state):
            value = getattr(opt_state, f.name)
            if isinstance(value, np.ndarray):
                arrays[f"{prefix}_{f.name}"] = value
            else:
                section[f.name] = value
        scalars[prefix] = section
    rng_states = [ensemble.rng.bit_generator.state]
    ckpt.write_checkpoint(path, scalars, arrays, rng_states)


def _restore(resume_path, config, system, wavefunction, initial_state, prefix):
    """Rebuild (step, theta, ensemble, opt_state) from a snapshot.

    The checkpoint must match the configured run: the same optimizer,
    seed and spin labels, and every array the shape the run gives it. An
    optimizer array has the shape of its field in initial_state, where a
    0 takes any length. The optimizer state has the class of
    initial_state; its fields are read back from the section _snapshot
    wrote under prefix, which must hold exactly those fields.
    Hyperparameters always come from config.
    """
    try:
        scalars, arrays, rng_states = ckpt.read_checkpoint(resume_path)
    except OSError as exc:
        raise ConfigError(f"cannot read checkpoint {resume_path}: {exc}") from exc
    if len(rng_states) != 1:
        raise ConfigError(
            f"checkpoint holds {len(rng_states)} RNG streams, expected 1 "
            f"(the sampler draws from one ensemble-wide stream)"
        )
    rng = np.random.Generator(np.random.PCG64())
    try:
        rng.bit_generator.state = rng_states[0]
        step = int(scalars["step"])
        theta = arrays["theta"]
        ensemble = WalkerEnsemble(
            positions=arrays["positions"],
            log_abs=arrays["log_abs"],
            rng=rng,
            proposal_std=float(scalars["proposal_std"]),
            accepted=int(scalars["accepted"]),
            proposed=int(scalars["proposed"]),
            burned_in=bool(scalars["burned_in"]),
        )
        for entry, got, want in (
            ("optimizer", scalars["optimizer"], config.optimizer.name),
            ("seed", int(scalars["seed"]), config.run.seed),
            ("spin labels", arrays["spins"].tolist(), system.spins.tolist()),
        ):
            if got != want:
                raise ConfigError(
                    f"checkpoint has {entry} {got!r}, the configured run {want!r}"
                )
    except KeyError as exc:
        raise ConfigError(f"checkpoint lacks the entry {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"checkpoint is malformed: {exc}") from exc

    walkers, n = config.sampler.walkers, system.n_electrons
    shapes = {"theta": (wavefunction.n_params,), "positions": (walkers, n, 3),
              "log_abs": (walkers,)}
    section = None
    if initial_state is not None:
        section = scalars.get(prefix, {})
        if not isinstance(section, dict):
            raise ConfigError(
                f"checkpoint entry {prefix!r} is malformed: expected a table of "
                f"the optimizer state's scalars, got {section!r}"
            )
        section = dict(section)
        head = f"{prefix}_"
        section.update((k[len(head):], v) for k, v in arrays.items() if k.startswith(head))
        expected = {f.name for f in dataclasses.fields(initial_state)}
        if set(section) != expected:
            raise ConfigError(
                f"checkpoint {prefix} state does not match this version: "
                f"unknown fields {sorted(set(section) - expected)}, "
                f"missing fields {sorted(expected - set(section))}"
            )
        shapes.update(
            (head + name, start.shape) for name, start in vars(initial_state).items()
            if isinstance(start, np.ndarray)
        )
    for entry, want in shapes.items():
        got = np.shape(arrays.get(entry))  # an optimizer field stored as a scalar: ()
        if len(got) != len(want) or any(k and k != g for k, g in zip(want, got)):
            raise ConfigError(
                f"checkpoint entry '{entry}' has shape {got}, the configured run's is {want}"
            )
    opt_state = None
    if section is not None:
        try:
            opt_state = type(initial_state)(**section)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"checkpoint {prefix} state is malformed: {exc}") from exc
    return step, theta, ensemble, opt_state


def run(config, resume_path=None):
    """Execute a configured run; artifacts land in config.run.out_dir.

    Fresh runs start the trace file over; resumed runs drop any trace
    records past the checkpointed step and continue appending, so an
    interrupted-then-resumed run leaves the same trace as an
    uninterrupted one.
    """
    out_dir = config.run.out_dir
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"[run] out_dir: cannot create it: {exc}") from exc
    trace_path = os.path.join(out_dir, TRACE_FILENAME)
    checkpoint_path = os.path.join(out_dir, CHECKPOINT_FILENAME)

    _keep_heap_resident()
    system = build_system(config.system)
    seed = config.run.seed
    wavefunction = build_wavefunction(config.wavefunction, system, seed)
    opt_state, prefix, update = _optimizer(config, wavefunction.n_params)

    records = []
    if resume_path is not None:
        start_step, theta, ensemble, opt_state = _restore(
            resume_path, config, system, wavefunction, opt_state, prefix
        )
        wavefunction.set_theta(theta)
        if os.path.exists(trace_path):
            try:
                records = [rec for rec in read_trace(trace_path) if rec.step <= start_step]
            except ValueError as exc:
                raise ConfigError(f"cannot resume into {trace_path}: {exc}") from exc
    else:
        start_step = 0
        theta = wavefunction.theta.copy()
        ensemble = WalkerEnsemble.create(
            system,
            wavefunction,
            config.sampler.walkers,
            seed=seed,
            proposal_std=config.sampler.proposal_std,
        )

    n_samples = config.sampler.samples_per_step or config.sampler.walkers
    k_max = config.run.steps
    every = config.run.checkpoint_every

    aborted = False
    message = ""
    step = start_step
    with TraceWriter(trace_path, records) as writer:
        for step in range(start_step + 1, k_max + 1):
            t0 = time.perf_counter()
            acc0, prop0 = ensemble.accepted, ensemble.proposed
            try:
                batch = sample_batch(
                    ensemble,
                    wavefunction,
                    system,
                    n_samples=n_samples,
                    burn_in_steps=config.sampler.burn_in,
                    thinning=config.sampler.thinning,
                )
                bundle = assemble(batch, clip_n_std=config.optimizer.clip_n_std)
                if not np.isfinite(bundle.raw_loss):
                    raise NumericalAbort(f"non-finite energy at step {step}")
                # a non-finite log-derivative makes the gradient non-finite
                if not np.all(np.isfinite(bundle.gradient)):
                    raise NumericalAbort(f"non-finite log-derivatives at step {step}")
                eta = config.optimizer.eta(step - 1)
                theta_next, opt_state_next, diag = update(
                    theta, bundle, eta, opt_state, seed
                )
                if not np.all(np.isfinite(theta_next)):
                    raise NumericalAbort(f"non-finite parameters at step {step}")
            except (NumericalError, MemoryError) as exc:
                # Drop the traceback, and with it the failed step's arrays,
                # then re-snapshot the state before the failing step so the
                # run can be resumed from the last good point.
                exc.__traceback__ = None
                reason = f"out of memory: {exc}" if isinstance(exc, MemoryError) else exc
                _snapshot(
                    checkpoint_path, step - 1, config, system, seed, theta, ensemble,
                    opt_state, prefix,
                )
                aborted = True
                message = f"aborted at step {step}: {reason}"
                step = step - 1
                break

            theta = theta_next
            opt_state = opt_state_next
            wavefunction.set_theta(theta)
            ensemble.log_abs = np.asarray(
                wavefunction.log_abs_batch(ensemble.positions), dtype=np.float64
            )

            proposed_now = ensemble.proposed - prop0
            accepted_now = ensemble.accepted - acc0
            rate = accepted_now / proposed_now if proposed_now else 0.0
            rank_fields = _NO_RANK if diag is None else dataclasses.asdict(diag)
            record = TraceRecord(
                step=step,
                raw_energy=bundle.raw_loss,
                clipped_energy=bundle.loss,
                energy_variance=float(np.var(batch.local_energies)),
                acceptance_rate=rate,
                wall_ms=(time.perf_counter() - t0) * 1e3,
                **rank_fields,
            )
            writer.write(record)
            records.append(record)

            if (every and step % every == 0) or step == k_max:
                _snapshot(
                    checkpoint_path, step, config, system, seed, theta, ensemble,
                    opt_state, prefix,
                )

    energies = [rec.raw_energy for rec in records]
    smoothed = float("nan")
    if energies:
        smoothed = float(smooth_trace(energies, config.run.smooth_window)[-1])
    return RunResult(
        exit_code=NumericalError.exit_code if aborted else 0,
        steps_completed=step,
        trace_path=trace_path,
        checkpoint_path=checkpoint_path,
        aborted=aborted,
        smoothed_energy=smoothed,
        message=message,
        records=tuple(records),
    )
