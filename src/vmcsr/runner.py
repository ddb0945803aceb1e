"""The optimization driver: sample, assemble, update, log, snapshot.

Steps are 1-indexed; step k uses the learning rate at schedule argument
k-1, so the very first step runs at the schedule's base rate. Every step
appends exactly one trace record, and the final checkpoint always lands
at the last completed step. A numerical failure or a MemoryError
mid-step aborts the run (exit 3) but first re-snapshots the last good
state, so a crashed run is always resumable from where it still made
sense.

A step's arrays die with the step: O is the batch's (batch, n_params)
log-derivatives, centred in place, so a step holds one O-sized array,
and the bundle with O is released as soon as the update returns. The
amplitude refresh, the trace write and the checkpoint run with no
O-sized array alive.
"""

import ctypes
import dataclasses
import os
import time
from collections import Counter

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
    """The configured update rule: (initial state, update).

    This is the one place that names the optimizers. update(theta, bundle,
    eta, state, step) returns (theta', state', wssr diagnostics or None),
    where step is the run's step, 1-indexed.
    The rules are looked up in this module's globals at call time, so a
    replacement of one of those names (a tracer, a test spy) sees every
    call. Stateless rules have no state. Each rule gets its options
    section of config; rssr is wssr with one pass from a fresh Gaussian
    block in place of the warm-started subspace iteration; both seed a
    step's Gaussian columns from the run's seed and the steps completed
    before it.
    """
    name = config.optimizer.name
    if name == "sgd":
        return None, lambda theta, bundle, eta, state, step: (
            sgd_update(theta, bundle, eta), None, None)
    if name == "sr":
        return None, lambda theta, bundle, eta, state, step: (
            full_sr_update(theta, bundle, eta, config.sr), None, None)
    if name == "minsr":
        return None, lambda theta, bundle, eta, state, step: (
            minsr_update(theta, bundle, eta, config.minsr), None, None)
    if name == "spring":
        initial = SpringState(prev_update=np.zeros(n_params))
        return initial, lambda theta, bundle, eta, state, step: (
            *spring_update(theta, bundle, eta, state, config.spring), None)
    initial = WssrState.initial(n_params, config.wssr.rank_init)
    return initial, lambda theta, bundle, eta, state, step: wssr_step(
        theta, bundle, eta, state, config.wssr, rng_seed=config.run.seed, step=step - 1,
        sketch=name == "rssr")


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


def _layout(step, config, wavefunction, ensemble, opt_state):
    """What a checkpoint holds: one flat table, its arrays in stored order.

    This is the one description of a checkpoint: _snapshot writes the
    layout of the current state, and _restore holds a checkpoint to the
    layout of the configured run's fresh state. Every field of the
    optimizer state, scalar or array, is the entry "<optimizer>_<field>".
    """
    name = config.optimizer.name
    fields = {} if opt_state is None else vars(opt_state)
    return {
        "step": step,
        "optimizer": name,
        "seed": config.run.seed,
        "proposal_std": ensemble.proposal_std,
        "accepted": ensemble.accepted,
        "proposed": ensemble.proposed,
        "burned_in": ensemble.burned_in,
        "theta": wavefunction.theta,
        "positions": ensemble.positions,
        "spins": wavefunction.system.spins,
        "log_abs": ensemble.log_abs,
        **{f"{name}_{field}": value for field, value in fields.items()},
    }


def _snapshot(path, step, config, wavefunction, ensemble, opt_state):
    entries = _layout(step, config, wavefunction, ensemble, opt_state)
    arrays = {k: v for k, v in entries.items() if isinstance(v, np.ndarray)}
    scalars = {k: v for k, v in entries.items() if k not in arrays}
    ckpt.write_checkpoint(path, scalars, arrays, [ensemble.rng.bit_generator.state])


def _restore(resume_path, config, wavefunction, initial_state):
    """Rebuild (step, ensemble, opt_state) from a snapshot; theta goes into wavefunction.

    The checkpoint is held to the _layout of the configured run's fresh
    state, by one rule. Its optimizer, seed and spin labels are the
    run's. Its entries are exactly the layout's, none unknown and none
    missing. Every scalar has the JSON type the run writes (a bool is
    not an int), and every array the fresh dtype and shape, where a 0
    takes any length. Then the step must be >= 0, the ensemble and the
    optimizer state check their own ranges, and last its one RNG state
    must be a PCG64 state whose counters are JSON integers.
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
    walkers = config.sampler.walkers
    fresh = WalkerEnsemble(
        positions=np.zeros((walkers, wavefunction.system.n_electrons, 3)),
        log_abs=np.zeros(walkers),
        rng=np.random.Generator(np.random.PCG64()),
        proposal_std=float(config.sampler.proposal_std),
    )
    wanted = _layout(0, config, wavefunction, fresh, initial_state)
    stored = {**scalars, **arrays}
    try:
        for entry, got, want in (
            ("optimizer", scalars["optimizer"], config.optimizer.name),
            ("seed", scalars["seed"], config.run.seed),
            ("spin labels", arrays["spins"].tolist(), wavefunction.system.spins.tolist()),
        ):
            if got != want:
                raise ConfigError(f"checkpoint has {entry} {got!r}, the configured run {want!r}")
        # a name stored as both a scalar and an array counts as unknown once
        names, layout = Counter([*scalars, *arrays]), Counter(wanted.keys())
        unknown, missing = names - layout, layout - names
        if unknown or missing:
            raise ConfigError(
                f"checkpoint entries are not the configured run's: "
                f"unknown {sorted(unknown)}, missing {sorted(missing)}"
            )
        for name, want in wanted.items():
            got = stored[name]
            if type(got) is not type(want):
                raise ValueError(f"entry '{name}' must be {type(want).__name__}, got {got!r}")
            if isinstance(want, np.ndarray):
                if got.dtype != want.dtype:
                    raise ValueError(f"entry '{name}' must hold {want.dtype}, got {got.dtype}")
                if got.ndim != want.ndim or any(
                        w and w != g for w, g in zip(want.shape, got.shape)):
                    raise ConfigError(f"checkpoint entry '{name}' has shape {got.shape}, "
                                      f"the configured run's is {want.shape}")
        step = stored["step"]
        if step < 0:
            raise ValueError(f"entry 'step' must be an integer >= 0, got {step!r}")
        ensemble = dataclasses.replace(
            fresh, **{k: stored[k] for k in wanted.keys() & vars(fresh).keys()}
        )
        opt_state = None if initial_state is None else dataclasses.replace(initial_state, **{
            field: stored[f"{config.optimizer.name}_{field}"] for field in vars(initial_state)})
    except KeyError as exc:
        raise ConfigError(f"checkpoint lacks the entry {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"checkpoint is malformed: {exc}") from exc
    rng_state = rng_states[0]
    try:
        # numpy's setter would floor a float and take a bool as an integer
        counters = (rng_state["state"]["state"], rng_state["state"]["inc"],
                    rng_state["has_uint32"], rng_state["uinteger"])
        if not all(type(c) is int for c in counters):
            raise TypeError(f"its counters must be integers, got {counters!r}")
        ensemble.rng.bit_generator.state = rng_state
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(
            f"checkpoint is malformed: RNG state is not a PCG64 state "
            f"({type(exc).__name__}: {exc})"
        ) from exc
    wavefunction.set_theta(stored["theta"])
    return step, ensemble, opt_state


def _step(step, config, wavefunction, ensemble, opt_state, update):
    """One optimizer step: sample, assemble, update, refresh the amplitudes.

    Returns (state', wssr diagnostics or None, the trace record's energy
    fields), with theta' set in wavefunction; a step that fails leaves the
    theta it started from. The batch is dropped once assemble has turned its
    log-derivatives into O, and the bundle once the update returns.
    """
    theta = wavefunction.theta
    batch = sample_batch(
        ensemble,
        wavefunction,
        wavefunction.system,
        n_samples=config.sampler.samples_per_step or config.sampler.walkers,
        burn_in_steps=config.sampler.burn_in,
        thinning=config.sampler.thinning,
    )
    variance = float(np.var(batch.local_energies))
    bundle = assemble(batch, clip_n_std=config.optimizer.clip_n_std)
    del batch
    if not np.isfinite(bundle.raw_loss):
        raise NumericalAbort(f"non-finite energy at step {step}")
    # a non-finite log-derivative makes the gradient non-finite
    if not np.all(np.isfinite(bundle.gradient)):
        raise NumericalAbort(f"non-finite log-derivatives at step {step}")
    eta = config.optimizer.eta(step - 1)
    theta_next, opt_state_next, diag = update(theta, bundle, eta, opt_state, step)
    energy_fields = {
        "raw_energy": bundle.raw_loss,
        "clipped_energy": bundle.loss,
        "energy_variance": variance,
    }
    del bundle
    if not np.all(np.isfinite(theta_next)):
        raise NumericalAbort(f"non-finite parameters at step {step}")
    wavefunction.set_theta(theta_next)
    try:
        ensemble.log_abs = np.asarray(
            wavefunction.log_abs_batch(ensemble.positions), dtype=np.float64
        )
    except BaseException:
        wavefunction.set_theta(theta)
        raise
    return opt_state_next, diag, energy_fields


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
    seed = config.run.seed
    wavefunction = build_wavefunction(config.wavefunction, build_system(config.system), seed)
    opt_state, update = _optimizer(config, wavefunction.n_params)

    records = []
    if resume_path is not None:
        start_step, ensemble, opt_state = _restore(resume_path, config, wavefunction, opt_state)
        if os.path.exists(trace_path):
            try:
                # keep rows by step, not position: a trace begun by a resume
                # into a fresh out_dir starts at that checkpoint's step + 1
                records = read_trace(trace_path, start_step)
            except ValueError as exc:
                raise ConfigError(f"cannot resume into {trace_path}: {exc}") from exc
    else:
        start_step = 0
        ensemble = WalkerEnsemble.create(
            wavefunction.system,
            wavefunction,
            config.sampler.walkers,
            seed=seed,
            proposal_std=config.sampler.proposal_std,
        )

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
                opt_state, diag, energy_fields = _step(
                    step, config, wavefunction, ensemble, opt_state, update
                )
            except (NumericalError, MemoryError) as exc:
                # Drop the traceback, and with it the failed step's arrays,
                # then re-snapshot the state before the failing step so the
                # run can be resumed from the last good point.
                exc.__traceback__ = None
                reason = f"out of memory: {exc}" if isinstance(exc, MemoryError) else exc
                _snapshot(checkpoint_path, step - 1, config, wavefunction, ensemble, opt_state)
                aborted = True
                message = f"aborted at step {step}: {reason}"
                step = step - 1
                break

            proposed_now = ensemble.proposed - prop0
            accepted_now = ensemble.accepted - acc0
            rate = accepted_now / proposed_now if proposed_now else 0.0
            rank_fields = _NO_RANK if diag is None else dataclasses.asdict(diag)
            record = TraceRecord(
                step=step,
                **energy_fields,
                acceptance_rate=rate,
                wall_ms=(time.perf_counter() - t0) * 1e3,
                **rank_fields,
            )
            writer.write(record)
            records.append(record)

            if (every and step % every == 0) or step == k_max:
                _snapshot(checkpoint_path, step, config, wavefunction, ensemble, opt_state)

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
