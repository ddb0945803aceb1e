"""Outside-in tracing of vmcsr: wrap each layer's public functions in place.

Every function is replaced at the name its caller looks it up by (a module
global, a class attribute), so nothing under ``src/`` changes. Each call
records one span in memory: name, start, end, parent span id, workload,
``ru_maxrss`` at entry and exit, and the counts measured at that boundary.
Spans are written out once, when the traced run ends.

One extra span per optimizer step, ``runner.step``, opens when the runner
calls ``sample_batch`` and closes when it hands the step's record to the
trace writer; that is the interval the runner's ``wall_ms`` covers.
"""

import functools
import json
import os
import resource
import time

import numpy as np

import vmcsr.checkpoint
import vmcsr.config
import vmcsr.optimizers
import vmcsr.runner
import vmcsr.sampler
import vmcsr.svdengine
from vmcsr.sampler import WalkerEnsemble
from vmcsr.wavefunction import AceWavefunction

STEP_SPAN = "runner.step"


def _maxrss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self, workload):
        self.workload = workload
        self.spans = []
        self._stack = []
        self._t0 = time.perf_counter()

    def open(self, name):
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "workload": self.workload,
            "start": time.perf_counter() - self._t0,
            "end": None,
            "rss0_kb": _maxrss_kb(),
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        # A step that aborts never reaches the trace writer; its span is
        # still open when the enclosing runner.run span closes.
        while self._stack[-1] is not span and self._stack[-1]["name"] == STEP_SPAN:
            self._finish(self._stack.pop())
        if self._stack[-1] is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")
        self._finish(self._stack.pop())

    def _finish(self, span):
        span["end"] = time.perf_counter() - self._t0
        span["rss1_kb"] = _maxrss_kb()

    def open_span_named(self, name):
        """The innermost open span with this name, or None."""
        for span in reversed(self._stack):
            if span["name"] == name:
                return span
        return None

    def wrap(self, name, fn, before=None, after=None):
        """fn with a span around each call; before/after measure counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pre = before(*args, **kwargs) if before else None
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if after:
                span.update(after(pre, result, *args, **kwargs))
            return result

        return traced

    def install(self):
        """Replace every traced function at its lookup site."""
        patch = self._patch
        patch(vmcsr.config, "parse_config", "config.parse_config")
        patch(vmcsr.runner, "build_wavefunction", "config.build_wavefunction")
        create = WalkerEnsemble.__dict__["create"].__func__
        WalkerEnsemble.create = classmethod(
            self.wrap("sampler.WalkerEnsemble.create", create)
        )
        patch(vmcsr.sampler, "burn_in", "sampler.burn_in")
        patch(vmcsr.sampler, "metropolis_step", "sampler.metropolis_step",
              before=_acceptance_before, after=_acceptance_after)
        patch(AceWavefunction, "log_abs_batch", "wavefunction.log_abs_batch",
              after=_configs_after)
        patch(AceWavefunction, "gradient_and_laplacian_batch",
              "wavefunction.gradient_and_laplacian_batch")
        patch(AceWavefunction, "grad_theta_batch", "wavefunction.grad_theta_batch")
        patch(vmcsr.sampler, "local_energy_batch", "system.local_energy_batch")
        patch(vmcsr.runner, "assemble", "estimators.assemble")
        patch(vmcsr.runner, "wssr_step", "optimizers.wssr_step")
        patch(vmcsr.runner, "minsr_update", "optimizers.minsr_update")
        patch(vmcsr.optimizers, "ssi_svd", "svdengine.ssi_svd")
        patch(vmcsr.optimizers, "exact_truncated_svd", "svdengine.exact_truncated_svd")
        for owner in (vmcsr.svdengine, vmcsr.optimizers):
            patch(owner, "qr_orthonormalize", "linalg.qr_orthonormalize",
                  after=_pivots_after)
        patch(vmcsr.optimizers, "spd_factorize", "linalg.spd_factorize")
        patch(vmcsr.checkpoint, "write_checkpoint", "checkpoint.write_checkpoint",
              after=_bytes_after)
        patch(vmcsr.checkpoint, "read_checkpoint", "checkpoint.read_checkpoint",
              after=_bytes_after)
        patch(vmcsr.runner, "run", "runner.run")
        self._install_step_span()

    def _patch(self, owner, attr, name, before=None, after=None):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), before, after))

    def _install_step_span(self):
        tracer = self
        sample_batch = vmcsr.runner.sample_batch

        @functools.wraps(sample_batch)
        def step_opening_sample_batch(*args, **kwargs):
            tracer.open(STEP_SPAN)
            return sample_batch(*args, **kwargs)

        class StepClosingTraceWriter(vmcsr.runner.TraceWriter):
            def write(self, record):
                step = tracer.open_span_named(STEP_SPAN)
                tracer.close(step)
                step["step"] = record.step
                super().write(record)

        vmcsr.runner.sample_batch = step_opening_sample_batch
        vmcsr.runner.TraceWriter = StepClosingTraceWriter

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def _acceptance_before(ensemble, *args, **kwargs):
    return int(np.sum(ensemble.accepted)), int(np.sum(ensemble.proposed))


def _acceptance_after(pre, result, ensemble, *args, **kwargs):
    return {
        "accepted": int(np.sum(ensemble.accepted)) - pre[0],
        "proposed": int(np.sum(ensemble.proposed)) - pre[1],
    }


def _configs_after(pre, result, wavefunction, positions, *args, **kwargs):
    return {"configs": int(np.shape(positions)[0])}


def _pivots_after(pre, result, *args, **kwargs):
    r = result[1]
    return {
        "cols": int(r.shape[0]),
        "zero_pivots": int(np.count_nonzero(np.diagonal(r) == 0.0)),
    }


def _bytes_after(pre, result, path, *args, **kwargs):
    return {"bytes": os.path.getsize(path)}
