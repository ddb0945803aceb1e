"""One measured process: run one generated INI from scratch, plain or traced.

Started by run.py as a fresh interpreter with the BLAS thread count already
in its environment, so the count is fixed before numpy loads. Writes one
JSON result file and exits 0 unless the harness itself broke; the run's own
outcome (exit code, abort message) is part of the result.

Modes:
  run     a fresh run() with tracing off; also notes when run() has its
          walker ensemble (the end of set-up: import vmcsr, parse_config,
          build_system, build_wavefunction, WalkerEnsemble.create).
  traced  a fresh run() with every layer wrapped; writes the spans.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time


def blas_environment():
    """Versions and the BLAS thread count, read back from OpenBLAS itself."""
    import numpy as np
    import scipy

    requested = os.environ.get("OPENBLAS_NUM_THREADS")
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": None,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_requested": int(requested) if requested else None,
        "blas_threads": None,
        "blas_threads_verified": False,
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["openblas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                env["blas_threads"] = int(fn())
                env["blas_threads_verified"] = env["blas_threads"] == env[
                    "blas_threads_requested"]
                return env
    return env


def _check_import_root(root):
    import vmcsr

    where = os.path.realpath(vmcsr.__file__)
    expected = os.path.realpath(os.path.join(root, "src", "vmcsr"))
    if os.path.dirname(where) != expected:
        raise SystemExit(f"vmcsr imported from {where}, expected {expected}")


def verify_checkpoint(path, steps):
    """Read the final checkpoint back (CRC checked on read)."""
    import numpy as np
    from vmcsr import checkpoint
    from vmcsr.errors import CorruptChecksum, VersionMismatch

    t0 = time.perf_counter()
    try:
        scalars, arrays, _ = checkpoint.read_checkpoint(path)
    except (OSError, CorruptChecksum, VersionMismatch) as exc:
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    seconds = time.perf_counter() - t0
    ok = int(scalars["step"]) == steps and bool(np.all(np.isfinite(arrays["theta"])))
    return {"ok": ok, "step": int(scalars["step"]), "read_s": seconds,
            "error": None if ok else "wrong step or non-finite theta"}


def _note_ready(result):
    """Record in result when run() first has its walker ensemble."""
    from vmcsr.sampler import WalkerEnsemble

    create = WalkerEnsemble.__dict__["create"].__func__

    def create_and_note(cls, *args, **kwargs):
        ensemble = create(cls, *args, **kwargs)
        result.setdefault("ready_monotonic", time.monotonic())
        return ensemble

    WalkerEnsemble.create = classmethod(create_and_note)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("run", "traced"))
    parser.add_argument("--root", required=True)
    parser.add_argument("--ini", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--workload")
    args = parser.parse_args(argv)

    import vmcsr.config
    import vmcsr.runner

    _check_import_root(args.root)

    result = {}
    tracer = None
    if args.mode == "traced":
        from tracer import Tracer

        tracer = Tracer(args.workload)
        tracer.install()
    else:
        _note_ready(result)
    config = vmcsr.config.parse_config(args.ini)
    t0 = time.perf_counter()
    outcome = vmcsr.runner.run(config)
    run_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.update({
        "run_s": run_s,
        "exit_code": outcome.exit_code,
        "aborted": outcome.aborted,
        "message": outcome.message,
        "steps_completed": outcome.steps_completed,
        "samples_per_step": config.sampler.samples_per_step or config.sampler.walkers,
        "peak_rss_mb": peak_rss_mb,
        "checkpoint": verify_checkpoint(outcome.checkpoint_path, config.run.steps),
    })
    if tracer is not None:
        tracer.dump(args.spans)
    result["environment"] = blas_environment()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
