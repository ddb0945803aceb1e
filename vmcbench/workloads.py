"""Benchmark workloads: generated INI configs, correctness references, predictions.

Every workload is a closed loop of optimizer steps in one process. The
benchmark seed reaches the program only as ``[run] seed`` of the generated
INI. An invocation runs the workload from scratch at least ``runs`` times,
each in a fresh process; every repeat must match the first run bit for bit.
``runs`` and ``[run] steps`` are chosen so that every invocation times at
least ``runs`` first steps and eleven steps >= 2 (the tail percentile needs
ten beyond it).
"""

from dataclasses import dataclass

# Exact non-relativistic ground-state energies in Hartree, typed in from
# S. J. Chakravorty et al., Phys. Rev. A 47, 3649 (1993).
REFERENCE_ENERGY = {"he": -2.903724, "be": -14.66736}

# Every step's acceptance must lie in this band. Burn-in tunes the spread
# towards 0.5; a frozen or always-accepting sampler leaves the band.
ACCEPTANCE_BAND = (0.10, 0.90)

# The mean energy of the last ENERGY_TAIL_STEPS steps may sit below the
# exact energy by at most ENERGY_MARGIN_STDERR standard errors of that
# mean (from the traced per-step variance), and never less than
# ENERGY_MARGIN_FLOOR Hartree. Being below by more breaks the variational
# principle, whatever trajectory the optimizer takes.
ENERGY_TAIL_STEPS = 3
ENERGY_MARGIN_STDERR = 5.0
ENERGY_MARGIN_FLOOR = 0.01

# Smoke size: a few walkers and steps, for the benchmark's own tests.
SMOKE_OVERRIDES = {
    "sampler": {"walkers": "32", "burn_in": "20", "thinning": "2"},
    "run": {"steps": "3"},
}


@dataclass(frozen=True)
class Prediction:
    """Which layers the trace should show dominating one phase.

    phase is "first_step" (step 1, burn-in included) or "step" (median of
    steps >= 2). kind "largest" holds when the group's self-time share
    beats every other component; "majority" when it exceeds one half.
    """

    text: str
    phase: str
    group: tuple
    kind: str


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    sections: dict
    runs: int
    predictions: tuple = ()

    @property
    def reference_energy(self):
        return REFERENCE_ENERGY[self.preset]

    def settings(self, smoke=False):
        """INI sections and keys this workload sets, smoke size applied."""
        sections = {name: dict(keys) for name, keys in self.sections.items()}
        sections.setdefault("system", {})["preset"] = self.preset
        if smoke:
            for name, keys in SMOKE_OVERRIDES.items():
                sections.setdefault(name, {}).update(keys)
        return sections

    def steps(self, smoke=False):
        return int(self.settings(smoke)["run"]["steps"])

    def ini_text(self, seed, out_dir, smoke=False):
        """The INI this workload runs; seed and out_dir are the only inputs."""
        sections = self.settings(smoke)
        run = sections.setdefault("run", {})
        run["seed"] = str(int(seed))
        run["out_dir"] = str(out_dir)
        lines = []
        for name, keys in sections.items():
            lines.append(f"[{name}]")
            lines.extend(f"{key} = {value}" for key, value in keys.items())
            lines.append("")
        return "\n".join(lines)


WORKLOADS = {
    w.name: w
    for w in (
        # The acceptance operating point: 144 parameters, default sampler
        # (2048 walkers, 1000-sweep burn-in) and default wssr/ssi. The step
        # is the rank-deficient SSI/QR path; burn-in is per-walker RNG.
        # Two runs, as the long burn-in makes a third too dear.
        Workload(
            name="he-s-wssr",
            preset="he",
            sections={
                "wavefunction": {"ell_max": "0"},
                "run": {"steps": "7", "checkpoint_every": "1"},
            },
            runs=2,
            predictions=(
                Prediction(
                    "svdengine + linalg self time is the largest share of a step",
                    "step", ("svdengine", "linalg"), "largest"),
                Prediction(
                    "sampler + wavefunction sweep carry the first step",
                    "first_step", ("sampler", "wavefunction.log_abs_batch.sweep"),
                    "majority"),
            ),
        ),
        # Same optimizer code on an 840-parameter, mostly full-rank block
        # beside a balanced stencil and sweep load: an SSI change tuned on
        # he-s-wssr that costs here shows up here.
        Workload(
            name="he-p-wssr",
            preset="he",
            sections={
                "wavefunction": {"ell_max": "1"},
                "sampler": {"burn_in": "100"},
                "run": {"steps": "7", "checkpoint_every": "1"},
            },
            runs=2,
        ),
        # Parameters (3720) outnumber samples (512): the stencil batch sets
        # step time and peak memory, the minsr update is nearly idle and
        # svdengine is never called. The short burn-in pays for a third run,
        # so first_step_s is a median of three.
        Workload(
            name="be-p-minsr",
            preset="be",
            sections={
                "wavefunction": {"ell_max": "1"},
                "sampler": {"walkers": "512", "burn_in": "50"},
                "optimizer": {"name": "minsr"},
                "run": {"steps": "5", "checkpoint_every": "1"},
            },
            runs=3,
            predictions=(
                Prediction(
                    "wavefunction log_abs_batch under the stencil is the largest share of a step",
                    "step", ("wavefunction.log_abs_batch.stencil",), "largest"),
            ),
        ),
    )
}
