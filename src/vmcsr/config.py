"""INI run configuration: one frozen dataclass per section, parsing, builders.

Each INI section is a dataclass whose fields are the section's keys: a
field default is the only place that default is written, and the class's
__post_init__ is the only place its range is checked. The update-rule
sections ([sr], [minsr], [spring], [wssr]) are the options classes of
optimizers.py; the others are defined here. RunConfig holds one of each,
in --help order, and the parser, --help and the command-line overrides
all go through these classes. Unknown sections or keys fail fast with
ConfigError, as do values outside their documented ranges, so a run
never starts on a half-understood config. A default of None marks a key
as unset; an empty INI value leaves such a key unset.
"""

import configparser
import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .optimizers import (
    SR_REG_MODES,
    LearningRateSchedule,
    MinsrOptions,
    SpringOptions,
    SrOptions,
    WssrOptions,
    _require,
)
from .system import MolecularSystem, preset_names, preset_system
from .wavefunction import (
    AceWavefunction,
    OneBodyBasisSpec,
    SlaterOrbital,
    default_basis,
    initial_theta,
)

OPTIMIZER_NAMES = ("sgd", "sr", "minsr", "spring", "wssr", "rssr")
_EXPLICIT_KEYS = ("charges", "positions", "n_up", "n_down")


@dataclass(frozen=True)
class SystemConfig:
    """[system]: a preset name, or the explicit route (the other four keys)."""

    preset: str = None
    charges: tuple[int, ...] = None
    positions: np.ndarray = None
    n_up: int = None
    n_down: int = None

    def __post_init__(self):
        given = [k for k in _EXPLICIT_KEYS if getattr(self, k) is not None]
        if self.preset is not None:
            if given:
                raise ValueError(
                    "give either preset or the explicit route "
                    f"({', '.join(_EXPLICIT_KEYS)}), not both"
                )
            _require(self, "preset", self.preset in preset_names(),
                     "be one of the valid presets: " + ", ".join(preset_names()))
            return
        missing = [k for k in _EXPLICIT_KEYS if k not in given]
        if missing:
            raise ValueError(
                "needs a preset or all of the explicit keys; missing: " + ", ".join(missing)
            )
        if np.shape(self.positions) != (len(self.charges), 3):
            raise ValueError(
                f"positions: need one 'x y z' triple per charge "
                f"({len(self.charges)}), got shape {np.shape(self.positions)}"
            )
        _require(self, "n_up", self.n_up >= 0, "be >= 0")
        _require(self, "n_down", self.n_down >= 0, "be >= 0")


@dataclass(frozen=True)
class WavefunctionConfig:
    """[wavefunction]: the ansatz, its start and its basis."""

    correlation_order: int = 2
    jastrow: bool = True
    init_noise: float = 0.01
    radial_powers: tuple[int, ...] = (0, 1)
    ell_max: int = 1
    basis: tuple[SlaterOrbital, ...] = None

    def __post_init__(self):
        _require(self, "correlation_order", self.correlation_order >= 1, "be >= 1")
        _require(self, "init_noise", 0.0 <= self.init_noise < math.inf,
                 "be finite and >= 0")
        _require(self, "radial_powers",
                 self.radial_powers and min(self.radial_powers) >= 0,
                 "hold at least one nonnegative power")
        _require(self, "ell_max", 0 <= self.ell_max <= 1, "be 0 or 1")


@dataclass(frozen=True)
class SamplerConfig:
    """[sampler]: the Metropolis walker ensemble and its batches."""

    walkers: int = 2048
    burn_in: int = 1000
    thinning: int = 10
    proposal_std: float = 0.5
    samples_per_step: int = None

    def __post_init__(self):
        _require(self, "walkers", self.walkers >= 1, "be >= 1")
        _require(self, "burn_in", self.burn_in >= 0, "be >= 0")
        _require(self, "thinning", self.thinning >= 1, "be >= 1")
        _require(self, "proposal_std", 0.0 < self.proposal_std < math.inf,
                 "be finite and > 0")
        # a step centers its batch, which takes at least two samples
        _require(self, "samples_per_step",
                 self.samples_per_step is None or self.samples_per_step >= 2, "be >= 2")
        _require(self, "walkers", self.samples_per_step is not None or self.walkers >= 2,
                 "be >= 2 when samples_per_step is unset")


@dataclass(frozen=True)
class OptimizerConfig:
    """[optimizer]: the update rule, its learning rate and the energy clip."""

    name: str = "wssr"
    alpha: float = LearningRateSchedule.alpha
    beta: float = LearningRateSchedule.beta
    clip_n_std: float = 5.0

    def __post_init__(self):
        _require(self, "name", self.name in OPTIMIZER_NAMES,
                 "be one of the valid optimizers: " + ", ".join(OPTIMIZER_NAMES))
        self.schedule  # building it checks alpha and beta
        _require(self, "clip_n_std", self.clip_n_std > 0.0, "be > 0")

    @property
    def schedule(self):
        return LearningRateSchedule(alpha=self.alpha, beta=self.beta)


@dataclass(frozen=True)
class RunSettings:
    """[run]: length, seed, artifacts and reporting."""

    steps: int = 2000
    seed: int = 0
    out_dir: str = "vmc_out"
    smooth_window: int = 50
    checkpoint_every: int = 0

    def __post_init__(self):
        _require(self, "steps", self.steps >= 1, "be >= 1")
        _require(self, "seed", self.seed >= 0, "be >= 0")
        _require(self, "out_dir", self.out_dir != "", "be non-empty")
        _require(self, "smooth_window", self.smooth_window >= 1, "be >= 1")
        _require(self, "checkpoint_every", self.checkpoint_every >= 0, "be >= 0")


@dataclass(frozen=True)
class RunConfig:
    """A whole run: one field per INI section, in --help order."""

    system: SystemConfig
    wavefunction: WavefunctionConfig
    sampler: SamplerConfig
    optimizer: OptimizerConfig
    sr: SrOptions
    minsr: MinsrOptions
    spring: SpringOptions
    wssr: WssrOptions
    run: RunSettings


# section name -> its dataclass
SECTIONS = {f.name: f.type for f in dataclasses.fields(RunConfig)}

# section -> key -> help text; the defaults come from the field defaults.
KEY_HELP = {
    "system": {
        "preset": "built-in system name (run the presets subcommand for the list)",
        "charges": "explicit route: nuclear charges, e.g. '1, 1'",
        "positions": "explicit route: 'x y z' per nucleus in Bohr, ';'-separated",
        "n_up": "explicit route: spin-up electron count",
        "n_down": "explicit route: spin-down electron count",
    },
    "wavefunction": {
        "correlation_order": "pooled-feature tuple order (1 = bare orbitals)",
        "jastrow": "multiply by the electron-electron cusp factor",
        "init_noise": "Gaussian spread around the product-state start",
        "radial_powers": "default basis: radial monomial powers",
        "ell_max": "default basis: highest angular momentum (0 = s only, 1 = s and p)",
        "basis": "explicit rows 'center n ell m zeta spin', ';'-separated; "
                 "replaces the default basis",
    },
    "sampler": {
        "walkers": "parallel Metropolis walkers",
        "burn_in": "equilibration steps before the first batch",
        "thinning": "Metropolis steps between collected samples",
        "proposal_std": "initial Gaussian proposal spread (Bohr)",
        "samples_per_step": "batch size per optimizer step (empty = walker count)",
    },
    "optimizer": {
        "name": "one of " + ", ".join(OPTIMIZER_NAMES),
        "alpha": "learning-rate numerator",
        "beta": "learning-rate decay constant, in steps",
        "clip_n_std": "local-energy clip width in population stds; 'inf' disables",
    },
    "sr": {
        "reg_mode": "one of " + ", ".join(SR_REG_MODES),
        "reg_eps": "regularization strength / pseudo-inverse cutoff",
    },
    "minsr": {
        "tikhonov_eps": "shift on the sample-side Gram matrix (0 = pseudo-solve)",
    },
    "spring": {
        "mu": "momentum weight on the previous update",
        "tikhonov_eps": "shift on the regularized Gram matrix",
    },
    "wssr": {
        "delta": "weight of the averaged history vs the fresh batch",
        "sigma_floor": "preconditioner floor outside the kept subspace",
        "r_reg": "relative squared-singular-value cutoff for the kept rank",
        "eps_grow": "rank budget growth factor when the cutoff binds",
        "rank_init": "initial rank budget",
    },
    "run": {
        "steps": "optimizer steps",
        "seed": "master seed for walkers, parameter init, and sketches",
        "out_dir": "artifact directory (trace.csv, checkpoint.bin)",
        "smooth_window": "trailing window for the reported smoothed energy",
        "checkpoint_every": "periodic checkpoint interval in steps (0 = final only)",
    },
}


def _expecting(what, convert):
    """A parser that reports a failed convert(text) as 'expected <what>'."""

    def parse(text):
        try:
            return convert(text)
        except (ValueError, KeyError):
            raise ValueError(f"expected {what}, got {text!r}") from None

    return parse


_BOOLEANS = {"true": True, "yes": True, "on": True, "1": True,
             "false": False, "no": False, "off": False, "0": False}


def _split_rows(text):
    return [row.strip() for row in text.replace("\n", ";").split(";") if row.strip()]


def _basis_rows(text):
    rows = []
    for row in _split_rows(text):
        tokens = row.split()
        if len(tokens) != 6:
            raise ValueError(f"row {row!r}: expected 'center n ell m zeta spin'")
        center, n, ell, m, zeta, spin = tokens
        try:
            rows.append(SlaterOrbital(int(center), int(n), int(ell), int(m), float(zeta), spin))
        except ValueError as exc:
            raise ValueError(f"row {row!r}: {exc}") from None
    return tuple(rows)


# field type -> parser of one stripped INI value
_PARSERS = {
    int: _expecting("an integer", int),
    float: _expecting("a number", float),
    bool: _expecting("a boolean", lambda text: _BOOLEANS[text.lower()]),
    str: str,
    tuple[int, ...]: _expecting(
        "integers", lambda text: tuple(int(p) for p in text.replace(",", " ").split())),
    np.ndarray: _expecting("'x y z' triples", lambda text: np.array(
        [[float(c) for c in row.split()] for row in _split_rows(text)])),
    tuple[SlaterOrbital, ...]: _basis_rows,
}


def _checked(section, make, *args, **kwargs):
    """make(*args, **kwargs), reporting a failed range check as a ConfigError."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


def _build_section(section, values):
    """The section's dataclass from its INI keys; unset keys keep their defaults."""
    fields = {f.name: f for f in dataclasses.fields(SECTIONS[section])}
    given = {}
    for key, text in values.items():
        if key not in fields:
            raise ConfigError(
                f"unknown key {key!r} in [{section}]; valid keys: " + ", ".join(fields)
            )
        text = text.strip()
        if text == "" and fields[key].default is None:
            continue
        try:
            given[key] = _PARSERS[fields[key].type](text)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: {exc}") from None
    return _checked(section, SECTIONS[section], **given)


def parse_config_text(text):
    """Parse INI text into a validated RunConfig."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from exc
    for section in parser.sections():
        if section not in SECTIONS:
            raise ConfigError(
                f"unknown config section [{section}]; valid sections: " + ", ".join(SECTIONS)
            )
    return RunConfig(**{
        section: _build_section(
            section, dict(parser.items(section)) if parser.has_section(section) else {}
        )
        for section in SECTIONS
    })


def parse_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text)


def apply_overrides(config, seed=None, steps=None, optimizer=None, out_dir=None):
    """Fold command-line overrides into a parsed config; None keeps a value.

    The sections' own checks run again on the overridden values.
    """
    run = {k: v for k, v in dict(seed=seed, steps=steps, out_dir=out_dir).items()
           if v is not None}
    opt = {} if optimizer is None else {"name": optimizer}
    return dataclasses.replace(
        config,
        run=_checked("run", dataclasses.replace, config.run, **run),
        optimizer=_checked("optimizer", dataclasses.replace, config.optimizer, **opt),
    )


def build_system(config):
    """SystemConfig -> MolecularSystem (preset or explicit nuclei)."""
    if config.preset is not None:
        return preset_system(config.preset)
    try:
        return MolecularSystem(
            nuclear_charges=config.charges,
            nuclear_positions=config.positions,
            n_up=config.n_up,
            n_down=config.n_down,
        )
    except ValueError as exc:
        raise ConfigError(f"[system] {exc}") from exc


def build_wavefunction(config, system, seed):
    """WavefunctionConfig + system -> initialized AceWavefunction.

    The parameter start is the near-product state seeded by the run
    seed, so two runs with the same config land on the same theta.
    """
    if config.basis is not None:
        for orbital in config.basis:
            if orbital.center >= len(system.nuclear_charges):
                raise ConfigError(
                    f"[wavefunction] basis: center {orbital.center} out of range "
                    f"for {len(system.nuclear_charges)} nuclei"
                )
        basis = OneBodyBasisSpec(orbitals=config.basis)
    else:
        basis = default_basis(system, config.radial_powers, config.ell_max)
    try:
        wavefunction = AceWavefunction(
            system=system,
            basis=basis,
            correlation_order=config.correlation_order,
            jastrow_enabled=config.jastrow,
        )
    except ValueError as exc:
        raise ConfigError(f"[wavefunction] {exc}") from exc
    wavefunction.set_theta(initial_theta(
        system, basis, len(wavefunction.tails), noise_scale=config.init_noise, seed=seed
    ))
    return wavefunction


def _shown(default):
    """A field default as --help writes it: 'unset', 'false', '1e-6', '0, 1'."""
    if default is None:
        return "unset"
    if isinstance(default, bool):
        return str(default).lower()
    if isinstance(default, float):
        return format(default, "g").replace("e-0", "e-")
    if isinstance(default, tuple):
        return ", ".join(map(str, default))
    return str(default)


def render_key_help():
    """The full key table for --help: section, key, default, meaning."""
    lines = ["configuration keys (INI sections, defaults in brackets):"]
    for section, cls in SECTIONS.items():
        lines.append(f"  [{section}]")
        for f in dataclasses.fields(cls):
            lines.append(f"    {f.name} [{_shown(f.default)}]: {KEY_HELP[section][f.name]}")
    return "\n".join(lines)
