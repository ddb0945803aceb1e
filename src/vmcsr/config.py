"""INI run configuration: schema, parsing, and domain-object builders.

Every key lives in the schema table below with its default and help
text, which is also what the command line prints under --help. The
update-rule sections ([sr], [minsr], [spring], [wssr]) are the fields
of the options classes in optimizers.py, which own their defaults and
range checks; the schema reads those defaults from them. Unknown
sections or keys fail fast with ConfigError, as do values outside their
documented ranges, so a run never starts on a half-understood config.
"""

import configparser
import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .optimizers import (
    SR_REG_MODES,
    SVD_BACKENDS,
    LearningRateSchedule,
    MinsrOptions,
    SpringOptions,
    SrOptions,
    WssrOptions,
)
from .sampler import DEFAULT_BURN_IN, DEFAULT_PROPOSAL_STD, DEFAULT_THINNING, DEFAULT_WALKERS
from .system import MolecularSystem, preset_names, preset_system
from .wavefunction import (
    DEFAULT_FD_STEP,
    AceWavefunction,
    OneBodyBasisSpec,
    SlaterOrbital,
    default_basis,
    initial_theta,
)

OPTIMIZER_NAMES = ("sgd", "sr", "minsr", "spring", "wssr", "rssr")

# The sections that configure one update rule, each parsed into its
# options class; the keys are the class's fields.
OPTION_SECTIONS = {
    "sr": SrOptions,
    "minsr": MinsrOptions,
    "spring": SpringOptions,
    "wssr": WssrOptions,
}
_DEFAULT_SCHEDULE = LearningRateSchedule()


def _shown(value):
    """A default as the schema writes it: 'false', '1e-6', '1000'."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(value, "g").replace("e-0", "e-")
    return str(value)


def _option_keys(section, docs):
    """Schema rows of an option section: its fields with their defaults."""
    return {
        f.name: (_shown(f.default), docs[f.name])
        for f in dataclasses.fields(OPTION_SECTIONS[section])
    }


# section -> key -> (default string, help text). "" means optional/unset.
CONFIG_SCHEMA = {
    "system": {
        "preset": ("", "built-in system name (run the presets subcommand for the list)"),
        "charges": ("", "explicit route: nuclear charges, e.g. '1, 1'"),
        "positions": ("", "explicit route: 'x y z' per nucleus in Bohr, ';'-separated"),
        "n_up": ("", "explicit route: spin-up electron count"),
        "n_down": ("", "explicit route: spin-down electron count"),
    },
    "wavefunction": {
        "correlation_order": ("2", "pooled-feature tuple order (1 = bare orbitals)"),
        "degree_cap": ("", "optional cap on a feature tuple's summed polynomial degree"),
        "jastrow": ("true", "multiply by the electron-electron cusp factor"),
        "init_noise": ("0.01", "Gaussian spread around the product-state start"),
        "fd_step": (_shown(DEFAULT_FD_STEP), "finite-difference step for kinetic derivatives"),
        "radial_powers": ("0, 1", "default basis: radial monomial powers"),
        "ell_max": ("1", "default basis: highest angular momentum (0 = s only)"),
        "basis": ("", "explicit rows 'center n ell m zeta spin', ';'-separated; replaces the default basis"),
    },
    "sampler": {
        "walkers": (_shown(DEFAULT_WALKERS), "parallel Metropolis walkers"),
        "burn_in": (_shown(DEFAULT_BURN_IN), "equilibration steps before the first batch"),
        "thinning": (_shown(DEFAULT_THINNING), "Metropolis steps between collected samples"),
        "proposal_std": (_shown(DEFAULT_PROPOSAL_STD), "initial Gaussian proposal spread (Bohr)"),
        "samples_per_step": ("", "batch size per optimizer step (empty = walker count)"),
    },
    "optimizer": {
        "name": ("wssr", "one of " + ", ".join(OPTIMIZER_NAMES)),
        "alpha": (_shown(_DEFAULT_SCHEDULE.alpha), "learning-rate numerator"),
        "beta": (_shown(_DEFAULT_SCHEDULE.beta), "learning-rate decay constant, in steps"),
        "clip_n_std": ("5", "local-energy clip width in population stds; 'inf' disables"),
    },
    "sr": _option_keys("sr", {
        "reg_mode": "one of " + ", ".join(SR_REG_MODES),
        "reg_eps": "regularization strength / pseudo-inverse cutoff",
    }),
    "minsr": _option_keys("minsr", {
        "tikhonov_eps": "shift on the sample-side Gram matrix (0 = pseudo-solve)",
    }),
    "spring": _option_keys("spring", {
        "mu": "momentum weight on the previous update",
        "tikhonov_eps": "shift on the regularized Gram matrix",
    }),
    "wssr": _option_keys("wssr", {
        "delta": "weight of the averaged history vs the fresh batch",
        "sigma_floor": "preconditioner floor outside the kept subspace",
        "sigma_floor_relative": "scale the floor by the top squared singular value",
        "r_reg": "relative squared-singular-value cutoff for the kept rank",
        "eps_grow": "rank budget growth factor when the cutoff binds",
        "rank_init": "initial rank budget",
        "ssi_max_iters": "subspace-iteration cap per step",
        "ssi_residual_tol": "relative residual for early subspace-iteration exit",
        "svd_backend": "one of " + ", ".join(SVD_BACKENDS) + " (rssr forces randomized)",
    }),
    "run": {
        "steps": ("2000", "optimizer steps"),
        "seed": ("0", "master seed for walkers, parameter init, and sketches"),
        "out_dir": ("vmc_out", "artifact directory (trace.csv, checkpoint.bin)"),
        "smooth_window": ("50", "trailing window for the reported smoothed energy"),
        "checkpoint_every": ("0", "periodic checkpoint interval in steps (0 = final only)"),
    },
}


@dataclass(frozen=True)
class SystemConfig:
    preset: str
    charges: tuple
    positions: np.ndarray
    n_up: int
    n_down: int


@dataclass(frozen=True)
class WavefunctionConfig:
    correlation_order: int
    degree_cap: int
    jastrow: bool
    init_noise: float
    fd_step: float
    radial_powers: tuple
    ell_max: int
    basis_rows: tuple


@dataclass(frozen=True)
class SamplerConfig:
    walkers: int
    burn_in: int
    thinning: int
    proposal_std: float
    samples_per_step: int


@dataclass(frozen=True)
class OptimizerConfig:
    name: str
    alpha: float
    beta: float
    clip_n_std: float
    sr: SrOptions
    minsr: MinsrOptions
    spring: SpringOptions
    wssr: WssrOptions


@dataclass(frozen=True)
class RunSettings:
    steps: int
    seed: int
    out_dir: str
    smooth_window: int
    checkpoint_every: int


@dataclass(frozen=True)
class RunConfig:
    system: SystemConfig
    wavefunction: WavefunctionConfig
    sampler: SamplerConfig
    optimizer: OptimizerConfig
    run: RunSettings


class _Section:
    """One schema-backed section: typed getters with range checks."""

    def __init__(self, name, values):
        self.name = name
        self.values = values

    def raw(self, key):
        return self.values.get(key, CONFIG_SCHEMA[self.name][key][0]).strip()

    def _fail(self, key, message):
        raise ConfigError(f"[{self.name}] {key}: {message}")

    def get_int(self, key, minimum=None):
        text = self.raw(key)
        try:
            value = int(text)
        except ValueError:
            self._fail(key, f"expected an integer, got {text!r}")
        if minimum is not None and value < minimum:
            self._fail(key, f"must be >= {minimum}, got {value}")
        return value

    def get_optional_int(self, key, minimum=None):
        if self.raw(key) == "":
            return None
        return self.get_int(key, minimum)

    def get_float(self, key, minimum=None, exclusive=False):
        text = self.raw(key)
        try:
            value = float(text)
        except ValueError:
            self._fail(key, f"expected a number, got {text!r}")
        # Written so that NaN fails the range check.
        if minimum is not None:
            if exclusive and not value > minimum:
                self._fail(key, f"must be > {minimum}, got {value}")
            if not exclusive and not value >= minimum:
                self._fail(key, f"must be >= {minimum}, got {value}")
        return value

    def get_bool(self, key):
        text = self.raw(key).lower()
        if text in ("true", "yes", "on", "1"):
            return True
        if text in ("false", "no", "off", "0"):
            return False
        self._fail(key, f"expected a boolean, got {self.raw(key)!r}")

    def build(self, cls):
        """cls from the keys this section sets; the other fields keep
        their defaults, and cls.__post_init__ checks every range."""
        read = {float: self.get_float, int: self.get_int, bool: self.get_bool, str: self.raw}
        given = {
            f.name: read[f.type](f.name)
            for f in dataclasses.fields(cls)
            if f.name in self.values
        }
        try:
            return cls(**given)
        except ValueError as exc:
            raise ConfigError(f"[{self.name}] {exc}") from exc


def _split_rows(text):
    return [row.strip() for row in text.replace("\n", ";").split(";") if row.strip()]


def _parse_system(section):
    preset = section.raw("preset")
    explicit_keys = ("charges", "positions", "n_up", "n_down")
    explicit_given = [k for k in explicit_keys if section.raw(k) != ""]
    if preset and explicit_given:
        raise ConfigError(
            "[system] give either preset or the explicit route "
            f"({', '.join(explicit_keys)}), not both"
        )
    if preset:
        if preset not in preset_names():
            raise ConfigError(
                f"[system] preset: unknown system {preset!r}; "
                "valid presets: " + ", ".join(preset_names())
            )
        return SystemConfig(preset, (), None, 0, 0)
    missing = [k for k in explicit_keys if k not in explicit_given]
    if missing:
        raise ConfigError(
            "[system] needs a preset or all of the explicit keys; missing: "
            + ", ".join(missing)
        )
    try:
        charges = tuple(int(c) for c in section.raw("charges").replace(",", " ").split())
    except ValueError:
        raise ConfigError("[system] charges: expected integers") from None
    rows = _split_rows(section.raw("positions"))
    try:
        positions = np.array([[float(c) for c in row.split()] for row in rows])
    except ValueError:
        raise ConfigError("[system] positions: expected 'x y z' triples") from None
    if positions.ndim != 2 or positions.shape != (len(charges), 3):
        raise ConfigError(
            f"[system] positions: need one 'x y z' triple per charge "
            f"({len(charges)}), got shape {positions.shape}"
        )
    return SystemConfig(
        "", charges, positions, section.get_int("n_up", 0), section.get_int("n_down", 0)
    )


def _parse_basis_rows(section):
    text = section.raw("basis")
    if not text:
        return None
    rows = []
    for row in _split_rows(text):
        tokens = row.split()
        if len(tokens) != 6:
            section._fail("basis", f"row {row!r}: expected 'center n ell m zeta spin'")
        center, n, ell, m, zeta, spin = tokens
        try:
            rows.append(
                SlaterOrbital(int(center), int(n), int(ell), int(m), float(zeta), spin)
            )
        except ValueError as exc:
            section._fail("basis", f"row {row!r}: {exc}")
    return tuple(rows)


def _parse_wavefunction(section):
    powers_text = section.raw("radial_powers").replace(",", " ").split()
    try:
        radial_powers = tuple(int(p) for p in powers_text)
    except ValueError:
        section._fail("radial_powers", "expected integers")
    if not radial_powers or any(p < 0 for p in radial_powers):
        section._fail("radial_powers", "need at least one nonnegative power")
    return WavefunctionConfig(
        correlation_order=section.get_int("correlation_order", 1),
        degree_cap=section.get_optional_int("degree_cap", 1),
        jastrow=section.get_bool("jastrow"),
        init_noise=section.get_float("init_noise", 0.0),
        fd_step=section.get_float("fd_step", 0.0, exclusive=True),
        radial_powers=radial_powers,
        ell_max=section.get_int("ell_max", 0),
        basis_rows=_parse_basis_rows(section),
    )


def _parse_sampler(section):
    return SamplerConfig(
        walkers=section.get_int("walkers", 1),
        burn_in=section.get_int("burn_in", 0),
        thinning=section.get_int("thinning", 0),
        proposal_std=section.get_float("proposal_std", 0.0, exclusive=True),
        samples_per_step=section.get_optional_int("samples_per_step", 1),
    )


def _parse_optimizer(sections):
    opt = sections["optimizer"]
    name = opt.raw("name")
    if name not in OPTIMIZER_NAMES:
        raise ConfigError(
            f"unknown optimizer {name!r}; valid optimizers: " + ", ".join(OPTIMIZER_NAMES)
        )
    schedule = opt.build(LearningRateSchedule)
    return OptimizerConfig(
        name=name,
        alpha=schedule.alpha,
        beta=schedule.beta,
        clip_n_std=opt.get_float("clip_n_std", 0.0, exclusive=True),
        **{section: sections[section].build(cls) for section, cls in OPTION_SECTIONS.items()},
    )


def parse_config_text(text):
    """Parse INI text into a validated RunConfig."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from exc

    sections = {}
    for section_name in parser.sections():
        if section_name not in CONFIG_SCHEMA:
            raise ConfigError(
                f"unknown config section [{section_name}]; valid sections: "
                + ", ".join(CONFIG_SCHEMA)
            )
        known = CONFIG_SCHEMA[section_name]
        values = dict(parser.items(section_name))
        for key in values:
            if key not in known:
                raise ConfigError(
                    f"unknown key {key!r} in [{section_name}]; valid keys: "
                    + ", ".join(known)
                )
        sections[section_name] = _Section(section_name, values)
    for section_name in CONFIG_SCHEMA:
        sections.setdefault(section_name, _Section(section_name, {}))

    run = sections["run"]
    settings = RunSettings(
        steps=run.get_int("steps", 1),
        seed=run.get_int("seed", 0),
        out_dir=run.raw("out_dir"),
        smooth_window=run.get_int("smooth_window", 1),
        checkpoint_every=run.get_int("checkpoint_every", 0),
    )
    return RunConfig(
        system=_parse_system(sections["system"]),
        wavefunction=_parse_wavefunction(sections["wavefunction"]),
        sampler=_parse_sampler(sections["sampler"]),
        optimizer=_parse_optimizer(sections),
        run=settings,
    )


def parse_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text)


def apply_overrides(config, seed=None, steps=None, optimizer=None, out_dir=None):
    """Fold command-line overrides into a parsed config."""
    run = config.run
    if seed is not None:
        if seed < 0:
            raise ConfigError(f"seed must be >= 0, got {seed}")
        run = dataclasses.replace(run, seed=seed)
    if steps is not None:
        if steps < 1:
            raise ConfigError(f"steps must be >= 1, got {steps}")
        run = dataclasses.replace(run, steps=steps)
    if out_dir is not None:
        run = dataclasses.replace(run, out_dir=out_dir)
    opt = config.optimizer
    if optimizer is not None:
        if optimizer not in OPTIMIZER_NAMES:
            raise ConfigError(
                f"unknown optimizer {optimizer!r}; valid optimizers: "
                + ", ".join(OPTIMIZER_NAMES)
            )
        opt = dataclasses.replace(opt, name=optimizer)
    return dataclasses.replace(config, run=run, optimizer=opt)


def build_system(config):
    """SystemConfig -> MolecularSystem (preset or explicit nuclei)."""
    if config.preset:
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
    if config.basis_rows is not None:
        for orbital in config.basis_rows:
            if orbital.center >= len(system.nuclear_charges):
                raise ConfigError(
                    f"[wavefunction] basis: center {orbital.center} out of range "
                    f"for {len(system.nuclear_charges)} nuclei"
                )
        basis = OneBodyBasisSpec(orbitals=config.basis_rows)
    else:
        basis = default_basis(system, config.radial_powers, config.ell_max)
    try:
        wavefunction = AceWavefunction(
            system=system,
            basis=basis,
            correlation_order=config.correlation_order,
            degree_cap=config.degree_cap,
            jastrow_enabled=config.jastrow,
            fd_step=config.fd_step,
        )
    except ValueError as exc:
        raise ConfigError(f"[wavefunction] {exc}") from exc
    theta = initial_theta(
        system,
        basis,
        wavefunction.feature_index,
        noise_scale=config.init_noise,
        seed=seed,
    )
    wavefunction.set_theta(theta)
    return wavefunction


def render_key_help():
    """The full key table for --help: section, key, default, meaning."""
    lines = ["configuration keys (INI sections, defaults in brackets):"]
    for section_name, keys in CONFIG_SCHEMA.items():
        lines.append(f"  [{section_name}]")
        for key, (default, doc) in keys.items():
            shown = default if default != "" else "unset"
            lines.append(f"    {key} [{shown}]: {doc}")
    return "\n".join(lines)
