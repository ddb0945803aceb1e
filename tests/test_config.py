import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from vmcsr.config import (
    OPTIMIZER_NAMES,
    SECTIONS,
    build_system,
    build_wavefunction,
    parse_config,
    parse_config_text,
    render_key_help,
)
from vmcsr.errors import ConfigError
from vmcsr.system import preset_system
from vmcsr.wavefunction import SlaterOrbital, initial_theta

MINIMAL = "[system]\npreset = he\n"
EXPLICIT_H = {"charges": "1", "positions": "0 0 0", "n_up": "1", "n_down": "0"}


def ini(section, key, value):
    """Config text that is valid apart from [section] key = value.

    A [system] key that is set takes its own route (preset, or the
    explicit keys); an empty one leaves the other route to define the
    system.
    """
    if section != "system":
        return f"{MINIMAL}[{section}]\n{key} = {value}\n"
    own, other = ({}, EXPLICIT_H) if key == "preset" else (EXPLICIT_H, {"preset": "h"})
    keys = {**(own if value else other), key: value}
    return "[system]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())


def help_default(section, key):
    """The default that --help shows for a key, as an INI value."""
    lines = render_key_help().splitlines()
    start = lines.index(f"  [{section}]")
    line = next(row for row in lines[start:] if row.startswith(f"    {key} ["))
    shown = line[len(f"    {key} ["):line.index("]: ")]
    return "" if shown == "unset" else shown


# Per key of every section: a NaN, a value of the wrong type, the nearest
# value outside the key's range (a near-miss name for a choice), and inf
# where the value must be finite. out_dir, a free path, is bad only when
# empty. The charges and positions ranges (charges >= 1, finite
# positions) are the system's own and fail at build_system.
BAD_OPTION_VALUES = {
    ("system", "preset"): ("nan", "3", "hee"),
    ("system", "charges"): ("nan", "1.5", "1, one"),
    ("system", "positions"): ("nan", "0 0 zero", "0 0"),
    ("system", "n_up"): ("nan", "1.5", "-1"),
    ("system", "n_down"): ("nan", "1.5", "-1"),
    ("wavefunction", "correlation_order"): ("nan", "2.5", "0"),
    ("wavefunction", "jastrow"): ("nan", "0.5", "2"),
    ("wavefunction", "init_noise"): ("nan", "some", "-5e-324", "inf"),
    ("wavefunction", "radial_powers"): ("nan", "0.5", "-1", ""),
    ("wavefunction", "ell_max"): ("nan", "1.5", "-1", "2"),
    ("wavefunction", "basis"): ("nan", "0 0 0 0 1.0", "0 0 2 0 1.0 up", "0 0 0 0 inf up"),
    ("sampler", "walkers"): ("nan", "2.5", "0", "1"),
    ("sampler", "burn_in"): ("nan", "2.5", "-1"),
    ("sampler", "thinning"): ("nan", "2.5", "-1", "0"),
    ("sampler", "proposal_std"): ("nan", "wide", "0", "inf"),
    ("sampler", "samples_per_step"): ("nan", "2.5", "0", "1"),
    ("optimizer", "name"): ("nan", "3", "wssrr"),
    ("optimizer", "alpha"): ("nan", "fast", "0", "inf"),
    ("optimizer", "beta"): ("nan", "slow", "0"),
    ("optimizer", "clip_n_std"): ("nan", "wide", "0"),
    ("sr", "reg_mode"): ("nan", "0.5", "diagonal_shifts"),
    ("sr", "reg_eps"): ("nan", "small", "-5e-324", "inf"),
    ("minsr", "tikhonov_eps"): ("nan", "small", "-5e-324", "inf"),
    ("spring", "mu"): ("nan", "high", "1"),
    ("spring", "tikhonov_eps"): ("nan", "small", "-5e-324", "inf"),
    ("wssr", "delta"): ("nan", "most", "1"),
    ("wssr", "sigma_floor"): ("nan", "tiny", "0"),
    ("wssr", "r_reg"): ("nan", "tiny", "0", "1"),
    ("wssr", "eps_grow"): ("nan", "some", "-5e-324", "inf"),
    ("wssr", "rank_init"): ("nan", "2.5", "0"),
    ("run", "steps"): ("nan", "2.5", "0"),
    ("run", "seed"): ("nan", "2.5", "-1"),
    ("run", "out_dir"): ("",),
    ("run", "smooth_window"): ("nan", "2.5", "0"),
    ("run", "checkpoint_every"): ("nan", "2.5", "-1"),
}


class TestDefaultsSnapshot:
    def test_documented_defaults(self):
        cfg = parse_config_text(MINIMAL)
        assert cfg.sampler.walkers == 2048
        assert cfg.sampler.burn_in == 1000
        assert cfg.sampler.thinning == 10
        assert cfg.optimizer.clip_n_std == 5.0
        assert cfg.spring.mu == 0.99
        assert cfg.spring.tikhonov_eps == 0.001
        assert cfg.minsr.tikhonov_eps == 0.001
        assert cfg.optimizer.alpha == 0.015
        assert cfg.optimizer.beta == 1000.0
        assert cfg.optimizer.name == "wssr"
        assert cfg.wssr.delta == 0.95
        assert cfg.wssr.sigma_floor == 0.001
        assert cfg.wssr.rank_init == 400
        assert cfg.sr.reg_mode == "diagonal_shift"
        assert cfg.sr.reg_eps == 0.001
        assert cfg.run.steps == 2000
        assert cfg.run.seed == 0

    @pytest.mark.parametrize("section", sorted(SECTIONS))
    def test_help_shows_option_field_defaults(self, section):
        for f in dataclasses.fields(SECTIONS[section]):
            cfg = parse_config_text(ini(section, f.name, help_default(section, f.name)))
            assert getattr(getattr(cfg, section), f.name) == f.default

    def test_help_covers_every_key(self):
        # every field carries its own non-empty help text, and --help
        # lists it under the field's section, in field order
        lines = render_key_help().splitlines()
        assert [row for row in lines if row.startswith("  [")] == [f"  [{s}]" for s in SECTIONS]
        listed = [row for row in lines if row.startswith("    ")]
        fields = [f for cls in SECTIONS.values() for f in dataclasses.fields(cls)]
        assert len(listed) == len(fields)
        for row, f in zip(listed, fields):
            assert f.metadata["help"].strip(), f.name
            assert row.startswith(f"    {f.name} [")
            assert row.endswith(f"]: {f.metadata['help']}")


class TestRejection:
    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown config section"):
            parse_config_text(MINIMAL + "[turbo]\nspeed = 11\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key 'walker_count'"):
            parse_config_text(MINIMAL + "[sampler]\nwalker_count = 3\n")

    def test_bad_integer(self):
        with pytest.raises(ConfigError, match=r"\[sampler\] walkers"):
            parse_config_text(MINIMAL + "[sampler]\nwalkers = many\n")

    def test_bad_boolean(self):
        with pytest.raises(ConfigError, match="boolean"):
            parse_config_text(MINIMAL + "[wavefunction]\njastrow = maybe\n")

    def test_unknown_optimizer_names_the_valid_set(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text(MINIMAL + "[optimizer]\nname = adam\n")
        for name in OPTIMIZER_NAMES:
            assert name in str(err.value)

    def test_out_of_range_values(self):
        bad = [
            "[run]\nsteps = 0\n",
            "[wssr]\ndelta = 1.0\n",
            "[wssr]\nr_reg = 0\n",
            "[sampler]\nproposal_std = 0\n",
            "[spring]\nmu = 1.5\n",
            "[optimizer]\nalpha = -0.1\n",
        ]
        for snippet in bad:
            with pytest.raises(ConfigError):
                parse_config_text(MINIMAL + snippet)

    def test_batch_of_fewer_than_two_samples_is_refused(self):
        # a step centers its batch: walkers alone must give two samples,
        # and one walker is fine when samples_per_step asks for more rounds
        with pytest.raises(ConfigError, match=r"^\[sampler\] walkers: must be >= 2 when"):
            parse_config_text(MINIMAL + "[sampler]\nwalkers = 1\n")
        with pytest.raises(ConfigError, match=r"^\[sampler\] samples_per_step: must be >= 2"):
            parse_config_text(MINIMAL + "[sampler]\nwalkers = 8\nsamples_per_step = 1\n")
        cfg = parse_config_text(MINIMAL + "[sampler]\nwalkers = 1\nsamples_per_step = 2\n")
        assert (cfg.sampler.walkers, cfg.sampler.samples_per_step) == (1, 2)

    def test_bad_values_cover_every_option_key(self):
        keys = {(s, f.name) for s, cls in SECTIONS.items() for f in dataclasses.fields(cls)}
        assert set(BAD_OPTION_VALUES) == keys

    @pytest.mark.parametrize("section,key", sorted(BAD_OPTION_VALUES))
    def test_option_key_rejects_bad_values(self, section, key):
        for value in BAD_OPTION_VALUES[section, key]:
            with pytest.raises(ConfigError, match=rf"^\[{section}\] {key}: "):
                parse_config_text(ini(section, key, value))

    @pytest.mark.parametrize("section,key", [
        ("system", "preset"), ("system", "n_up"),
        ("wavefunction", "basis"), ("sampler", "samples_per_step"),
    ])
    def test_empty_value_unsets_a_key_whose_default_is_unset(self, section, key):
        cfg = parse_config_text(ini(section, key, ""))
        assert getattr(getattr(cfg, section), key) is None

    def test_empty_value_of_a_key_with_a_default_is_rejected(self):
        with pytest.raises(ConfigError, match=r"^\[sampler\] walkers: expected an integer"):
            parse_config_text(ini("sampler", "walkers", ""))

    def test_clip_accepts_inf(self):
        cfg = parse_config_text(MINIMAL + "[optimizer]\nclip_n_std = inf\n")
        assert cfg.optimizer.clip_n_std == float("inf")

    def test_syntax_error(self):
        with pytest.raises(ConfigError, match="syntax"):
            parse_config_text("no section header here\n")


class TestSystemRoutes:
    def test_preset_route(self):
        cfg = parse_config_text("[system]\npreset = lih\n")
        system = build_system(cfg.system)
        assert system.nuclear_charges == preset_system("lih").nuclear_charges

    def test_unknown_preset_names_valid_ones(self):
        with pytest.raises(ConfigError, match="valid presets"):
            parse_config_text("[system]\npreset = uranium\n")

    def test_explicit_route(self):
        cfg = parse_config_text(
            "[system]\n"
            "charges = 1, 1\n"
            "positions = 0 0 0; 0 0 1.4\n"
            "n_up = 1\n"
            "n_down = 1\n"
        )
        system = build_system(cfg.system)
        assert system.nuclear_charges == (1, 1)
        assert_array_equal(system.nuclear_positions[1], [0.0, 0.0, 1.4])
        assert system.n_electrons == 2

    def test_both_routes_rejected(self):
        with pytest.raises(ConfigError, match="not both"):
            parse_config_text(
                "[system]\npreset = h\ncharges = 1\npositions = 0 0 0\n"
                "n_up = 1\nn_down = 0\n"
            )

    def test_missing_explicit_keys(self):
        with pytest.raises(ConfigError, match="missing"):
            parse_config_text("[system]\ncharges = 1\n")

    def test_position_shape_mismatch(self):
        with pytest.raises(ConfigError, match="triple per charge"):
            parse_config_text(
                "[system]\ncharges = 1, 1\npositions = 0 0 0\nn_up = 1\nn_down = 1\n"
            )

    def test_invalid_explicit_system_fails_at_build(self):
        cfg = parse_config_text(
            "[system]\ncharges = 1\npositions = 0 0 0\nn_up = 0\nn_down = 0\n"
        )
        with pytest.raises(ConfigError, match="electron"):
            build_system(cfg.system)


class TestBasisRows:
    def test_rows_parse_to_orbitals(self):
        cfg = parse_config_text(
            MINIMAL + "[wavefunction]\nbasis = 0 0 0 0 2.0 up; 0 1 0 0 1.0 down\n"
        )
        assert cfg.wavefunction.basis == (
            SlaterOrbital(0, 0, 0, 0, 2.0, "up"),
            SlaterOrbital(0, 1, 0, 0, 1.0, "down"),
        )

    def test_malformed_row(self):
        with pytest.raises(ConfigError, match="center n ell m zeta spin"):
            parse_config_text(MINIMAL + "[wavefunction]\nbasis = 0 0 0 1.0 up\n")

    def test_bad_spin_label(self):
        with pytest.raises(ConfigError, match="spin"):
            parse_config_text(MINIMAL + "[wavefunction]\nbasis = 0 0 0 0 1.0 sideways\n")

    def test_center_out_of_range_fails_at_build(self):
        cfg = parse_config_text(
            "[system]\npreset = h\n[wavefunction]\nbasis = 3 0 0 0 1.0 either\n"
        )
        system = build_system(cfg.system)
        with pytest.raises(ConfigError,
                           match=r"^\[wavefunction\] basis: center 3 out of range for 1 nuclei$"):
            build_wavefunction(cfg.wavefunction, system, seed=0)

    def test_empty_basis_fails_at_build(self):
        cfg = parse_config_text("[system]\npreset = h\n[wavefunction]\nbasis = ;\n")
        system = build_system(cfg.system)
        with pytest.raises(ConfigError, match="at least one orbital"):
            build_wavefunction(cfg.wavefunction, system, seed=0)

    def test_negative_radial_power_rejected(self):
        with pytest.raises(ConfigError, match="radial_powers"):
            parse_config_text(MINIMAL + "[wavefunction]\nradial_powers = -1, 0\n")


class TestOverrides:
    """Command-line overrides are INI values read after the file's own."""

    def test_override_fields(self):
        cfg = parse_config_text(MINIMAL)
        out = parse_config_text(MINIMAL, {
            "run": {"seed": "9", "steps": "77", "out_dir": "/tmp/x"},
            "optimizer": {"name": "sgd"},
        })
        assert out.run.seed == 9
        assert out.run.steps == 77
        assert out.optimizer.name == "sgd"
        assert out.run.out_dir == "/tmp/x"
        # untouched fields survive
        assert out.sampler == cfg.sampler

    def test_none_means_keep(self):
        text = MINIMAL + "[run]\nseed = 5\n"
        cfg = parse_config_text(text)
        assert parse_config_text(text, {}) == cfg
        assert parse_config_text(text, {"run": {}}) == cfg

    def test_override_replaces_the_file_value_and_keeps_its_neighbours(self):
        text = MINIMAL + "[run]\nseed = 5\nsteps = 12\n"
        out = parse_config_text(text, {"run": {"seed": "7"}})
        assert (out.run.seed, out.run.steps) == (7, 12)

    def test_override_is_stripped_like_an_ini_value(self):
        out = parse_config_text(MINIMAL, {"run": {"seed": " 7 ", "out_dir": " out "}})
        assert (out.run.seed, out.run.out_dir) == (7, "out")

    def test_invalid_override_optimizer(self):
        with pytest.raises(ConfigError, match="valid optimizers"):
            parse_config_text(MINIMAL, {"optimizer": {"name": "newton"}})

    def test_invalid_override_steps(self):
        with pytest.raises(ConfigError, match="steps"):
            parse_config_text(MINIMAL, {"run": {"steps": "0"}})

    @pytest.mark.parametrize("override,key", [({"seed": "-1"}, "seed"), ({"out_dir": ""}, "out_dir")])
    def test_overrides_rerun_the_section_checks(self, override, key):
        with pytest.raises(ConfigError, match=rf"^\[run\] {key}: "):
            parse_config_text(MINIMAL, {"run": override})


class TestBuildWavefunction:
    def test_explicit_basis_sets_feature_count(self):
        cfg = parse_config_text(
            "[system]\npreset = h\n"
            "[wavefunction]\ncorrelation_order = 1\njastrow = false\n"
            "basis = 0 0 0 0 1.0 either\n"
        )
        system = build_system(cfg.system)
        wf = build_wavefunction(cfg.wavefunction, system, seed=0)
        assert wf.coefficients.shape == (1, 1, 1)
        assert wf.n_params == 1

    def test_seed_controls_theta(self):
        cfg = parse_config_text(MINIMAL + "[wavefunction]\nell_max = 0\n")
        system = build_system(cfg.system)
        wf_a = build_wavefunction(cfg.wavefunction, system, seed=4)
        wf_b = build_wavefunction(cfg.wavefunction, system, seed=4)
        wf_c = build_wavefunction(cfg.wavefunction, system, seed=5)
        assert_array_equal(wf_a.theta, wf_b.theta)
        assert not np.array_equal(wf_a.theta, wf_c.theta)

    def test_zero_noise_gives_product_state(self):
        cfg = parse_config_text(
            MINIMAL + "[wavefunction]\ninit_noise = 0\nell_max = 0\n"
        )
        system = build_system(cfg.system)
        wf = build_wavefunction(cfg.wavefunction, system, seed=11)
        expected = initial_theta(system, wf.basis, len(wf.tails), noise_scale=0.0, seed=11)
        assert_array_equal(wf.theta, expected)

    def test_seeded_start_is_noise_plus_unit_heads(self):
        """theta = init_noise * standard_normal(n_params) from the run seed,
        with 1 added at A[k, h_k, 0]: column k's head h_k is the first
        unused orbital its electron's spin admits, on the empty tail."""
        cfg = parse_config_text(MINIMAL + "[wavefunction]\ninit_noise = 0.03\nell_max = 0\n")
        system = build_system(cfg.system)
        wf = build_wavefunction(cfg.wavefunction, system, seed=9)
        n_orb, n_tails = len(wf.basis), len(wf.tails)
        assert (n_orb, n_tails) == (8, 9)
        expected = 0.03 * np.random.default_rng(9).standard_normal(2 * n_orb * n_tails)
        blocks = expected.reshape(2, n_orb, n_tails)
        # orbitals sort by (n, ell, m, spin, zeta): 0 is the first up, 2 the first down
        blocks[0, 0, 0] += 1.0
        blocks[1, 2, 0] += 1.0
        assert [o.spin for o in wf.basis.orbitals[:3]] == ["up", "up", "down"]
        assert_array_equal(wf.theta, expected)


class TestFileLoading:
    def test_parse_config_reads_file(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(MINIMAL + "[run]\nsteps = 12\n", encoding="utf-8")
        cfg = parse_config(path)
        assert cfg.run.steps == 12

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config file"):
            parse_config(tmp_path / "nope.ini")

    def test_roundtrip_is_a_plain_dataclass(self):
        cfg = parse_config_text(MINIMAL)
        again = dataclasses.replace(cfg)
        assert again == cfg
