"""RunSpec parsing, validation, round-trips and the physics hash."""

import dataclasses
import json

import pytest
from hypothesis import given, settings

from repro.runtime import RunSpec, SpecError, ThermostatSpec
from repro.runtime.spec import PHYSICS_FIELDS, TRANSPORT_CHOICES
from tests.conftest import run_specs


class TestValidation:
    def test_defaults_are_valid(self):
        spec = RunSpec()
        assert spec.element == "Ta"
        assert spec.engine == "reference"

    def test_unknown_element(self):
        with pytest.raises(SpecError, match="unknown element"):
            RunSpec(element="Xx")

    def test_unknown_engine(self):
        with pytest.raises(SpecError, match="unknown engine"):
            RunSpec(engine="gpu")

    @pytest.mark.parametrize("reps", [(0, 1, 1), (2, 2), (1, 2, 3, 4)])
    def test_bad_reps(self, reps):
        with pytest.raises(SpecError, match="reps"):
            RunSpec(reps=reps)

    def test_reps_coerced_to_int_tuple(self):
        spec = RunSpec(reps=[4, 4, 2])
        assert spec.reps == (4, 4, 2)
        assert all(isinstance(r, int) for r in spec.reps)

    @pytest.mark.parametrize(
        "name, value, bound",
        [
            ("temperature", -1.0, ">= 0"),
            ("steps", -1, ">= 0"),
            ("dt_fs", 0.0, "> 0"),
            ("dt_fs", -2.0, "> 0"),
            ("skin", -0.1, ">= 0"),
            ("swap_interval", -5, ">= 0"),
            ("checkpoint_interval", -1, ">= 0"),
            ("workers", -2, ">= 0"),
            ("offset_chunk", -4, ">= 0"),
        ],
    )
    def test_out_of_range_scalars(self, name, value, bound):
        # the range checks are generated from the field metadata; the
        # message still names the field, the bound and the offender
        with pytest.raises(SpecError) as exc:
            RunSpec(**{name: value})
        assert str(exc.value) == f"{name} must be {bound}, got {value}"

    def test_unknown_transport_names_the_choices(self):
        with pytest.raises(SpecError, match="unknown transport 'pigeon'"):
            RunSpec(transport="pigeon")

    def test_transport_choices_are_the_movers_plus_auto(self):
        # spelled out in spec.py so parsing a spec never imports the
        # parallel tier; this is the pin that keeps the two together
        from repro.parallel.transport import TRANSPORTS

        assert set(TRANSPORT_CHOICES) == {"auto", *TRANSPORTS}

    def test_langevin_on_wse_rejected(self):
        ts = ThermostatSpec(kind="langevin", temperature=290.0)
        with pytest.raises(SpecError, match="langevin"):
            RunSpec(engine="wse", thermostat=ts)

    def test_workers_on_wse_rejected_with_the_reason(self):
        # the offset-dispatch pool is gone; the message says why
        with pytest.raises(SpecError, match="did not beat the serial"):
            RunSpec(engine="wse", workers=2)
        assert RunSpec(engine="wse", workers=0).workers == 0
        assert RunSpec(engine="reference", workers=2).workers == 2

    def test_langevin_on_reference_ok(self):
        ts = ThermostatSpec(kind="langevin", temperature=290.0)
        spec = RunSpec(engine="reference", thermostat=ts)
        assert spec.thermostat.kind == "langevin"

    def test_berendsen_on_wse_ok(self):
        ts = ThermostatSpec(kind="berendsen", temperature=150.0)
        assert RunSpec(engine="wse", thermostat=ts).thermostat is ts

    def test_thermostat_dict_promoted(self):
        spec = RunSpec(thermostat={"kind": "berendsen", "temperature": 300.0})
        assert isinstance(spec.thermostat, ThermostatSpec)
        assert spec.thermostat.tau_fs == 100.0

    def test_bad_thermostat_kind(self):
        with pytest.raises(SpecError, match="thermostat kind"):
            ThermostatSpec(kind="nose-hoover", temperature=300.0)


class TestSerialization:
    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(SpecError, match="unknown spec keys"):
            RunSpec.from_dict({"element": "Ta", "temprature": 290.0})

    def test_dict_round_trip(self):
        spec = RunSpec(
            element="W",
            reps=(4, 4, 2),
            engine="wse",
            steps=25,
            seed=7,
            swap_interval=10,
            force_symmetry=True,
            thermostat=ThermostatSpec("berendsen", 200.0, tau_fs=50.0),
        )
        assert RunSpec.from_dict(spec.to_dict()) == spec

    @settings(max_examples=200, deadline=None)
    @given(run_specs())
    def test_dict_round_trip_over_every_field(self, spec):
        data = spec.to_dict()
        assert RunSpec.from_dict(data) == spec
        assert RunSpec.from_dict(json.loads(json.dumps(data))) == spec
        assert None not in data.values()  # TOML has no null

    def test_to_dict_coerces_to_the_declared_scalar_type(self):
        import numpy as np

        data = RunSpec(temperature=300, steps=np.int64(7)).to_dict()
        assert type(data["temperature"]) is float
        assert type(data["steps"]) is int

    def test_removed_fuse_integrate_is_an_unknown_key(self):
        # the knob is gone; an old spec file or served request that
        # still carries it is rejected like any other typo
        with pytest.raises(SpecError, match="unknown spec keys.*fuse_integrate"):
            RunSpec.from_dict({"element": "Ta", "fuse_integrate": True})

    def test_to_dict_is_json_safe(self):
        spec = RunSpec(thermostat={"kind": "langevin", "temperature": 290.0})
        json.dumps(spec.to_dict())  # must not raise

    def test_from_toml_file(self, tmp_path):
        path = tmp_path / "run.toml"
        path.write_text(
            'element = "Cu"\nreps = [3, 3, 2]\nengine = "wse"\n'
            "steps = 5\nseed = 3\n"
        )
        spec = RunSpec.from_file(path)
        assert (spec.element, spec.reps, spec.seed) == ("Cu", (3, 3, 2), 3)

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"element": "W", "steps": 8}))
        spec = RunSpec.from_file(path)
        assert (spec.element, spec.steps) == ("W", 8)

    @pytest.mark.parametrize(
        "name, body",
        [
            ("bad.toml", "element = ["),
            ("bad.json", "{not json"),
            ("bad.yaml", "element: Ta"),
        ],
    )
    def test_malformed_files_raise_spec_error(self, tmp_path, name, body):
        path = tmp_path / name
        path.write_text(body)
        with pytest.raises(SpecError):
            RunSpec.from_file(path)

    def test_missing_file_raises_spec_error(self, tmp_path):
        with pytest.raises(SpecError, match="cannot read"):
            RunSpec.from_file(tmp_path / "nope.toml")


class TestSpecHash:
    #: recorded at the commit before the fields grew metadata; a
    #: checkpoint or a serve-cache entry written then must still match
    PINNED = {
        "927bd71db5de8d38": RunSpec(),
        "6205cb5363226738": RunSpec(element="Cu", engine="wse",
                                    swap_interval=7, force_symmetry=True),
        "98b7401e20179bbe": RunSpec(
            thermostat=ThermostatSpec("berendsen", 300.0, 50.0)),
        "d2fd01f22c2d6076": RunSpec(skin=0.0, dt_fs=1.0),
    }

    @pytest.mark.parametrize("digest", sorted(PINNED))
    def test_pinned_hashes(self, digest):
        assert self.PINNED[digest].spec_hash() == digest

    def test_physics_fields_are_the_flagged_fields(self):
        assert set(PHYSICS_FIELDS) == {
            "element", "reps", "temperature", "engine", "dt_fs", "skin",
            "seed", "thermostat", "swap_interval", "force_symmetry",
        }
        for f in dataclasses.fields(RunSpec):
            assert f.metadata["help"], f.name

    def test_physics_change_changes_hash(self):
        base = RunSpec()
        assert base.spec_hash() != RunSpec(seed=1).spec_hash()
        assert base.spec_hash() != RunSpec(temperature=100.0).spec_hash()
        assert base.spec_hash() != base.with_engine("wse").spec_hash()

    def test_non_physics_fields_do_not_change_hash(self):
        base = RunSpec(steps=10)
        longer = dataclasses.replace(
            base, steps=1000, backend="numpy", checkpoint_interval=5
        )
        assert base.spec_hash() == longer.spec_hash()

    def test_hash_stable_across_round_trip(self):
        spec = RunSpec(
            engine="wse",
            thermostat={"kind": "berendsen", "temperature": 250.0},
        )
        assert RunSpec.from_dict(spec.to_dict()).spec_hash() == spec.spec_hash()
