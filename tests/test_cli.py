"""CLI smoke tests."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from repro.cli import build_parser, main, spec_from_args
from repro.runtime import RunSpec
from tests.conftest import run_specs

#: the commands that take the generated spec flags
SPEC_COMMANDS = ("run", "submit", "validate", "profile")
TA_QUICK = Path(__file__).resolve().parents[1] / "examples/specs/ta_quick.toml"
#: every RunSpec field with a flag (``thermostat`` is a nested table)
FLAG_FIELDS = [f for f in dataclasses.fields(RunSpec) if f.name != "thermostat"]


def resolve(*argv) -> RunSpec:
    """The spec a command line means, without running the command."""
    return spec_from_args(build_parser().parse_args([str(a) for a in argv]))


def flags_for(spec: RunSpec) -> list[str]:
    """The argv spelling of every set flag-field of ``spec``."""
    argv = []
    for f in FLAG_FIELDS:
        value = getattr(spec, f.name)
        flag = "--" + f.name.replace("_", "-")
        if value is None:
            continue
        if isinstance(value, bool):
            argv.append(flag if value else "--no-" + flag[2:])
        elif f.name == "topology":
            argv += [flag, f"{value[0]}x{value[1]}"]
        elif isinstance(value, tuple):
            argv += [flag, *map(str, value)]
        else:
            argv += [flag, repr(value) if isinstance(value, float) else value]
    return argv


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        spec = resolve("run")
        assert spec == RunSpec(engine="wse")
        assert (spec.element, spec.reps, spec.steps) == ("Ta", (8, 8, 3), 100)
        assert resolve("submit") == spec

    def test_validate_and_profile_defaults(self):
        assert resolve("validate") == RunSpec(
            reps=(4, 4, 2), steps=10, temperature=150.0)
        assert resolve("profile") == RunSpec()
        assert resolve("profile", "--quick") == RunSpec(
            reps=(5, 5, 2), steps=30, swap_interval=10)
        # a typed flag beats the --quick default it shadows
        assert resolve("profile", "--quick", "--steps", 6).steps == 6

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explode"])

    def test_submit_shares_workload_flags_with_run(self):
        """run and submit accept the same RunSpec-shaping flags."""
        argv = ["--element", "Cu", "--reps", "4", "4", "2",
                "--steps", "7", "--engine", "reference"]
        args = build_parser().parse_args(["submit", *argv, "--replicas", "3"])
        assert args.replicas == 3
        assert spec_from_args(args) == resolve("run", *argv) == RunSpec(
            element="Cu", reps=(4, 4, 2), steps=7)

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 7421
        assert args.slots == 2
        assert args.cache_dir is None

    def test_jobs_flags(self):
        args = build_parser().parse_args(["jobs", "--cancel", "j0001"])
        assert args.cancel == "j0001"


class TestSpecFlags:
    """One generated flag per RunSpec field, one resolution order."""

    @pytest.mark.parametrize("command", SPEC_COMMANDS)
    def test_flags_override_the_spec_file(self, command):
        in_file = RunSpec.from_file(TA_QUICK)
        spec = resolve(
            command, "--spec", TA_QUICK, "--seed", 7, "--temperature", 900,
            "--element", "Cu", "--reps", 3, 3, 2, "--engine", "reference",
            "--swap-interval", 5, "--no-force-symmetry",
        )
        assert spec == dataclasses.replace(
            in_file, seed=7, temperature=900.0, element="Cu", reps=(3, 3, 2),
            engine="reference", swap_interval=5, force_symmetry=False,
        )
        # ... and nothing else moved (steps 10, dt 2 fs are the file's)
        assert (spec.steps, spec.dt_fs) == (in_file.steps, in_file.dt_fs)

    @pytest.mark.parametrize("command", SPEC_COMMANDS)
    def test_no_flag_means_the_file(self, command):
        assert resolve(command, "--spec", TA_QUICK) == RunSpec.from_file(
            TA_QUICK)

    @pytest.mark.parametrize("command", SPEC_COMMANDS)
    def test_flag_conflicting_with_the_file_exits_2(
        self, command, tmp_path, capsys
    ):
        path = tmp_path / "grid.toml"
        path.write_text('backend = "parallel"\ntopology = "2x2"\n')
        assert resolve(command, "--spec", path).topology == (2, 2)
        assert main([command, "--spec", str(path), "--workers", "3"]) == 2
        err = capsys.readouterr().err
        assert "invalid run spec" in err and "conflicts with topology" in err

    @pytest.mark.parametrize("command", SPEC_COMMANDS)
    def test_every_field_is_a_flag_documented_by_its_metadata(self, command):
        sub = build_parser()._subparsers._group_actions[0].choices[command]
        actions = {a.dest: a for a in sub._actions}
        for f in FLAG_FIELDS:
            action = actions[f.name]
            assert "--" + f.name.replace("_", "-") in action.option_strings
            assert action.help == f.metadata["help"]
            assert action.default is None  # "not typed"
            # argparse and __post_init__ check the very same tuple
            assert action.choices is f.metadata.get("choices")
        assert "thermostat" not in actions  # nested: spec-file only
        for name in ("element", "engine", "transport"):
            assert actions[name].choices

    @settings(max_examples=100, deadline=None)
    @given(run_specs())
    def test_flags_round_trip_a_spec(self, spec):
        spec = dataclasses.replace(spec, thermostat=None)
        for command in ("run", "submit"):
            assert resolve(command, *flags_for(spec)) == spec

    def test_spec_help_no_longer_says_flags_are_ignored(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--help"])
        out = " ".join(capsys.readouterr().out.split())  # undo wrapping
        assert "ignored" not in out
        assert "A typed flag overrides --spec FILE" in out

    def test_seed_flag_changes_a_spec_file_run(self, capsys):
        # the defect this resolution order fixes: --seed used to be
        # dropped silently whenever --spec was given
        assert main(["run", "--spec", str(TA_QUICK)]) == 0
        seed0 = capsys.readouterr().out
        assert main(["run", "--spec", str(TA_QUICK), "--seed", "99"]) == 0
        assert capsys.readouterr().out != seed0


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "850,000 cores" in out
        assert "Ta" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "x" in out  # speedup columns

    def test_table5(self, capsys):
        assert main(["table5"]) == 0
        assert "Parallel" in capsys.readouterr().out

    def test_table6(self, capsys):
        assert main(["table6"]) == 0
        assert "lambda" in capsys.readouterr().out

    def test_fig1(self, capsys):
        assert main(["fig1"]) == 0
        assert "Frontier" in capsys.readouterr().out

    def test_run_wse(self, capsys):
        rc = main(["run", "--element", "Ta", "--reps", "4", "4", "2",
                   "--steps", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "timesteps/s" in out

    def test_run_reference(self, capsys):
        rc = main(["run", "--engine", "reference", "--reps", "4", "4", "2",
                   "--steps", "5"])
        assert rc == 0
        assert "energy drift" in capsys.readouterr().out

    def test_run_with_swaps_and_symmetry(self, capsys):
        rc = main(["run", "--reps", "4", "4", "2", "--steps", "6",
                   "--swap-interval", "3", "--force-symmetry"])
        assert rc == 0
        assert "swaps performed" in capsys.readouterr().out


class TestSpecRuns:
    """``repro run --spec`` / checkpointing / resume / exit codes."""

    def _write_spec(self, tmp_path, **overrides):
        spec = {"element": "Ta", "reps": [3, 3, 2], "temperature": 150.0,
                "engine": "wse", "steps": 4, "seed": 0}
        spec.update(overrides)
        lines = []
        for key, value in spec.items():
            if isinstance(value, str):
                lines.append(f'{key} = "{value}"')
            elif isinstance(value, list):
                lines.append(f"{key} = {value}")
            else:
                lines.append(f"{key} = {value}")
        path = tmp_path / "run.toml"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_run_from_spec_file(self, tmp_path, capsys):
        path = self._write_spec(tmp_path)
        assert main(["run", "--spec", str(path)]) == 0
        assert "timesteps/s" in capsys.readouterr().out

    def test_run_spec_steps_override(self, tmp_path, capsys):
        path = self._write_spec(tmp_path, engine="reference")
        assert main(["run", "--spec", str(path), "--steps", "2"]) == 0
        assert "after 2 steps" in capsys.readouterr().out

    def test_bad_spec_file_exit_code_2(self, tmp_path, capsys):
        path = tmp_path / "bad.toml"
        path.write_text('element = "Unobtanium"\n')
        assert main(["run", "--spec", str(path)]) == 2
        assert "invalid run spec" in capsys.readouterr().err

    def test_missing_spec_file_exit_code_2(self, tmp_path):
        assert main(["run", "--spec", str(tmp_path / "nope.toml")]) == 2

    def test_workers_on_the_wse_engine_exit_code_2(self, capsys):
        assert main(["run", "--engine", "wse", "--workers", "2",
                     "--reps", "4", "4", "2", "--steps", "1"]) == 2
        err = capsys.readouterr().err
        assert "invalid run spec" in err
        assert "offset-dispatch pool was removed" in err

    def test_nan_mid_run_exit_code_1(self, tmp_path, capsys, monkeypatch):
        # a position going non-finite on a neighbor-list *reuse* step
        # is a failed run with a one-line diagnostic, not a quiet one
        from repro.md.integrators import LeapfrogVerlet

        plain_step = LeapfrogVerlet.step
        calls = []

        def poisoned_step(self, state, forces):
            plain_step(self, state, forces)
            calls.append(1)
            if len(calls) == 3:
                state.positions[2, 1] = float("nan")

        monkeypatch.setattr(LeapfrogVerlet, "step", poisoned_step)
        path = self._write_spec(tmp_path, engine="reference", steps=8)
        assert main(["run", "--spec", str(path)]) == 1
        err = capsys.readouterr().err
        assert "run failed" in err and "non-finite" in err
        assert len(err.strip().splitlines()) == 1

    def test_nan_on_the_wafer_exit_code_1(self, tmp_path, capsys, monkeypatch):
        from repro.core.wse_md import WseMd

        plain_integrate = WseMd._integrate
        calls = []

        def poisoned_integrate(self, force):
            calls.append(1)
            if len(calls) == 3:
                force[tuple(np.argwhere(self.occ)[2])] = float("nan")
            plain_integrate(self, force)

        monkeypatch.setattr(WseMd, "_integrate", poisoned_integrate)
        path = self._write_spec(tmp_path, engine="wse", steps=8)
        assert main(["run", "--spec", str(path)]) == 1
        err = capsys.readouterr().err
        assert "run failed" in err and "non-finite" in err
        assert "step 3" in err
        assert len(err.strip().splitlines()) == 1

    def test_checkpoint_and_resume(self, tmp_path, capsys):
        path = self._write_spec(tmp_path, engine="reference", steps=3)
        prefix = tmp_path / "ckpt"
        assert main(["run", "--spec", str(path),
                     "--checkpoint", str(prefix)]) == 0
        assert "checkpoint written" in capsys.readouterr().out
        assert (tmp_path / "ckpt.npz").exists()
        rc = main(["run", "--spec", str(path), "--steps", "6",
                   "--resume", str(prefix)])
        assert rc == 0
        assert "after 3 steps" in capsys.readouterr().out  # 6 total - 3 done

    def test_resume_missing_checkpoint_exit_code_2(self, tmp_path, capsys):
        """An unusable --resume prefix is bad input (2), not a run
        failure (1): nothing was computed."""
        path = self._write_spec(tmp_path)
        rc = main(["run", "--spec", str(path),
                   "--resume", str(tmp_path / "nothing")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "cannot resume" in err
        assert len(err.strip().splitlines()) == 1  # one-line diagnostic

    def test_resume_corrupt_checkpoint_exit_code_2(self, tmp_path, capsys):
        path = self._write_spec(tmp_path, engine="reference", steps=2)
        prefix = tmp_path / "ckpt"
        assert main(["run", "--spec", str(path),
                     "--checkpoint", str(prefix)]) == 0
        capsys.readouterr()
        (tmp_path / "ckpt.json").write_text("{torn")
        rc = main(["run", "--spec", str(path), "--steps", "4",
                   "--resume", str(prefix)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "cannot resume" in err
        assert len(err.strip().splitlines()) == 1

    def test_resume_wrong_physics_exit_code_2(self, tmp_path, capsys):
        path = self._write_spec(tmp_path, engine="reference", steps=2)
        prefix = tmp_path / "ckpt"
        assert main(["run", "--spec", str(path),
                     "--checkpoint", str(prefix)]) == 0
        capsys.readouterr()
        other = self._write_spec(tmp_path, engine="reference", steps=2,
                                 seed=9)
        rc = main(["run", "--spec", str(other), "--resume", str(prefix)])
        assert rc == 2
        assert "different physics" in capsys.readouterr().err


class TestProfile:
    def test_profile_both_engines_writes_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        rc = main(["profile", "--quick", "--reps", "4", "4", "2",
                   "--steps", "6", "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "reference engine" in text
        assert "wse engine" in text
        assert "fitted step model" in text
        from repro.obs.sinks import read_trace

        records = read_trace(out)
        assert {r.get("engine") for r in records} == {"reference", "wse"}

    def test_profile_check_mode_passes(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        rc = main(["profile", "--quick", "--out", str(out), "--check"])
        assert rc == 0
        assert "profile checks passed" in capsys.readouterr().out

    def test_profile_single_engine(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        rc = main(["profile", "--quick", "--reps", "4", "4", "2",
                   "--steps", "4", "--engines", "reference",
                   "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "wse engine" not in text
        # one first build: raw stencil pairs -> coarse cut -> exact kernel
        assert "rebuild funnel: rebuilds 1, raw_candidates " in text
        assert ", coarse_kept " in text and ", exact_kept " in text
        assert "minor page faults/step: " in text

    def test_profile_from_spec_file(self, tmp_path, capsys):
        path = tmp_path / "p.toml"
        path.write_text(
            'element = "Ta"\nreps = [4, 4, 2]\ntemperature = 150.0\n'
            "steps = 4\n"
        )
        out = tmp_path / "trace.jsonl"
        assert main(["profile", "--spec", str(path),
                     "--out", str(out)]) == 0
        assert out.exists()

    def test_profile_bad_spec_exit_code_2(self, tmp_path):
        path = tmp_path / "p.toml"
        path.write_text('engine = "gpu"\n')
        assert main(["profile", "--spec", str(path),
                     "--out", str(tmp_path / "t.jsonl")]) == 2


class TestValidate:
    def test_validate_defaults(self, capsys):
        rc = main(["validate", "--reps", "3", "3", "2", "--steps", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "position deviation" in out

    def test_validate_from_spec(self, tmp_path, capsys):
        path = tmp_path / "v.toml"
        path.write_text(
            'element = "Ta"\nreps = [3, 3, 2]\ntemperature = 150.0\n'
            "steps = 4\n"
        )
        assert main(["validate", "--spec", str(path)]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_validate_impossible_tolerance_fails(self, capsys):
        rc = main(["validate", "--reps", "3", "3", "2", "--steps", "4",
                   "--tol-pos", "0"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_validate_bad_spec_exit_code_2(self, tmp_path):
        path = tmp_path / "v.toml"
        path.write_text('engine = "gpu"\n')
        assert main(["validate", "--spec", str(path)]) == 2
