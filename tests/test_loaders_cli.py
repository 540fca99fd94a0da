"""JSON interfaces, CLI subcommands, report schema, determinism."""

import json
import math
from importlib import resources

import jsonschema
import numpy as np
import pytest

from ncorlicz import SpecError, StepForm, trace
from ncorlicz.cli import main
from ncorlicz.loaders import (
    load_algebra,
    load_element,
    load_morphism,
    load_mu,
    load_orlicz,
    load_weight,
)
from ncorlicz.verify import SuiteConfig, run_suite


def _schema():
    text = resources.files("ncorlicz").joinpath("schemas/report.schema.json").read_text()
    return json.loads(text)


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


ALGEBRA = {"blocks": [{"dim": 2, "weight": 1.0}]}
DIAG34 = {"blocks": [[[[3.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [4.0, 0.0]]]]}
POWER2 = {"kind": "power", "p": 2}


class TestLoaders:
    def test_orlicz_kinds(self):
        assert load_orlicz(POWER2)(3.0) == 9.0
        assert load_orlicz({"kind": "cosh_minus_one"})(0.0) == 0.0
        assert load_orlicz({"kind": "zero_then_linear", "a": 1.0}).a_phi == 1.0
        assert load_orlicz({"kind": "linear_until_cap", "b": 1.0}).b_phi == 1.0
        composed = load_orlicz({"kind": "compose", "psi": {"kind": "power", "p": 2},
                                "phi2": {"kind": "power", "p": 1}})
        assert composed(2.0) == pytest.approx(4.0)

    def test_orlicz_unknown_kind(self):
        with pytest.raises(SpecError):
            load_orlicz({"kind": "bogus"})

    def test_orlicz_missing_param(self):
        with pytest.raises(SpecError) as exc:
            load_orlicz({"kind": "power"})
        assert "orlicz" in str(exc.value)

    def test_algebra_and_element(self):
        alg = load_algebra(ALGEBRA)
        el = load_element(alg, DIAG34)
        assert trace(alg, el).real == pytest.approx(7.0)

    def test_element_block_count_mismatch(self):
        alg = load_algebra(ALGEBRA)
        with pytest.raises(SpecError):
            load_element(alg, {"blocks": []})

    def test_mu_step_and_catalog(self):
        step = load_mu({"durations": [1.0, 1.0], "values": [2.0, 1.0]})
        assert isinstance(step, StepForm)
        assert load_mu({"kind": "exp_decay"}).evaluate(0.0) == 1.0
        assert load_mu({"kind": "reciprocal"}).evaluate(0.5) == 2.0
        assert load_mu({"kind": "power_decay", "exponent": 0.5}).evaluate(0.25) == 2.0
        with pytest.raises(SpecError):
            load_mu({"kind": "nope"})

    def test_weight_must_have_finite_mass(self):
        with pytest.raises(Exception):
            load_weight({"kind": "constant", "level": 1.0})
        ctx = load_weight({"kind": "exp_decay"})
        assert ctx.mass == pytest.approx(1.0, abs=1e-9)

    def test_morphism_roundtrip(self):
        spec = {
            "source": {"blocks": [{"dim": 2, "weight": 1.0}]},
            "target": {"blocks": [{"dim": 2, "weight": 1.0},
                                  {"dim": 2, "weight": 1.0}]},
            "blocks": [
                {"assignments": [{"src": 0, "copies": 1}], "flavor": "homo",
                 "unitary": "identity", "pad": 0},
                {"assignments": [{"src": 0, "copies": 1}], "flavor": "anti"},
            ],
        }
        J = load_morphism(spec)
        a = J.source.diagonal([[1.0, 2.0]])
        img = J.apply(a)
        np.testing.assert_allclose(img.blocks[0], a.blocks[0])
        np.testing.assert_allclose(img.blocks[1], a.blocks[0].T)

    def test_morphism_zero_block_and_flavor_override(self):
        spec = {
            "source": {"blocks": [{"dim": 2, "weight": 1.0}]},
            "target": {"blocks": [{"dim": 4, "weight": 1.0},
                                  {"dim": 2, "weight": 1.0}]},
            "blocks": [
                {"assignments": [{"src": 0, "copies": 1},
                                 {"src": 0, "copies": 1, "flavor": "anti"}],
                 "flavor": "homo"},
                "zero",
            ],
        }
        J = load_morphism(spec)
        assert J.blocks[1] is None

    def test_morphism_bad_bookkeeping(self):
        spec = {
            "source": {"blocks": [{"dim": 2, "weight": 1.0}]},
            "target": {"blocks": [{"dim": 3, "weight": 1.0}]},
            "blocks": [{"assignments": [{"src": 0, "copies": 1}]}],
        }
        with pytest.raises(SpecError) as exc:
            load_morphism(spec)
        assert "blocks" in str(exc.value) or "bookkeeping" in str(exc.value)


class TestCli:
    def test_norm_command(self, tmp_path, capsys):
        rc = main(["norm",
                   "--algebra", _write(tmp_path, "a.json", ALGEBRA),
                   "--element", _write(tmp_path, "e.json", DIAG34),
                   "--orlicz", _write(tmp_path, "p.json", POWER2)])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["result"]["luxemburg"] == pytest.approx(5.0, rel=1e-8)
        assert rep["result"]["kunze"] == pytest.approx(5.0, rel=1e-8)
        assert rep["result"]["relations"]["kunze_matches_luxemburg"]
        jsonschema.validate(rep, _schema())

    def test_norm_sandwich_for_square_gauge(self, tmp_path, capsys):
        # for t^2 the Amemiya norm is exactly twice the Luxemburg norm, which
        # the bisection approaches from just below
        diag12 = {"blocks": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]]]}
        rc = main(["norm",
                   "--algebra", _write(tmp_path, "a.json", ALGEBRA),
                   "--element", _write(tmp_path, "e.json", diag12),
                   "--orlicz", _write(tmp_path, "p.json", POWER2)])
        assert rc == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["luxemburg"] == pytest.approx(math.sqrt(5.0), rel=1e-8)
        assert result["amemiya"] == pytest.approx(2.0 * math.sqrt(5.0), rel=1e-8)
        assert result["relations"] == {"kunze_matches_luxemburg": True, "sandwich": True}

    def test_each_input_read_once(self, tmp_path, capsys, monkeypatch):
        import ncorlicz.cli as cli
        reads = []
        real = cli.load_json_file
        monkeypatch.setattr(cli, "load_json_file", lambda p: reads.append(p) or real(p))
        paths = [_write(tmp_path, "a.json", ALGEBRA), _write(tmp_path, "e.json", DIAG34),
                 _write(tmp_path, "p.json", POWER2)]
        assert main(["norm", "--algebra", paths[0], "--element", paths[1],
                     "--orlicz", paths[2]]) == 0
        assert reads == paths

    def test_route_disagreement_is_data(self, tmp_path, capsys, monkeypatch):
        # a trace-modular route that disagrees with the rearrangement route
        # shows as a false relation, not as an error
        import ncorlicz.norms as norms
        real = norms._trace_calculus
        monkeypatch.setattr(norms, "_trace_calculus",
                            lambda alg, phi, svd, scales: real(alg, phi, svd, scales) * 2.0)
        rc = main(["norm",
                   "--algebra", _write(tmp_path, "a.json", ALGEBRA),
                   "--element", _write(tmp_path, "e.json", DIAG34),
                   "--orlicz", _write(tmp_path, "p.json", POWER2)])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["result"]["kunze"] == pytest.approx(5.0 * math.sqrt(2.0), rel=1e-8)
        assert rep["result"]["relations"]["kunze_matches_luxemburg"] is False
        jsonschema.validate(rep, _schema())

    def test_norm_zero_element(self, tmp_path, capsys):
        zero = {"blocks": [[[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]}
        rc = main(["norm",
                   "--algebra", _write(tmp_path, "a.json", ALGEBRA),
                   "--element", _write(tmp_path, "e.json", zero),
                   "--orlicz", _write(tmp_path, "p.json", POWER2)])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["result"]["luxemburg"] == 0.0
        assert rep["result"]["amemiya"] == 0.0

    def test_ps_check_outside_space_is_data(self, tmp_path, capsys):
        rc = main(["ps-check",
                   "--mu", _write(tmp_path, "m.json", {"kind": "reciprocal"}),
                   "--weight", _write(tmp_path, "w.json", {"kind": "exp_decay"})])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["result"] == {"member_via_laplace": False,
                                 "member_via_norm": False, "agree": True}
        jsonschema.validate(rep, _schema())

    def test_singular_csv(self, tmp_path):
        out = tmp_path / "sv.csv"
        rc = main(["singular",
                   "--algebra", _write(tmp_path, "a.json", ALGEBRA),
                   "--element", _write(tmp_path, "e.json", DIAG34),
                   "--format", "csv", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,mu_t"
        assert len(lines) > 2

    def test_singular_json_schema(self, tmp_path, capsys):
        rc = main(["singular",
                   "--algebra", _write(tmp_path, "a.json", ALGEBRA),
                   "--element", _write(tmp_path, "e.json", DIAG34)])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        jsonschema.validate(rep, _schema())
        assert rep["result"]["values"] == [4.0, 3.0]

    def test_dual_check(self, tmp_path, capsys):
        rc = main(["dual-check",
                   "--algebra", _write(tmp_path, "a.json", ALGEBRA),
                   "--element", _write(tmp_path, "f.json", DIAG34),
                   "--element2", _write(tmp_path, "g.json", DIAG34),
                   "--orlicz", _write(tmp_path, "p.json", POWER2),
                   "--samples", "5", "--seed", "0"])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["result"]["pass"] and rep["result"]["sampled_sup_ok"]
        jsonschema.validate(rep, _schema())

    def test_compose_command(self, tmp_path, capsys):
        morphism = {
            "source": {"blocks": [{"dim": 2, "weight": 1.0}]},
            "target": {"blocks": [{"dim": 2, "weight": 1.0},
                                  {"dim": 2, "weight": 1.0}]},
            "blocks": [
                {"assignments": [{"src": 0, "copies": 1}], "flavor": "homo"},
                {"assignments": [{"src": 0, "copies": 1}], "flavor": "anti"},
            ],
        }
        rc = main(["compose",
                   "--morphism", _write(tmp_path, "j.json", morphism),
                   "--psi", _write(tmp_path, "psi.json", {"kind": "power", "p": 1}),
                   "--phi2", _write(tmp_path, "phi2.json", POWER2),
                   "--samples", "6", "--seed", "1"])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["result"]["bound"] == pytest.approx(2.0)
        assert rep["result"]["max_observed_ratio"] == pytest.approx(
            0.9 * math.sqrt(2.0), rel=1e-5)
        assert rep["result"]["pass"]
        jsonschema.validate(rep, _schema())

    def test_compose_density_computed_once(self, tmp_path, capsys, monkeypatch):
        import ncorlicz.cli as cli
        import ncorlicz.morphisms as morphisms
        calls = []
        real = morphisms.radon_nikodym
        for ns in (morphisms, cli):  # every module the command could reach it from
            monkeypatch.setattr(ns, "radon_nikodym", lambda J: calls.append(J) or real(J),
                                raising=False)
        doubling = {
            "source": {"blocks": [{"dim": 2, "weight": 1.0}]},
            "target": {"blocks": [{"dim": 2, "weight": 1.0}, {"dim": 2, "weight": 1.0}]},
            "blocks": [{"assignments": [{"src": 0, "copies": 1}], "flavor": "homo"},
                       {"assignments": [{"src": 0, "copies": 1}], "flavor": "homo"}],
        }
        rc = main(["compose",
                   "--morphism", _write(tmp_path, "j.json", doubling),
                   "--psi", _write(tmp_path, "psi.json", {"kind": "power", "p": 1}),
                   "--phi2", _write(tmp_path, "phi2.json", POWER2),
                   "--samples", "3", "--seed", "1"])
        assert rc == 0
        assert len(calls) == 1
        rep = json.loads(capsys.readouterr().out)
        assert rep["result"]["density_spectrum"] == [2.0]

    def test_parser_reused_across_commands(self, tmp_path, capsys):
        import ncorlicz.cli as cli
        alg = _write(tmp_path, "a.json", ALGEBRA)
        element = _write(tmp_path, "e.json", DIAG34)
        assert main(["singular", "--algebra", alg, "--element", element]) == 0
        singular = json.loads(capsys.readouterr().out)
        assert main(["norm", "--algebra", alg, "--element", element,
                     "--orlicz", _write(tmp_path, "p.json", POWER2)]) == 0
        norm = json.loads(capsys.readouterr().out)
        assert singular["result"] == {"durations": [1.0, 1.0], "values": [4.0, 3.0]}
        assert norm["command"] == "norm"
        assert norm["result"]["luxemburg"] == pytest.approx(5.0, rel=1e-9)
        assert cli._parser() is cli._parser()

    def test_outside_space_result_is_data(self, tmp_path, capsys, monkeypatch):
        import ncorlicz.cli as cli
        from ncorlicz import UnboundedNormError

        def boom(*args, **kwargs):
            raise UnboundedNormError("no finite scaling")

        monkeypatch.setattr(cli, "luxemburg_norm", boom)
        rc = main(["norm",
                   "--algebra", _write(tmp_path, "a.json", ALGEBRA),
                   "--element", _write(tmp_path, "e.json", DIAG34),
                   "--orlicz", _write(tmp_path, "p.json", POWER2)])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["result"] == "outside-space"
        jsonschema.validate(rep, _schema())

    def test_malformed_input_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["norm", "--algebra", str(bad),
                   "--element", str(bad), "--orlicz", str(bad)])
        assert rc == 2
        assert "input error" in capsys.readouterr().err

    def test_env_seed_fallback(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("NCORLICZ_SEED", "42")
        rc = main(["dual-check",
                   "--algebra", _write(tmp_path, "a.json", ALGEBRA),
                   "--element", _write(tmp_path, "f.json", DIAG34),
                   "--element2", _write(tmp_path, "g.json", DIAG34),
                   "--orlicz", _write(tmp_path, "p.json", POWER2), "--samples", "2"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 42

    @pytest.mark.parametrize("command, flag", [
        ("norm", "--tol"), ("norm", "--seed"), ("norm", "--samples"),
        ("singular", "--tol"), ("singular", "--seed"), ("singular", "--samples"),
        ("ps-check", "--tol"), ("ps-check", "--seed"), ("ps-check", "--samples"),
        ("verify", "--samples"),
    ])
    def test_unread_flags_are_rejected(self, tmp_path, capsys, command, flag):
        inputs = {
            "norm": ["--algebra", _write(tmp_path, "a.json", ALGEBRA),
                     "--element", _write(tmp_path, "e.json", DIAG34),
                     "--orlicz", _write(tmp_path, "p.json", POWER2)],
            "singular": ["--algebra", _write(tmp_path, "a.json", ALGEBRA),
                         "--element", _write(tmp_path, "e.json", DIAG34)],
            "ps-check": ["--mu", _write(tmp_path, "m.json", {"kind": "exp_decay"}),
                         "--weight", _write(tmp_path, "w.json", {"kind": "exp_decay"})],
            "verify": ["--checks", "purity_detection", "--scale", "0.05"],
        }
        argv = [command, *inputs[command]]
        assert main(argv) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, "1e-3" if flag == "--tol" else "3"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["compose", "dual-check"])
    def test_negative_sample_counts_are_malformed(self, tmp_path, capsys, command):
        inputs = {
            "compose": ["--morphism", _write(tmp_path, "j.json", {
                "source": {"blocks": [{"dim": 2, "weight": 1.0}]},
                "target": {"blocks": [{"dim": 2, "weight": 1.0}]},
                "blocks": [{"assignments": [{"src": 0, "copies": 1}], "flavor": "homo"}]}),
                        "--psi", _write(tmp_path, "psi.json", {"kind": "power", "p": 1}),
                        "--phi2", _write(tmp_path, "phi2.json", POWER2)],
            "dual-check": ["--algebra", _write(tmp_path, "a.json", ALGEBRA),
                           "--element", _write(tmp_path, "f.json", DIAG34),
                           "--element2", _write(tmp_path, "g.json", DIAG34),
                           "--orlicz", _write(tmp_path, "p.json", POWER2)],
        }
        argv = [command, *inputs[command], "--seed", "1"]
        assert main(argv + ["--samples", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["pass"]
        for count in ("-3", "-1"):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--samples", count])
            assert exc.value.code == 2
            assert "--samples: expected an integer >= 0" in capsys.readouterr().err

    def test_tolerance_echo(self, tmp_path, capsys):
        alg, element = _write(tmp_path, "a.json", ALGEBRA), _write(tmp_path, "e.json", DIAG34)
        gauge = _write(tmp_path, "p.json", POWER2)
        assert main(["norm", "--algebra", alg, "--element", element, "--orlicz", gauge]) == 0
        norm = json.loads(capsys.readouterr().out)
        assert norm["effective_tolerances"] == {"bisect": 1e-9, "relations_rel": 1e-7}
        assert main(["dual-check", "--algebra", alg, "--element", element,
                     "--element2", element, "--orlicz", gauge, "--samples", "2",
                     "--tol", "1e-3"]) == 0
        dual = json.loads(capsys.readouterr().out)
        assert dual["effective_tolerances"] == {"bisect": 1e-9, "slack": 1e-3}
        # singular bisects nothing; ps-check runs the quadrature rule and its tail verdict
        assert main(["singular", "--algebra", alg, "--element", element]) == 0
        singular = json.loads(capsys.readouterr().out)
        assert singular["effective_tolerances"] == {}
        assert main(["ps-check", "--mu", _write(tmp_path, "m.json", {"kind": "log_reciprocal"}),
                     "--weight", _write(tmp_path, "w.json", {"kind": "exp_decay"})]) == 0
        ps = json.loads(capsys.readouterr().out)
        assert ps["effective_tolerances"] == {
            "quadrature_rel": 1e-8, "quadrature_depth": 700.0, "quadrature_delta": 0.05,
            "quadrature_rate": 0.2}
        for rep in (norm, dual, singular, ps):
            jsonschema.validate(rep, _schema())


class TestVerifySuite:
    def test_small_scale_runs_green(self, tmp_path, capsys):
        rc = main(["verify", "--scale", "0.05", "--seed", "0"])
        out = capsys.readouterr().out
        assert rc == 0
        rep = json.loads(out)
        assert rep["all_pass"]
        jsonschema.validate(rep, _schema())
        names = [c["name"] for c in rep["checks"]]
        assert names == sorted(names)

    def test_reports_byte_identical_modulo_timestamp(self, capsys):
        rc1 = main(["verify", "--scale", "0.05", "--seed", "3"])
        out1 = capsys.readouterr().out
        rc2 = main(["verify", "--scale", "0.05", "--seed", "3"])
        out2 = capsys.readouterr().out
        assert rc1 == rc2 == 0
        r1, r2 = json.loads(out1), json.loads(out2)
        r1.pop("timestamp"), r2.pop("timestamp")
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    def test_seed_sweep_same_pass_set(self):
        sets = []
        for seed in range(3):
            rep = run_suite(SuiteConfig(seed=seed, scale=0.05))
            sets.append({c["name"]: c["pass"] for c in rep["checks"]})
        assert sets[0] == sets[1] == sets[2]
        assert all(sets[0].values())

    def test_weakened_constant_is_caught(self):
        # dropping the 2n factor to n/2 must trip the moment-chain check
        rep = run_suite(SuiteConfig(seed=0, scale=0.1, moment_factor=0.5),
                        names=["moment_chain"])
        assert not rep["all_pass"]

    def test_verify_exits_one_on_falsified_claim(self, monkeypatch, capsys):
        from ncorlicz import verify as v

        def failing(cfg, rng):
            return v.CheckResult(name="zzz_forced_failure", claim="forced",
                                 samples=1, worst_slack=1.0, passed=False)

        monkeypatch.setitem(v.CHECKS, "zzz_forced_failure", failing)
        rc = main(["verify", "--checks", "zzz_forced_failure"])
        assert rc == 1
        rep = json.loads(capsys.readouterr().out)
        assert not rep["all_pass"]

    def test_unknown_check_rejected(self):
        with pytest.raises(KeyError):
            run_suite(SuiteConfig(seed=0), names=["nope"])
