"""Experiment runner and CLI: determinism, assertions, file I/O, exit codes."""

import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from seqmeas import ExperimentConfig, run_experiment
from seqmeas import experiments as experiments_module
from seqmeas import testers as testers_module
from seqmeas.cli import main as cli_main
from seqmeas.experiments import EXPERIMENT_NAMES, _EXPERIMENTS, _giso_overlap_identity_error
from seqmeas.gates import PermutationAction
from seqmeas.testers import MAX_VECTOR_DIM, FunctionTable


QUICK = {"trials": 50}


class TestRunExperiment:
    def test_unknown_experiment(self):
        with pytest.raises(ValueError):
            run_experiment(ExperimentConfig(name="nope"))

    def test_invalid_trials(self):
        with pytest.raises(ValueError):
            run_experiment(ExperimentConfig(name="antizeno", trials=0))

    def test_invalid_parameter_reports_field(self):
        with pytest.raises(ValueError, match="'n'"):
            run_experiment(ExperimentConfig(name="antizeno", trials=10, params={"n": 0}))
        with pytest.raises(ValueError, match="'eta'"):
            run_experiment(ExperimentConfig(name="demerlinize", trials=10, params={"eta": 2.0}))

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="'typo'"):
            run_experiment(ExperimentConfig(name="genuine-ent", trials=10, params={"typo": 5}))
        with pytest.raises(ValueError, match="'n'"):  # no parameters at all
            run_experiment(ExperimentConfig(name="gentle", trials=10, params={"n": 3}))

    @pytest.mark.parametrize(
        "name, key, value",
        [
            ("or-test", "delta", float("nan")),
            ("demerlinize", "eta", float("nan")),
            ("demerlinize", "zeta", float("inf")),
            ("antizeno", "n", float("inf")),
            ("antizeno", "n", float("nan")),
            ("antizeno", "n", 16.5),  # would silently run n = 16
        ],
    )
    def test_non_finite_or_fractional_parameter_rejected(self, name, key, value):
        with pytest.raises(ValueError, match=repr(key)):
            run_experiment(ExperimentConfig(name=name, trials=10, params={key: value}))

    @pytest.mark.parametrize(
        "name, key, value, kind",
        [
            ("antizeno", "n", True, "an integer"),  # was read as n = 1
            ("or-test", "n", False, "an integer"),
            ("uiso", "epsilon", True, "a number"),  # would run at 1.0 and write true
            ("demerlinize", "eta", True, "a number"),
        ],
    )
    def test_bool_parameter_rejected(self, name, key, value, kind):
        message = f"parameter {key!r} must be {kind}, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            run_experiment(ExperimentConfig(name=name, trials=10, params={key: value}))

    @pytest.mark.parametrize("name", EXPERIMENT_NAMES)
    def test_declared_parameters_are_read(self, name):
        """Every declared key reaches its runner: a non-numeric value is
        rejected with an error that names the key."""
        for key in _EXPERIMENTS[name][2]:
            with pytest.raises(ValueError, match=repr(key)):
                run_experiment(ExperimentConfig(name=name, seed=11, trials=1, params={key: "x"}))

    @pytest.mark.parametrize("name", EXPERIMENT_NAMES)
    def test_each_experiment_passes_quick(self, name):
        trials = 200 if name in ("mw-bounds", "gentle") else 50
        record = run_experiment(ExperimentConfig(name=name, seed=11, trials=trials))
        failed = [a["name"] for a in record.assertions if not a["passed"]]
        assert record.all_passed, f"{name} failed: {failed}"

    def test_document_is_byte_identical(self):
        cfg = ExperimentConfig(name="or-test", seed=123, trials=80)
        doc_a = run_experiment(cfg).to_document()
        doc_b = run_experiment(cfg).to_document()
        assert doc_a == doc_b

    def test_document_excludes_wall_clock(self):
        record = run_experiment(ExperimentConfig(name="gentle", seed=0, trials=100))
        body = json.loads(record.to_document())
        assert "wall_clock" not in json.dumps(body)
        assert record.wall_clock_seconds > 0

    # Observed sampled_* rates at default trials.  They pin the RNG draw
    # order: a change that moves any of them changes the draw order, and must
    # update this table and say so in CHANGES.md.
    SAMPLED_RATES = {
        "antizeno": (0.0325, 0.041),
        "or-test": (0.9785, 0.9875),
        "demerlinize": (0.9975, 0.998),
        "disturbance": (0.608, 0.5993333333333334),
        "membership": (0.9315, 0.9505),
        "giso": (0.965, 0.96),
        "uiso": (0.95, 0.95),
        "genuine-ent": (0.95, 0.965),
    }

    @pytest.mark.parametrize("name", sorted(SAMPLED_RATES))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_draw_order_pinned(self, name, seed):
        record = run_experiment(ExperimentConfig(name=name, seed=seed))
        observed = [a["observed"] for a in record.assertions if a["name"].startswith("sampled")]
        assert observed == [self.SAMPLED_RATES[name][seed]]
        assert record.all_passed

    def test_antizeno_without_reject_path_is_an_error(self):
        """At n = 1 the one measurement accepts |0> with certainty, so there
        is no all-reject final state to check."""
        with pytest.raises(ValueError, match="probability zero"):
            run_experiment(ExperimentConfig(name="antizeno", trials=10, params={"n": 1}))

    @pytest.mark.parametrize("seed", [1.5, -1, True, "3"])
    def test_bad_seed_rejected_before_running(self, seed, monkeypatch):
        """A fractional or boolean seed would run another seed's streams, and
        a negative one would fail only at the first stream."""

        def runner(config, rec, trials):
            raise AssertionError("runner called")

        monkeypatch.setitem(_EXPERIMENTS, "gentle", (runner, 10, ()))
        with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got {seed!r}"):
            run_experiment(ExperimentConfig(name="gentle", seed=seed))

    @pytest.mark.parametrize("trials", [True, 2.5, np.float64(3.0)], ids=repr)
    def test_non_integer_trials_rejected_before_running(self, trials, monkeypatch):
        """True ran one trial and wrote "trials": true into the document, and
        2.5 failed with a TypeError deep inside the run."""

        def runner(config, rec, trials):
            raise AssertionError("runner called")

        monkeypatch.setitem(_EXPERIMENTS, "or-test", (runner, 10, ()))
        with pytest.raises(ValueError, match=re.escape(f"trials must be an integer, got {trials!r}")):
            run_experiment(ExperimentConfig(name="or-test", trials=trials))

    def test_numpy_integer_seed_and_trials_run_as_ints(self):
        """np.int64(0) was refused as "must be ... an integer"; it runs as 0
        and the record holds Python ints."""
        record = run_experiment(ExperimentConfig(name="or-test", seed=np.int64(1), trials=np.int64(50)))
        assert type(record.seed) is int and type(record.trials) is int
        assert record.to_document() == run_experiment(ExperimentConfig(name="or-test", seed=1, trials=50)).to_document()

    @pytest.mark.parametrize(
        "name, key, value, kind",
        [
            ("or-test", "n", np.True_, "an integer"),  # ran at n = 1, then failed to serialise
            ("uiso", "epsilon", np.True_, "a number"),  # ran at epsilon = 1
            ("or-test", "n", "8", "an integer"),  # wrote "n": "8" into the document
        ],
        ids=repr,
    )
    def test_cast_parameter_rejected_before_sampling(self, name, key, value, kind, monkeypatch):
        def no_trials(*args):
            raise AssertionError("trials sampled")

        monkeypatch.setattr(experiments_module, "_trial_blocks", no_trials)
        message = f"parameter {key!r} must be {kind}, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            run_experiment(ExperimentConfig(name=name, trials=10, params={key: value}))

    @pytest.mark.parametrize("name", [n for n in EXPERIMENT_NAMES if n != "giso"])
    @pytest.mark.parametrize("field", ["function_f", "function_g", "group"])
    def test_giso_input_refused_elsewhere(self, name, field):
        """A function table or group given to another experiment would be
        ignored, so it is refused before the experiment runs."""
        value = (PermutationAction.identity(4),) if field == "group" else FunctionTable(4, 2, (0, 1, 0, 1))
        with pytest.raises(ValueError, match=rf"{name} takes no giso input; got {field} \("):
            run_experiment(ExperimentConfig(name=name, trials=1, **{field: value}))

    @pytest.mark.parametrize("field", ["function_f", "function_g"])
    def test_function_table_without_its_pair_refused(self, field):
        """One table alone would leave giso on the desk pair."""
        table = FunctionTable(4, 2, (0, 1, 0, 1))
        with pytest.raises(ValueError, match="must be given together"):
            run_experiment(ExperimentConfig(name="giso", trials=5, **{field: table}))

    def test_fraction_param_recorded_as_the_float_used(self):
        """A Fraction epsilon ran, and then to_document raised "Object of
        type Fraction is not JSON serializable"; the document now records
        the float the run used, as for epsilon = 0.5."""
        exact = run_experiment(ExperimentConfig("membership", trials=50, params={"epsilon": Fraction(1, 2)}))
        binary = run_experiment(ExperimentConfig("membership", trials=50, params={"epsilon": 0.5}))
        assert exact.all_passed
        assert exact.to_document() == binary.to_document()
        assert json.loads(exact.to_document())["params"] == {"epsilon": 0.5}

    def test_fraction_param_that_rounds_to_the_lower_limit_rejected(self):
        """A positive Fraction below the float range would run at delta = 0.0."""
        with pytest.raises(ValueError, match="parameter 'delta' must be > 0.0"):
            run_experiment(ExperimentConfig("or-test", trials=5, params={"delta": Fraction(1, 10**400)}))

    def test_seed_past_64_bits_runs(self):
        record = run_experiment(ExperimentConfig(name="antizeno", seed=2**70 + 1, trials=50))
        assert record.all_passed
        assert json.loads(record.to_document())["seed"] == 2**70 + 1

    def test_seed_changes_sampled_counts(self):
        a = run_experiment(ExperimentConfig(name="antizeno", seed=1, trials=400))
        b = run_experiment(ExperimentConfig(name="antizeno", seed=2, trials=400))
        # exact values agree; the sampled count is allowed to differ
        assert a.values["accept_ever_exact"] == b.values["accept_ever_exact"]


@pytest.mark.parametrize("nx, ny", [(2, 3), (3, 3), (4, 2)])
def test_giso_overlap_identity_on_every_table(nx, ny):
    """<psi|U'|psi> = <f o sigma|g> over every pair of tables and every
    permutation, |f o sigma> taken as the permuted x-slices of |f>."""
    sigmas = [PermutationAction(p) for p in itertools.permutations(range(nx))]
    assert _giso_overlap_identity_error(nx, ny, sigmas) < 1e-12


class TestCli:
    def test_out_and_csv(self, tmp_path):
        out = tmp_path / "res.json"
        csv_path = tmp_path / "trials.csv"
        code = cli_main(
            ["mw-bounds", "--seed", "5", "--trials", "40", "--out", str(out), "--csv", str(csv_path)]
        )
        assert code == 0
        body = json.loads(out.read_text())
        assert body["experiment"] == "mw-bounds" and body["all_passed"]
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("trial,")
        assert len(csv_path.read_text().splitlines()) == 41

    def test_rerun_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["union-bound", "--seed", "9", "--trials", "10"]
        assert cli_main(args + ["--out", str(out1)]) == 0
        assert cli_main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_param_passthrough(self, tmp_path):
        out = tmp_path / "res.json"
        code = cli_main(
            ["antizeno", "--seed", "0", "--trials", "50", "--param", "n=16", "--out", str(out)]
        )
        assert code == 0
        body = json.loads(out.read_text())
        assert body["params"]["n"] == 16

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["genuine-ent", "--param", "typo=5"], "typo"),
            (["or-test", "--param", "delta=nan"], "delta"),
            (["demerlinize", "--param", "eta=nan"], "eta"),
        ],
    )
    def test_bad_param_exit_code(self, argv, key, tmp_path, capsys):
        out = tmp_path / "res.json"
        assert cli_main(argv + ["--trials", "5", "--out", str(out)]) == 2
        assert repr(key) in capsys.readouterr().err
        assert not out.exists()

    def test_round_count_past_int64_names_the_cap(self, tmp_path, capsys):
        """eta = 1e-300 gives N = ceil(2/eta), past int64: the error named no
        cap and printed all 300 digits of N."""
        out = tmp_path / "res.json"
        assert cli_main(["demerlinize", "--param", "eta=1e-300", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "int64 cap 2**63 - 1" in err and not re.search(r"\d{30}", err)
        assert not out.exists()

    def test_integral_float_for_an_integer_param_exit_code(self, tmp_path, capsys):
        """n=16.0 ran as n = 16, and n=1e300 allocated until out of memory."""
        out = tmp_path / "res.json"
        assert cli_main(["antizeno", "--param", "n=16.0", "--out", str(out)]) == 2
        assert "parameter 'n' must be an integer, got 16.0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "value, message", [(10**400, "must be <= 0.5"), (-(10**400), "must be > 0.0")], ids=["above", "below"]
    )
    def test_real_param_past_the_float_range_exit_code(self, value, message, tmp_path, capsys):
        """delta = +-10**400 passed the number check and then raised
        OverflowError at float(); both bounds are now checked on the exact value."""
        out = tmp_path / "res.json"
        assert cli_main(["or-test", "--param", f"delta={value}", "--out", str(out)]) == 2
        assert f"parameter 'delta' {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["antizeno", "or-test"])
    def test_sequence_past_its_cap_exit_code(self, name, tmp_path, capsys, monkeypatch):
        """n = MAX_SEQUENCE_STEPS + 1 is refused before any measurement of
        the sequence is built."""
        from seqmeas import measurement

        def built(*args):
            raise AssertionError("a measurement was built")

        monkeypatch.setattr(measurement, "anti_zeno_state", built)
        n = measurement.MAX_SEQUENCE_STEPS + 1
        with pytest.raises(ValueError, match=f"capped at n = {measurement.MAX_SEQUENCE_STEPS}"):
            measurement.anti_zeno_sequence(n)
        out = tmp_path / "res.json"
        assert cli_main([name, "--trials", "5", "--param", f"n={n}", "--out", str(out)]) == 2
        assert "MAX_SEQUENCE_STEPS" in capsys.readouterr().err
        assert not out.exists()

    def test_uiso_epsilon_too_small_is_quoted_as_given(self, tmp_path, capsys):
        out = tmp_path / "res.json"
        assert cli_main(["uiso", "--param", "epsilon=1e-10", "--out", str(out)]) == 2
        assert "epsilon 1e-10 is too small" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "function,assertion",
        [
            ("hs_inner", "channel_state_inner_product_identity"),
            ("choi_vector", "channel_state_inner_product_identity"),
            ("choi_vector", "channel_state_local_action_identity"),
        ],
    )
    def test_uiso_identity_checks_read_the_library(self, function, assertion, tmp_path, monkeypatch):
        """The uiso identity sweep checks ``testers.choi_vector`` and
        ``testers.hs_inner`` themselves: with either off by 1e-6 its
        assertion fails."""
        original = getattr(testers_module, function)
        monkeypatch.setattr(testers_module, function, lambda *args: original(*args) + 1e-6)
        out = tmp_path / "res.json"
        assert cli_main(["uiso", "--trials", "4", "--out", str(out)]) == 1
        failed = {a["name"] for a in json.loads(out.read_text())["assertions"] if not a["passed"]}
        assert assertion in failed

    def test_negative_seed_exit_code(self, tmp_path, capsys, monkeypatch):
        def runner(config, rec, trials):
            raise AssertionError("runner called")

        monkeypatch.setitem(_EXPERIMENTS, "antizeno", (runner, 10, ("n",)))
        out = tmp_path / "res.json"
        assert cli_main(["antizeno", "--seed", "-1", "--out", str(out)]) == 2
        assert "error: seed must be a non-negative integer, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_experiment_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "seqmeas.cli", "not-an-experiment"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode != 0

    def test_function_table_files(self, tmp_path):
        fpath, gpath, group = tmp_path / "f.txt", tmp_path / "g.txt", tmp_path / "group.txt"
        fpath.write_text("0 0\n1 1\n2 0\n3 1\n")
        gpath.write_text("0 0\n1 0\n2 1\n3 1\n")  # g = f o bit-swap
        group.write_text("0 1 2 3\n0 2 1 3\n")
        out = tmp_path / "res.json"
        code = cli_main(
            [
                "giso",
                "--seed",
                "2",
                "--trials",
                "40",
                "--fn-f",
                str(fpath),
                "--fn-g",
                str(gpath),
                "--group",
                str(group),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        body = json.loads(out.read_text())
        assert body["values"]["isomorphic_exact_accept"] >= 1.0 / 7.0

    def test_noncommuting_group_past_vector_cap(self, tmp_path, capsys):
        """Three transpositions of 4 points do not commute; their rule k = 16
        needs (2 * 16)^16 amplitudes, so the exact oracle must refuse."""
        group = tmp_path / "group.txt"
        group.write_text("1 0 2 3\n0 2 1 3\n0 1 3 2\n")
        out = tmp_path / "res.json"
        assert cli_main(["giso", "--group", str(group), "--out", str(out)]) == 2
        assert "vector cap" in capsys.readouterr().err
        assert not out.exists()

    def test_large_codomain_past_dense_cap(self, tmp_path, capsys):
        """A value of 10^9 in --fn-f makes a codomain of 10^9 + 1 points: the
        pair state would need 59.6 GiB, so the exact oracle refuses it
        (exit 2 with an error line, no traceback)."""
        fpath, gpath = tmp_path / "f.txt", tmp_path / "g.txt"
        fpath.write_text("0 0\n1 1\n2 0\n3 1000000000\n")
        gpath.write_text("0 0\n1 0\n2 1\n3 1\n")
        out = tmp_path / "res.json"
        assert cli_main(["giso", "--fn-f", str(fpath), "--fn-g", str(gpath), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: pair state dim 2 * 4 * 1000000001") and "dense cap" in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("lines,code", [(20, 0), (21, 2)])
    def test_identity_group_mask_cap(self, lines, code, tmp_path, capsys):
        """n copies of the identity commute, so the exact oracle takes the
        joint route while its AND distribution's 2^n masks fit: 2^20 is the
        vector cap itself and runs.  2^21 is past it, so 21 lines take the
        matvec route, whose k-copy vector at the rule's k is past the vector
        cap and refused."""
        group = tmp_path / "group.txt"
        group.write_text("0 1 2 3\n" * lines)
        out = tmp_path / "res.json"
        assert cli_main(["giso", "--group", str(group), "--trials", "20", "--out", str(out)]) == code
        if code == 0:
            assert 0.0 <= json.loads(out.read_text())["values"]["isomorphic_exact_accept"] <= 1.0
        else:
            assert f"exceeds the vector cap {MAX_VECTOR_DIM}" in capsys.readouterr().err
            assert not out.exists()

    @staticmethod
    def _giso_files(tmp_path, case):
        """Input files of one giso case: an 8-point pair g = f o sigma with
        sigma = (1 2)(5 6) under the group {id, sigma}, or the group
        {id, (0 1)} on the desk's 4 points, under which the desk
        "isomorphic" pair is 1/2-far."""
        if case == "user-8-points":
            f = [x % 2 for x in range(8)]
            sigma = [0, 2, 1, 3, 4, 6, 5, 7]
            files = {
                "--fn-f": "".join(f"{x} {f[x]}\n" for x in range(8)),
                "--fn-g": "".join(f"{x} {f[sigma[x]]}\n" for x in range(8)),
                "--group": "0 1 2 3 4 5 6 7\n" + " ".join(map(str, sigma)) + "\n",
            }
        else:
            files = {"--group": "0 1 2 3\n1 0 2 3\n"}
        argv = []
        for flag, text in files.items():
            path = tmp_path / f"{flag.strip('-')}.txt"
            path.write_text(text)
            argv += [flag, str(path)]
        return argv

    @pytest.mark.parametrize(
        "case, assertion",
        [
            ("user-8-points", "isomorphic_at_least_one_seventh"),
            ("swap-group", "isomorphic_at_most_one_eighth"),
        ],
    )
    def test_giso_scores_pairs_by_group_distance(self, case, assertion, tmp_path):
        """Each pair is bounded by its own distance under the group in use,
        and the desk far pair is left out when the group acts on another
        domain."""
        out = tmp_path / "res.json"
        argv = ["giso", "--trials", "20", "--out", str(out)] + self._giso_files(tmp_path, case)
        assert cli_main(argv) == 0
        body = json.loads(out.read_text())
        names = [a["name"] for a in body["assertions"]]
        assert assertion in names
        assert ("far_exact_accept" in body["values"]) == (case == "swap-group")

    def test_giso_user_pair_between_bounds_is_recorded(self, tmp_path):
        """A pair at 0 < d_G < epsilon gets its exact acceptance and distance
        recorded, with no bound."""
        files = self._giso_files(tmp_path, "user-8-points")
        (tmp_path / "fn-g.txt").write_text("0 0\n1 1\n2 0\n3 0\n4 0\n5 1\n6 0\n7 1\n")
        out = tmp_path / "res.json"
        assert cli_main(["giso", "--trials", "20", "--out", str(out)] + files) == 0
        body = json.loads(out.read_text())
        assert body["values"]["isomorphic_group_distance"] == 0.125
        assert 0.0 < body["values"]["isomorphic_exact_accept"] < 1.0
        assert not any(a["name"].startswith("isomorphic_at") for a in body["assertions"])

    EPSILON_CAPS = {
        "giso": "<= 0.5 (the desk far pair's distance to G-isomorphism)",
        "membership": "<= 0.7071067811865476 (1/sqrt(2)",
        "genuine-ent": "<= 0.7071067811865476 (sqrt(1/2)",
    }

    @pytest.mark.parametrize(
        "experiment, epsilon, past_cap",
        [
            ("giso", "0.5", False),
            ("giso", "0.9", True),
            ("membership", "0.3", False),
            ("membership", repr(0.5**0.5), False),
            ("membership", "0.7072", True),
            ("membership", "0.8", True),
            ("genuine-ent", repr(0.5**0.5), False),
            ("genuine-ent", "0.7072", True),
            ("genuine-ent", "0.9", True),
        ],
    )
    def test_epsilon_up_to_its_cap(self, experiment, epsilon, past_cap, tmp_path, capsys):
        """Every bound holds at non-default epsilon up to the experiment's
        cap; past it the run exits 2 with an error naming the cap."""
        out = tmp_path / "res.json"
        argv = [experiment, "--trials", "50", "--param", f"epsilon={epsilon}", "--out", str(out)]
        if past_cap:
            assert cli_main(argv) == 2
            assert self.EPSILON_CAPS[experiment] in capsys.readouterr().err
            assert not out.exists()
        else:
            assert cli_main(argv) == 0
            assert json.loads(out.read_text())["all_passed"]

    def test_copy_rule_past_a_million_copies(self, tmp_path):
        """At epsilon = 0.001 the membership rule asks for about 4.2e6
        copies; the rule is finite and the oracle exact at that k."""
        out = tmp_path / "res.json"
        assert cli_main(["membership", "--param", "epsilon=0.001", "--out", str(out)]) == 0
        body = json.loads(out.read_text())
        assert body["all_passed"] and body["values"]["copies_rule_k"] > 10**6

    def test_fn_flags_must_pair(self, tmp_path, capsys):
        fpath = tmp_path / "f.txt"
        fpath.write_text("0 0\n1 1\n")
        for flag in ("--fn-f", "--fn-g"):
            assert cli_main(["giso", flag, str(fpath), "--out", str(tmp_path / "res.json")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and flag in err and "must be given together" in err
            assert not (tmp_path / "res.json").exists()

    @pytest.mark.parametrize("flag", ["--fn-f", "--fn-g", "--group"])
    def test_giso_flag_refused_elsewhere(self, flag, tmp_path, capsys):
        path = tmp_path / "input.txt"
        path.write_text("0 1 2 3\n" if flag == "--group" else "0 0\n1 1\n")
        out = tmp_path / "res.json"
        assert cli_main(["antizeno", flag, str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: antizeno takes no giso input") and f"({flag})" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, content, reason",
        [
            ("--group", None, "No such file or directory"),
            ("--group", "0 1 x\n", "invalid literal"),
            ("--group", "0 0 1 2\n", "not a bijection"),
            ("--fn-f", None, "No such file or directory"),
            ("--fn-f", "0 0\n1 1 x\n", "expected 'x y'"),
            ("--fn-g", "0 0\n1 x\n", "invalid literal"),
        ],
    )
    def test_bad_input_file_exit_code(self, flag, content, reason, tmp_path, capsys):
        """A missing or malformed input file is reported as bad input
        (exit 2, ``error: <path>: <reason>``), not as a traceback."""
        good = tmp_path / "f.txt"
        good.write_text("0 0\n1 1\n2 0\n3 1\n")
        bad = tmp_path / "bad.txt"
        if content is not None:
            bad.write_text(content)
        files = {"--fn-f": str(good), "--fn-g": str(good)} if flag != "--group" else {}
        files[flag] = str(bad)
        argv = ["giso", "--trials", "5", "--out", str(tmp_path / "res.json")]
        for key, path in files.items():
            argv += [key, path]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and reason in err
        assert not (tmp_path / "res.json").exists()

    @pytest.mark.parametrize("flag", ["--out", "--csv"])
    def test_unwritable_output_exit_code(self, flag, tmp_path, capsys):
        """An --out or --csv path that cannot be written is reported as bad
        input (exit 2, ``error: <path>: <reason>``), not as a traceback."""
        paths = {"--out": str(tmp_path / "res.json"), "--csv": str(tmp_path / "trials.csv")}
        bad = tmp_path / "missing" / "x"
        paths[flag] = str(bad)
        argv = ["mw-bounds", "--seed", "5", "--trials", "5"]
        for key, path in paths.items():
            argv += [key, path]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and "No such file or directory" in err

    def test_python_m_entry_point(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-m", "seqmeas", "--help"], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: seqmeas")

    def test_param_without_value_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["antizeno", "--param", "typo"])
        assert exc.value.code == 2
        assert "key=value" in capsys.readouterr().err


class TestPinnedDocuments:
    """The default document and CSV of every experiment at seeds 0 and 1.

    Each entry is the SHA-256 of the ``--out`` document and of the ``--csv``
    file (None where the experiment writes no rows).  A change that moves
    any of them changes a result, and must update this table and say so in
    CHANGES.md.
    """

    SHA256 = {
        ("antizeno", 0): ("78a7413aa3df46637c1b0da0181f5262e37dff2c87a7f4d27e3080dba6edee2d", None),
        ("antizeno", 1): ("8a0a3e88841f6ff79f114ac867570500e7cc96cce3a2be95711542f497163c0d", None),
        ("mw-bounds", 0): ("0c0662fcbfcb2bea54d9f7aa72581899013b2082a8bc83dd59078400f36e5dc1", "ce70be1b3de051df2ee66db4c78421d3f7b52a6e0816ca2bf6602c7bdc6daadc"),
        ("mw-bounds", 1): ("1dbb7e5fd27b7f7076af5eb6e1f33a007d6cc8d40abcb8e2a3fd50e4f0fd7e9e", "d96b789ca747051f431064071ed31dbae04ec81c50b73f649caed374f0c815bf"),
        ("or-test", 0): ("e7656fe56b0d520ea7ee9d62bc0590ccbdeff2871fba83f886266151bf936901", None),
        ("or-test", 1): ("6119fc9e096413b0051c0146b2e4d47808347a0e7875e606d1899bdd0aae2919", None),
        ("disturbance", 0): ("d6d34e59d3a5d8ecd88b8cbbe0784d5ef3102004ff29c8bcc319b1a133a13741", None),
        ("disturbance", 1): ("f945e513ba005280fd62f1121ea7bb43e0662a2353cc64f4b1d3de39c006b3a1", None),
        ("union-bound", 0): ("f0e8e66b825339f78522068488b98c4288a33fc4d4742e671bd84992e3093c3e", "d3c0308fd1a292636aae0b750e340e5467ce4cad81f9829d6be3a0b6d7cabf6b"),
        ("union-bound", 1): ("ad40a626cf45810353f6c7fb09f547f9c9429f1434341e2b031e1188b63f9cc9", "8b12bd9ae66f2d16c10396127bcd8a71653594042406d4fc92459d2d954eab22"),
        ("gentle", 0): ("35233c2910c8319a46e84ca1523497dcbee9a722bff1ea6ccfc36791c0eebc31", None),
        ("gentle", 1): ("e0f1573b711a5ed414227f99a56e9097175b641d74fa288ce3d00030b7793587", None),
        ("giso", 0): ("436cb14050af2561757c3caa84bf897bab0b5a398f971c0b3eea08fea44e5e28", None),
        ("giso", 1): ("b7c5e20cc6063ad7f8ee8d4b6f01626d00fb570cb9df9eef97caed07a8212611", None),
        ("membership", 0): ("31df4421daa4663772dda81f16437bc05368928b3ece1c32f8f54c766a0c51ea", None),
        ("membership", 1): ("856777b3a883a23013f55e1a5faf661c88a8b868e504e0d244121d7f65a8120b", None),
        ("uiso", 0): ("15abf0032131bbc748607f8c745dd0aa602105af6d765c0d8c6c0a2879517652", None),
        ("uiso", 1): ("486fa4a46b8bdb7950fa513679743cbda45aacc2844598e71cafc3b859ae1deb", None),
        ("genuine-ent", 0): ("ecb29f012ca05e4172c0dbc8bf5c167967d167fbaddcb913931d8a52f1c6c1f9", None),
        ("genuine-ent", 1): ("6405fff351949f49d48c7692a1be68a26f821b7d3b01be5650264ac4351086c2", None),
        ("demerlinize", 0): ("2d1075353a6dce51828f82d3349a79669940ff714fcfe8c2686f787e24ce3b26", None),
        ("demerlinize", 1): ("c76eecbebddedbd48a2002398840f2987cc7b561e6b78095334e15deb3fe2e3a", None),
    }

    @pytest.mark.parametrize("name, seed", sorted(SHA256))
    def test_default_document_pinned(self, name, seed, tmp_path):
        out, csv_path = tmp_path / "doc.json", tmp_path / "trials.csv"
        argv = [name, "--seed", str(seed), "--out", str(out), "--csv", str(csv_path)]
        assert cli_main(argv) == 0
        doc_sha, csv_sha = self.SHA256[name, seed]
        assert hashlib.sha256(out.read_bytes()).hexdigest() == doc_sha, f"{name} seed {seed}: document changed"
        observed_csv = hashlib.sha256(csv_path.read_bytes()).hexdigest() if csv_path.exists() else None
        assert observed_csv == csv_sha, f"{name} seed {seed}: CSV changed"
