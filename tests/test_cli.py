import dataclasses
import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from racebarrier import barrier_from_dict, find_barrier, RaceTriple
from racebarrier import barrier_search as bs
from racebarrier import cli
from racebarrier.cli import EXIT_VERIFICATION, _sweep_q, main


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGroup:
    def test_q5(self, capsys):
        code, out, _ = run(["group", "5"], capsys)
        assert code == 0
        assert "phi(q) = 4" in out and "generator 2 of order 4" in out
        assert "characters: 4" in out

    def test_q29(self, capsys):
        code, out, _ = run(["group", "29"], capsys)
        assert code == 0 and "cyclic" in out and "phi(q) = 28" in out

    def test_invalid_q(self, capsys):
        code, _, err = run(["group", "4"], capsys)
        assert code == 1 and "5 or >= 7" in err


class TestChars:
    def test_q7(self, capsys):
        code, out, _ = run(["chars", "7"], capsys)
        assert code == 0 and "principal" in out
        assert out.count("order") >= 6

    def test_invalid_q(self, capsys):
        code, out, err = run(["chars", "6"], capsys)
        assert (code, out, err) == (1, "", "error: modulus must be 5 or >= 7, got 6\n")


class TestGood:
    def test_not_good_3(self, capsys):
        code, out, _ = run(["good", "3"], capsys)
        assert code == 0 and "NOT GOOD" in out and "[2]" in out

    def test_good_273(self, capsys):
        code, out, _ = run(["good", "273"], capsys)
        assert code == 0 and "GOOD" in out and "NOT" not in out

    def test_not_good_21(self, capsys):
        code, out, _ = run(["good", "21"], capsys)
        assert code == 0 and "NOT GOOD" in out and "[5]" in out

    def test_full_range_21(self, capsys):
        code, out, _ = run(["good", "21", "--full-range"], capsys)
        assert code == 0 and "[5, 17]" in out

    def test_even_rejected(self, capsys):
        code, _, err = run(["good", "6"], capsys)
        assert code == 1 and err == "error: m must be odd and >= 3, got 6\n"

    def test_sweep_mode(self, capsys):
        code, out, _ = run(["good", "3", "--max", "30"], capsys)
        assert code == 0 and "not good: [3, 7, 13, 21]" in out

    def test_record_file(self, capsys, tmp_path):
        path = tmp_path / "cert.txt"
        code, _, _ = run(["good", "9", "--out", str(path)], capsys)
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines and all(len(line.split()) == 2 for line in lines)
        assert not any(line.endswith("NONE") for line in lines)


class TestBarrierCommand:
    def test_repeated_residue_is_one_error_line(self, capsys, tmp_path):
        out_file = tmp_path / "b.json"
        code, out, err = run(["barrier", "7", "1", "8", "5", "--out", str(out_file)], capsys)
        assert (code, out) == (1, "") and not out_file.exists()
        assert err == "error: residues [1, 1, 5] are not pairwise distinct mod 7\n"

    def test_q7(self, capsys, tmp_path):
        out_file = tmp_path / "b.json"
        code, out, _ = run(["barrier", "7", "1", "2", "5", "--out", str(out_file)], capsys)
        assert code == 0
        assert "construction I" in out and "|B| = 2" in out
        data = json.loads(out_file.read_text())
        assert data["construction"] == "I"

    def test_distinctness_validation(self, capsys):
        code, _, err = run(["barrier", "7", "1", "2", "2"], capsys)
        assert code == 1 and "distinct" in err

    def test_forced_construction_failure(self, capsys, tmp_path):
        # no spacing character exists for the order-7 ratios triple
        code, _, err = run(
            ["barrier", "29", "1", "16", "24", "--construction", "II",
             "--out", str(tmp_path / "x.json")],
            capsys,
        )
        assert code == 2

    def test_coincidence_has_no_spacing_character(self, capsys, tmp_path):
        """16 1 3 5: the spacing route's character makes two values coincide,
        so the search gives None (a singleton decides the triple in auto)."""
        code, _, err = run(
            ["barrier", "16", "1", "3", "5", "--construction", "II",
             "--out", str(tmp_path / "x.json")],
            capsys,
        )
        assert code == 2 and "construction failed: no spacing character" in err

    def test_config_file_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t": 4000.0}))
        out_file = tmp_path / "b.json"
        code, out, _ = run(
            ["--config", str(cfg), "barrier", "7", "1", "2", "5", "--out", str(out_file)],
            capsys,
        )
        assert code == 0
        assert json.loads(out_file.read_text())["parameters"]["t"] == 4000.0

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t": 4000.0}))
        out_file = tmp_path / "b.json"
        code, _, _ = run(
            ["--config", str(cfg), "barrier", "7", "1", "2", "5", "--t", "8000",
             "--out", str(out_file)],
            capsys,
        )
        assert code == 0
        assert json.loads(out_file.read_text())["parameters"]["t"] == 8000.0

    @pytest.mark.parametrize("text, message", [
        ("[1, 2]", "expected a JSON object, not list"),
        ('{"truncation": "ten"}', "parameter 'truncation' must be of type int, not 'ten'"),
        ('{"truncation": true}', "parameter 'truncation' must be of type int, not True"),
        ('{"t": "4000"}', "parameter 't' must be of type float, not '4000'"),
        ('{"truncaton": 50}', "unknown parameter 'truncaton'"),
        ('{"gap_check_limit": 1000}', "unknown parameter 'gap_check_limit'"),
    ])
    def test_bad_config_is_a_validation_error(self, capsys, tmp_path, text, message):
        """A config that is not an object of known, well-typed parameters exits
        1 with one line, before anything is built or written."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        out_file = tmp_path / "g.json"
        code, out, err = run(["--config", str(cfg), "gsh", "7", "1", "2", "5",
                              "--out", str(out_file)], capsys)
        assert code == 1 and not out and not out_file.exists()
        assert err == f"invalid config: {message}\n"


def _labels(barrier_file):
    """Ordering column values a verified profile of the barrier may contain."""
    barrier = barrier_from_dict(json.loads(barrier_file.read_text()))
    orders = set(itertools.permutations(barrier.relabeled_triple))
    orders.remove(barrier.excluded_ordering)
    return {">".join(map(str, o)) for o in orders} | {"tie"}


class TestSimulateCommand:
    @pytest.fixture()
    def barrier_file(self, tmp_path, capsys):
        path = tmp_path / "b.json"
        assert main(["barrier", "7", "1", "2", "5", "--out", str(path)]) == 0
        capsys.readouterr()
        return path

    def test_verify_roundtrip(self, capsys, barrier_file, tmp_path):
        prof = tmp_path / "profile.csv"
        code, out, _ = run(
            ["simulate", str(barrier_file), "--u0", "200000", "--u1", "200000.07",
             "--samples", "20000", "--out", str(prof)],
            capsys,
        )
        assert code == 0 and "VERIFIED" in out
        header = prof.read_text().splitlines()[0]
        assert header == "u,D1,D2,ordering"

    def test_file_equality_roundtrip(self, barrier_file):
        data = json.loads(barrier_file.read_text())
        rebuilt = barrier_from_dict(data)
        direct = find_barrier(RaceTriple(7, 1, 2, 5))
        assert rebuilt == direct

    def test_tampered_barrier_detected(self, capsys, barrier_file, tmp_path):
        data = json.loads(barrier_file.read_text())
        # flip the character on the first zero: the sum cancellation breaks and
        # the claimed exclusion fails somewhere on the grid
        assert data["zeros"][0]["character"] == [3]
        data["zeros"][0]["character"] = [1]
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(data))
        code, _, err = run(
            ["simulate", str(bad), "--u0", "200000", "--u1", "200000.07",
             "--samples", "20000"],
            capsys,
        )
        assert code == 3 and "counterexample" in err

    def test_default_window_detects_tampering(self, capsys, barrier_file, tmp_path):
        """Without --u0 the window sits where the remainder bound is small
        against the main terms, so a tampered barrier fails and the genuine
        one verifies (at u0 = 50 the bound dwarfed both and both passed)."""
        code, out, _ = run(["simulate", str(barrier_file)], capsys)
        assert code == 0 and "VERIFIED" in out and "on [200000.0, " in out
        data = json.loads(barrier_file.read_text())
        data["zeros"][0]["character"] = [1]
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(data))
        code, out, err = run(["simulate", str(bad)], capsys)
        assert code == EXIT_VERIFICATION and "VIOLATED" in out and "counterexample" in err

    def test_missing_file(self, capsys):
        code, _, err = run(["simulate", "/nonexistent/barrier.json"], capsys)
        assert code == 1

    def test_u0_below_floor_rejected(self, capsys, barrier_file):
        code, _, err = run(["simulate", str(barrier_file), "--u0", "5"], capsys)
        assert code == 1 and "rejected" in err and "floor" in err

    def test_empty_range_rejected(self, capsys, barrier_file):
        code, _, err = run(
            ["simulate", str(barrier_file), "--u0", "200000", "--u1", "200000"], capsys
        )
        assert code == 1 and "empty u range" in err

    @pytest.mark.parametrize("window", [["--u0", "nan", "--u1", "200000"],
                                        ["--u0", "200000", "--u1", "inf"],
                                        ["--u0", "nan"]])
    def test_non_finite_window_rejected(self, capsys, barrier_file, window):
        code, out, err = run(["simulate", str(barrier_file), *window, "--samples", "100"],
                             capsys)
        assert code == 1 and "rejected" in err and "not finite" in err
        assert "VERIFIED" not in out

    def test_profile_ordering_column(self, capsys, barrier_file, tmp_path):
        prof = tmp_path / "profile.csv"
        code, _, _ = run(
            ["simulate", str(barrier_file), "--u0", "200000", "--u1", "200000.07",
             "--samples", "500", "--out", str(prof)],
            capsys,
        )
        assert code == 0
        orderings = {row.split(",")[3] for row in prof.read_text().splitlines()[1:]}
        assert orderings and orderings <= _labels(barrier_file)

    @pytest.mark.parametrize("field, value", [("relabeled_triple", [1, 2, 6]),
                                              ("permutation", [2, 2, 2])])
    def test_inconsistent_relabeling_rejected(self, capsys, barrier_file, tmp_path, field, value):
        """A relabeled triple that is not the triple in permutation order is
        refused at load time (it raised KeyError in simulate, or verified)."""
        data = json.loads(barrier_file.read_text())
        data[field] = value
        bad = tmp_path / "relabeled.json"
        bad.write_text(json.dumps(data))
        code, out, err = run(["simulate", str(bad)], capsys)
        assert code == 1 and "malformed barrier file" in err and "permutation" in err
        assert "VERIFIED" not in out

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
    def test_non_finite_zero_ordinate_rejected(self, capsys, barrier_file, tmp_path, gamma):
        """A zero ordinate must be positive and finite: NaN loaded and died in
        the remainder bound with an OverflowError, Infinity loaded and was
        refused only by the window floor."""
        data = json.loads(barrier_file.read_text())
        data["zeros"][0]["gamma"] = gamma
        bad = tmp_path / "gamma.json"
        bad.write_text(json.dumps(data))
        code, out, err = run(["simulate", str(bad), "--u0", "200000", "--u1", "200000.07"],
                             capsys)
        assert code == 1 and err.startswith("malformed barrier file: zero ordinate")
        assert "Traceback" not in err and not out

    def test_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "finite", "q": 7}))
        code, _, err = run(["simulate", str(bad)], capsys)
        assert code == 1


class TestSweepCommand:
    def test_q11(self, capsys, tmp_path):
        out_file = tmp_path / "census.csv"
        code, out, _ = run(["sweep", "11", "--jobs", "1", "--out", str(out_file)], capsys)
        assert code == 0
        assert "failures: 0" in out
        rows = out_file.read_text().splitlines()
        import itertools

        from racebarrier.residue_group import unit_group_structure

        expected = sum(
            len(list(itertools.permutations(unit_group_structure(q).units, 3)))
            for q in (5, 7, 8, 9, 10, 11)
        )
        assert len(rows) - 1 == expected

    def test_only_construction_failures_become_rows(self, monkeypatch):
        def failing(exc):
            def find_barrier(triple, params=None):
                raise exc
            return find_barrier

        monkeypatch.setattr(bs, "find_barrier", failing(bs.ConstructionError("no barrier")))
        rows = [row for a1 in (1, 2, 3, 4) for row in _sweep_q((5, bs.BarrierParams(), a1))]
        assert len(rows) == 24 and all(r[4:] == ("FAIL:no barrier", -1, 0.0) for r in rows)
        assert [r[:4] for r in rows] == sorted(r[:4] for r in rows)
        for exc in (TypeError("bug"), ValueError("bug"), ArithmeticError("bug")):
            monkeypatch.setattr(bs, "find_barrier", failing(exc))
            with pytest.raises(type(exc), match="bug"):
                _sweep_q((5, bs.BarrierParams(), 1))

    def test_invalid_qmax(self, capsys):
        code, _, _ = run(["sweep", "4"], capsys)
        assert code == 1


class TestGshCommand:
    def test_q7(self, capsys, tmp_path):
        out_file = tmp_path / "g.json"
        code, out, _ = run(
            ["gsh", "7", "1", "2", "5", "--truncation", "2000", "--out", str(out_file)],
            capsys,
        )
        assert code == 0 and "construction GSH" in out
        data = json.loads(out_file.read_text())
        assert data["kind"] == "gsh" and data["truncation"] == 2000

    def test_simulate_gsh_file(self, capsys, tmp_path):
        out_file = tmp_path / "g.json"
        assert main(["gsh", "7", "1", "2", "5", "--truncation", "2000",
                     "--out", str(out_file)]) == 0
        capsys.readouterr()
        code, out, _ = run(
            ["simulate", str(out_file), "--u0", "1000", "--u1", "1004", "--samples", "300"],
            capsys,
        )
        assert code == 0 and "regime-2" in out
        assert "verdict: VERIFIED" in out and "remainder bound: none" in out

    def test_inapplicable(self, capsys):
        code, _, err = run(["gsh", "29", "1", "16", "24"], capsys)
        assert code == 2

    def test_default_file_names(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["gsh", "7", "1", "2", "5", "--truncation", "2000"]) == 0
        assert main(["barrier", "7", "1", "2", "5"]) == 0
        assert {p.name for p in tmp_path.iterdir()} == {"gsh_q7_1_2_5.json",
                                                        "barrier_q7_1_2_5.json"}

    @pytest.mark.parametrize("truncation", ["0", "-5"])
    def test_family_without_terms_fails(self, capsys, tmp_path, truncation):
        """It wrote a file with no terms, which simulate or the loader refused;
        now the parameters refuse the truncation before anything is built."""
        out_file = tmp_path / "g.json"
        code, _, err = run(["gsh", "7", "1", "2", "5", "--truncation", truncation,
                            "--out", str(out_file)], capsys)
        assert code == 1
        assert err == f"error: parameter 'truncation' must be at least 1, not {truncation}\n"
        assert not out_file.exists()


class TestParameters:
    """Each building command reads the flags of its own parameters, and one
    checked BarrierParams refuses a bad value with exit 1 before anything is
    built or written."""

    COMMANDS = {
        "barrier": ["barrier", "7", "1", "2", "5", "--out"],
        "gsh": ["gsh", "7", "1", "2", "5", "--truncation", "200", "--out"],
        "sweep": ["sweep", "13", "--jobs", "1", "--out"],
    }

    def _refused(self, capsys, tmp_path, argv, message, config=None):
        out_file = tmp_path / "out"
        prefix = []
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(config)
            prefix = ["--config", str(cfg)]
        command, *rest = argv
        code, out, err = run([*prefix, *self.COMMANDS[command], str(out_file), *rest], capsys)
        assert code == 1 and not out and not out_file.exists()
        assert message in err and "Traceback" not in err

    BAD_FLAGS = {
        "barrier --t nan": "parameter 't' must be finite, not nan",
        "barrier --t inf": "parameter 't' must be finite, not inf",
        "barrier --sigma1 0.49": "parameter 'sigma1' must be above sigma2, not 0.49",
        "gsh --t nan": "parameter 't' must be finite, not nan",
        "gsh --t inf": "parameter 't' must be finite, not inf",
        "gsh --truncation 0": "parameter 'truncation' must be at least 1, not 0",
        "gsh --truncation -5": "parameter 'truncation' must be at least 1, not -5",
    }
    BAD_CONFIGS = {
        '{"sigma1": 0.49}': "parameter 'sigma1' must be above sigma2, not 0.49",
        '{"t": NaN}': "parameter 't' must be finite, not nan",
        '{"t": Infinity}': "parameter 't' must be finite, not inf",
        '{"gamma": 5000.0}': "unknown parameter 'gamma'",
        '{"gsh_sigma1": 0.6}': "unknown parameter 'gsh_sigma1'",
        '{"gsh_sigma2": 0.55}': "unknown parameter 'gsh_sigma2'",
        '{"gsh_beta": 0.5}': "unknown parameter 'gsh_beta'",
        '{"sigma": 0.6}': "unknown parameter 'sigma'",
    }

    @pytest.mark.parametrize("argv", BAD_FLAGS)
    def test_bad_flag_exits_1(self, capsys, tmp_path, argv):
        self._refused(capsys, tmp_path, argv.split(), f"error: {self.BAD_FLAGS[argv]}")

    @pytest.mark.parametrize("command", ["barrier", "gsh", "sweep"])
    @pytest.mark.parametrize("config", BAD_CONFIGS)
    def test_bad_config_exits_1(self, capsys, tmp_path, command, config):
        self._refused(capsys, tmp_path, [command], f"invalid config: {self.BAD_CONFIGS[config]}",
                      config)

    @pytest.mark.parametrize("argv", [
        "gsh 7 1 2 5 --sigma1 0.7",
        "gsh 7 1 2 5 --epsilon 0.01",
        "barrier 7 1 2 5 --gamma 5000",
        "barrier 7 1 2 5 --truncation 50",
        "barrier 7 1 2 5 --construction GSH",
        "barrier 7 1 2 5 --sigma 0.6",
    ])
    def test_flags_of_other_commands_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        assert exc.value.code == 2 and "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flags", [
        ("barrier", "--construction --sigma1 --sigma2 --tau --beta1 --t --epsilon"),
        ("gsh", "--t --tau --truncation"),
        ("sweep", "--jobs"),
    ])
    def test_help_lists_the_flags_of_the_command(self, capsys, command, flags):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        listed = set(re.findall(r"--[a-z0-9]+", capsys.readouterr().out))
        assert listed == {"--help", "--out", *flags.split()}

    @pytest.mark.parametrize("triple, construction", [((23, 2, 3, 4), "II"),
                                                      ((19, 2, 3, 14), "III")])
    def test_t_sets_the_height_of_constructions_two_and_three(self, capsys, tmp_path, triple,
                                                               construction):
        """--t moves every construction's base height; II and III record it as
        gamma (the flag was ignored there, with the zeros at 1000 and 2000)."""
        out_file = tmp_path / "b.json"
        code, _, _ = run(["barrier", *map(str, triple), "--t", "4000", "--out", str(out_file)],
                         capsys)
        data = json.loads(out_file.read_text())
        assert code == 0 and data["construction"] == construction
        assert data["parameters"]["gamma"] == 4000.0
        assert {z["gamma"] for z in data["zeros"]} == {4000.0, 8000.0}


class TestOutputErrors:
    """An --out path that cannot be written, and a standard output that
    closes early, each end in exit 1 without a traceback."""

    @pytest.mark.parametrize("argv", [
        "barrier 7 1 2 5",
        "gsh 7 1 2 5 --truncation 200",
        "sweep 7 --jobs 1",
        "simulate {barrier} --samples 100",
        "good 7",
    ])
    def test_unwritable_out_path(self, capsys, tmp_path, argv):
        barrier = tmp_path / "b.json"
        if "{barrier}" in argv:
            assert main(["barrier", "7", "1", "2", "5", "--out", str(barrier)]) == 0
            capsys.readouterr()
        out_file = tmp_path / "missing" / "x"
        code, _, err = run([*argv.format(barrier=barrier).split(), "--out", str(out_file)],
                           capsys)
        assert code == 1
        assert err == f"error: [Errno 2] No such file or directory: {str(out_file)!r}\n"

    def test_closed_stdout(self):
        """`racebarrier chars 10007 | head -1`: the table is far larger than a
        pipe's buffer, so the process writes on after the reader is gone."""
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.Popen([sys.executable, "-m", "racebarrier", "chars", "10007"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline().startswith(b"q = 10007: 10006 characters")
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1 and err == ""


@pytest.fixture(scope="module")
def gsh_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("gsh") / "g.json"
    assert main(["gsh", "7", "1", "2", "5", "--truncation", "2000", "--out", str(path)]) == 0
    return path


class TestSimulateGshCommand:
    def test_u0_below_floor_rejected(self, capsys, gsh_file):
        capsys.readouterr()
        code, _, err = run(["simulate", str(gsh_file), "--u0", "5"], capsys)
        assert code == 1 and "rejected" in err and "floor" in err

    @pytest.mark.parametrize("window", [["--u0", "nan", "--u1", "1004"],
                                        ["--u0", "1000", "--u1", "inf"],
                                        ["--u0", "nan"]])
    def test_non_finite_window_rejected(self, capsys, gsh_file, window):
        capsys.readouterr()
        code, _, err = run(["simulate", str(gsh_file), *window, "--samples", "10"], capsys)
        assert code == 1 and "rejected" in err and "not finite" in err

    def test_truncation_too_small_rejected(self, capsys, gsh_file):
        capsys.readouterr()
        code, _, err = run(
            ["simulate", str(gsh_file), "--u0", "1e9", "--u1", "2e9", "--samples", "10"], capsys
        )
        assert code == 1 and "truncation" in err

    def test_counterexample_has_a_u(self, capsys, gsh_file, monkeypatch):
        """With the ordering it should exclude replaced by one that shows, the
        failure names the first u where it shows.  A file cannot state the
        ordering, so the loaded record is edited."""
        load = cli.bs.barrier_from_dict

        def shown(data):
            barrier = load(data)
            assert barrier.excluded_ordering == (5, 1, 2)
            return dataclasses.replace(barrier, excluded_ordering=(1, 2, 5))

        monkeypatch.setattr(cli.bs, "barrier_from_dict", shown)
        capsys.readouterr()
        code, out, err = run(["simulate", str(gsh_file), "--u0", "1000", "--u1", "1004",
                              "--samples", "300"], capsys)
        assert code == EXIT_VERIFICATION and "VIOLATED" in out
        u = float(err.split("counterexample near u = ")[1])
        assert 1000.0 <= u <= 1004.0

    def test_profile_ordering_column(self, capsys, gsh_file, tmp_path):
        capsys.readouterr()
        prof = tmp_path / "profile.csv"
        code, _, _ = run(
            ["simulate", str(gsh_file), "--u0", "1000", "--u1", "1004", "--samples", "300",
             "--out", str(prof)],
            capsys,
        )
        assert code == 0
        rows = prof.read_text().splitlines()
        assert rows[0] == "u,D1,D2,ordering" and len(rows) > 300
        orderings = {row.split(",")[3] for row in rows[1:]}
        assert orderings and orderings <= _labels(gsh_file)


@pytest.fixture(scope="module")
def gsh_file_full(tmp_path_factory):
    """A GSH barrier at the default truncation J = 10^4."""
    path = tmp_path_factory.mktemp("gsh") / "g10k.json"
    assert main(["gsh", "7", "1", "2", "5", "--out", str(path)]) == 0
    return path


# a GSH file holds what construction_gsh chose: the header, the characters,
# t, the real parts, J and the member h_j of H taken in each window
GSH_KEYS = {"kind", "q", "triple", "permutation", "relabeled_triple", "construction",
            "chi1", "chi2", "t", "sigma1", "sigma2", "beta", "truncation", "h_values"}

# what the loader derives from them, which older files stored
DERIVED_KEYS = ("z", "w", "alpha", "beta_phase", "in_h", "gammas", "deltas",
                "excluded_ordering", "parameters", "margins")


def _stated(data, key):
    """data with the derived key stated as older versions wrote it: the value
    the loader derives, complex numbers as [re, im]."""
    value = getattr(barrier_from_dict(data), key)
    data[key] = [value.real, value.imag] if isinstance(value, complex) else value
    return json.loads(json.dumps(data))


class TestGshFileChecks:
    """A GSH barrier file holds the construction's choices; the loader
    derives every other field and runs the construction's checks on them,
    so a file that states a derived key or fails a check exits 1 as a
    malformed file."""

    def _simulate(self, capsys, tmp_path, data):
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(data))
        capsys.readouterr()
        return run(["simulate", str(path), "--samples", "50"], capsys)

    def _rejected(self, capsys, tmp_path, data, message):
        code, _, err = self._simulate(capsys, tmp_path, data)
        assert code == 1 and "malformed barrier file" in err and message in err, err

    def test_untampered_file_simulates(self, capsys, gsh_file_full, tmp_path):
        data = json.loads(gsh_file_full.read_text())
        assert set(data) == GSH_KEYS and gsh_file_full.stat().st_size < 120_000
        assert data["truncation"] == 10_000 and len(data["h_values"]) == 10_000
        code, _, err = self._simulate(capsys, tmp_path, data)
        assert code == 0 and "malformed" not in err

    @pytest.mark.parametrize("key", DERIVED_KEYS)
    def test_derived_key_rejected(self, capsys, gsh_file_full, tmp_path, key):
        """A file that states a derived key, as files of older versions do, is
        refused even when the value is the one the loader derives."""
        data = _stated(json.loads(gsh_file_full.read_text()), key)
        self._rejected(capsys, tmp_path, data, f"{key} is derived")

    def test_edited_alpha_rejected(self, capsys, gsh_file_full, tmp_path):
        data = _stated(json.loads(gsh_file_full.read_text()), "alpha")
        assert data["alpha"] != 0.123
        data["alpha"] = 0.123
        self._rejected(capsys, tmp_path, data, "alpha is derived")

    @pytest.mark.parametrize("excluded", [[1, 2, 6], [2, 2, 2], [5, 1]])
    def test_excluded_ordering_not_of_the_triple_rejected(self, capsys, gsh_file_full, tmp_path,
                                                          excluded):
        """It raised KeyError in gsh_simulate when files stated the ordering;
        now the loader derives it and refuses a stated one."""
        data = json.loads(gsh_file_full.read_text())
        data["excluded_ordering"] = excluded
        self._rejected(capsys, tmp_path, data, "excluded_ordering is derived")

    @pytest.mark.parametrize("field", ["h_values", "in_h", "gammas", "deltas", "truncation"])
    def test_cut_sequence_rejected(self, capsys, gsh_file_full, tmp_path, field):
        data = json.loads(gsh_file_full.read_text())
        if field == "truncation":
            data["truncation"] = 20_000
        else:
            data = _stated(data, field)
            data[field] = data[field][:10]
        message = "h_values has" if field in ("h_values", "truncation") else f"{field} is derived"
        self._rejected(capsys, tmp_path, data, message)

    @pytest.mark.parametrize("field, index", [("gammas", 0), ("gammas", 7000), ("deltas", 3)])
    def test_sequence_entry_moved_by_one_ulp_rejected(self, capsys, gsh_file_full, tmp_path,
                                                      field, index):
        """gammas and deltas are derived from J, sigma2, beta, t and h_values,
        so the lattice identity gamma_j = 2t h_j + xi_j that the exact phases
        of gsh_simulate rest on holds by construction; a file that states
        them, even one ulp off, is refused."""
        data = _stated(json.loads(gsh_file_full.read_text()), field)
        data[field][index] = math.nextafter(data[field][index], math.inf)
        self._rejected(capsys, tmp_path, data, f"{field} is derived")

    @pytest.mark.parametrize("truncation", [0, -5])
    def test_family_without_terms_rejected(self, capsys, gsh_file_full, tmp_path, truncation):
        data = json.loads(gsh_file_full.read_text())
        data["truncation"], data["h_values"] = truncation, []
        message = "J must be >= 1" if truncation == 0 else "h_values has 0 entries"
        self._rejected(capsys, tmp_path, data, message)

    def test_shifted_h_value_rejected(self, capsys, gsh_file_full, tmp_path):
        data = json.loads(gsh_file_full.read_text())
        data["h_values"][100] += 1  # still in window 101, no longer in H
        self._rejected(capsys, tmp_path, data, "h_values[100]")

    @pytest.mark.parametrize("edit", ["every_in_h_set", "h_beyond_window", "h_below_window",
                                      "in_h_cleared", "h_off_h"])
    def test_h_windows_checked(self, capsys, gsh_file_full, tmp_path, edit):
        """h_j lies in [j^2, j^2 + j] and is j^2 or passes construction_gsh's
        float membership test; the in_h flags follow from h_values, so a file
        that states them, set or cleared, is refused."""
        data = json.loads(gsh_file_full.read_text())
        barrier = barrier_from_dict(data)
        j = 499  # window 500
        assert barrier.in_h[j] and data["h_values"][j] != 500 ** 2 and not barrier.in_h[0]
        message = f"h_values[{j}]"
        if edit == "every_in_h_set":  # window 1 misses H
            data["in_h"] = [True] * len(barrier.in_h)
            message = "in_h is derived"
        elif edit == "in_h_cleared":
            data = _stated(data, "in_h")
            data["in_h"][j] = False
            message = "in_h is derived"
        elif edit == "h_beyond_window":
            data["h_values"][j] = 500 ** 2 + 501
        elif edit == "h_below_window":
            data["h_values"][j] = 500 ** 2 - 1
        else:
            window = range(500 ** 2 + 1, 500 ** 2 + 501)
            data["h_values"][j] = next(h for h in window if not bs._in_h(
                h, barrier.alpha, barrier.beta_phase))
        self._rejected(capsys, tmp_path, data, message)

    def test_missed_window_rejected(self, capsys, gsh_file_full, tmp_path):
        """h_J may be J^2 outside H only where the gap bound 10t + 1 does not
        force window J to meet H; here J = 10^4 = 10t."""
        data = json.loads(gsh_file_full.read_text())
        barrier = barrier_from_dict(data)
        assert data["truncation"] >= 10 * barrier.t and barrier.in_h[-1]
        assert not bs._in_h(10_000 ** 2, barrier.alpha, barrier.beta_phase)
        data["h_values"][-1] = 10_000 ** 2
        self._rejected(capsys, tmp_path, data, "window at j=10000 missed H")

    def test_real_parts_out_of_order_rejected(self, capsys, gsh_file_full, tmp_path):
        data = json.loads(gsh_file_full.read_text())
        data["sigma2"] = data["sigma1"]
        self._rejected(capsys, tmp_path, data, "need 1/2 <= beta < sigma2 < sigma1")

    @pytest.mark.parametrize("field, index, factor", [
        ("z", 0, 1 + 2**-40), ("w", 1, 1 + 2**-40), ("beta_phase", None, 1 + 2**-40),
        ("t", None, 1.5), ("sigma1", None, 1.1),
    ], ids=["z", "w", "beta_phase", "t", "sigma1"])
    def test_edited_phase_data_rejected(self, capsys, gsh_file_full, tmp_path, field, index,
                                        factor):
        """An edited t or sigma1 moves alpha and with it H, which the stored
        h_values then leave; z, w and beta_phase are derived, so a file that
        states them, edited or not, is refused."""
        data = json.loads(gsh_file_full.read_text())
        message = "h_values["
        if field in DERIVED_KEYS:
            data = _stated(data, field)
            message = f"{field} is derived"
        if index is None:
            data[field] *= factor
        else:
            data[field][index] *= factor
        self._rejected(capsys, tmp_path, data, message)


class TestFieldTypesAtLoad:
    """Field types are checked when a barrier file is loaded: a wrong type is a
    malformed file (exit 1), not a traceback from deep in simulate."""

    @pytest.fixture(scope="class")
    def finite_data(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("finite") / "b7.json"
        assert main(["barrier", "7", "1", "2", "5", "--out", str(path)]) == 0
        return json.loads(path.read_text())

    @pytest.fixture(scope="class")
    def gsh_data(self, gsh_file):
        return json.loads(gsh_file.read_text())

    def _simulate(self, capsys, tmp_path, data):
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(data))
        capsys.readouterr()
        return run(["simulate", str(path), "--samples", "50"], capsys)

    def _edited(self, data, path, value):
        data = json.loads(json.dumps(data))
        *keys, last = path
        target = data
        for key in keys:
            target = target[key]
        target[last] = value
        return data

    @pytest.mark.parametrize("path, value", [
        (("zeros", 0, "character"), [3.5]),  # TypeError: array indices must be integers
        (("zeros", 0, "character"), [True]),
        (("zeros", 1, "sigma"), "0.5005"),
        (("zeros", 0, "gamma"), None),
        (("zeros", 0, "multiplicity"), 1.0),
        (("beta1",), "0.5"),
        (("triple",), ["1", 2, 5]),
        (("triple",), 5),  # TypeError: 'int' object is not iterable
        (("zeros",), [[1]]),  # TypeError: list indices must be integers
    ], ids=["exponent-3.5", "exponent-bool", "sigma-str", "gamma-null", "multiplicity-float",
            "beta1-str", "triple-str", "triple-int", "zeros-list"])
    def test_finite_field_types(self, capsys, tmp_path, finite_data, path, value):
        code, out, err = self._simulate(capsys, tmp_path, self._edited(finite_data, path, value))
        assert code == 1 and "malformed barrier file" in err
        assert "VERIFIED" not in out

    @pytest.mark.parametrize("path, value", [
        (("t",), "x"),
        (("sigma1",), None),
        (("chi1",), [1.5]),
        (("chi2",), [False]),
        (("chi1",), 3),
        (("sigma2",), True),
        (("beta",), [0.5]),
        (("alpha",), "0.1"),
        (("beta_phase",), None),
        (("truncation",), 2000.0),
        (("z",), ["x", 0.0]),
        (("w",), [1.0]),
        (("h_values", 0), "x"),  # "could not convert string to float" in gsh_simulate
        (("h_values", 0), [1]),
        (("h_values", 0), None),
        (("h_values", 0), True),  # numpy took [true, 5, ...] as int64, so h_1 loaded as 1
        (("gammas", 0), None),  # TypeError in gsh_simulate when files stated gammas
        (("in_h",), 7),
        (("deltas", 0), [0.1]),
    ], ids=["t-str", "sigma1-null", "chi1-float", "chi2-bool", "chi1-int", "sigma2-bool",
            "beta-list", "alpha-str", "beta_phase-null", "truncation-float", "z-str",
            "w-short", "h_values-str", "h_values-nested", "h_values-null", "h_values-bool",
            "gammas-null", "in_h-int", "deltas-nested"])
    def test_gsh_field_types(self, capsys, tmp_path, gsh_data, path, value):
        """A derived key of any type is refused by name, before its type is
        looked at."""
        data = gsh_data
        if path[0] in DERIVED_KEYS:
            data = _stated(dict(gsh_data), path[0])
        code, out, err = self._simulate(capsys, tmp_path, self._edited(data, path, value))
        assert code == 1 and "malformed barrier file" in err
        if path[0] in DERIVED_KEYS:
            assert f"{path[0]} is derived" in err
        if path[0] == "h_values":
            assert "h_values holds an entry that is not an integer" in err

    def test_untouched_files_load(self, finite_data, gsh_data):
        for data in (finite_data, gsh_data):
            assert bs.barrier_to_dict(barrier_from_dict(data)) == data
