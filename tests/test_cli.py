import json
import math

import pytest

from bellcert import compile as compiler
from bellcert.cli import main
from bellcert.pauli import code_preset, load_code
from bellcert.poly import A0, BellPolynomial, Monomial
from bellcert.sim import MAX_SHOTS


def run(argv):
    return main(argv)


class TestCodes:
    def test_list_names(self, capsys):
        assert run(["codes", "list"]) == 0
        out = capsys.readouterr().out.split()
        assert out == ["five_qubit", "steane", "shor", "five_qudit"]

    def test_show_five_qubit(self, capsys):
        assert run(["codes", "show", "--code", "five_qubit"]) == 0
        out = capsys.readouterr().out
        assert out.count("S") >= 4 and "pair sites: [1]" in out

    def test_unknown_code_exits_2(self, capsys):
        assert run(["codes", "show", "--code", "bogus"]) == 2

    def test_show_json_round_trips(self, capsys):
        assert run(["codes", "show", "--code", "five_qubit", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert load_code(doc) == code_preset("five_qubit")


class TestBell:
    def test_build_five_qubit(self, capsys, tmp_path):
        out = tmp_path / "i5.json"
        alphas = f"{math.sqrt(2)},1,{math.sqrt(2)},{2 * math.sqrt(2)}"
        code = run(["bell", "build", "--code", "five_qubit",
                    "--alpha", alphas, "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "bound = 13.313708499" in printed
        assert "reduced_form = True" in printed
        doc = json.loads(out.read_text())
        assert len(doc["terms"]) == 7

    def test_bad_theta_exits_2(self):
        assert run(["bell", "build", "--code", "five_qubit",
                    "--theta", str(0.9 * math.pi)]) == 2

    def test_steane_unit_alphas_bound(self, capsys):
        assert run(["bell", "build", "--code", "steane"]) == 0
        assert "bound = 8" in capsys.readouterr().out

    def test_chsh_fixture_bound(self, capsys):
        assert run(["bell", "build", "--code", "chsh"]) == 0
        assert "bound = 4\n" in capsys.readouterr().out


class TestVerify:
    def test_all_three_presets_pass(self, capsys):
        for name in ("five_qubit", "steane", "shor"):
            assert run(["verify", "all", "--code", name]) == 0, name
            capsys.readouterr()

    def test_chsh_fixture_passes(self, capsys):
        assert run(["verify", "all", "--code", "chsh"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["checks"]["sos"]["passed"]
        assert doc["checks"]["classical"]["classical_bound"] == pytest.approx(
            2 * math.sqrt(2))  # compiled fixture is sqrt(2) * CHSH

    def test_poly_file_classical(self, tmp_path, capsys):
        poly = tmp_path / "p.json"
        run(["bell", "build", "--code", "five_qubit", "--out", str(poly)])
        capsys.readouterr()
        assert run(["verify", "classical", "--code", "five_qubit",
                    "--poly-file", str(poly)]) == 0

    def test_oversized_poly_file_exits_2(self, tmp_path, capsys):
        poly = tmp_path / "p.json"
        site13 = BellPolynomial({Monomial.from_dict({13: (A0,)}): 1.0})
        poly.write_text(compiler.emit(site13, "json"))
        assert run(["verify", "classical", "--poly-file", str(poly)]) == 2
        assert ("error: dimension 8192 exceeds dense matrix cap 4096"
                in capsys.readouterr().err)

    def test_poly_file_refused_for_certificate_checks(self, tmp_path, capsys):
        poly = tmp_path / "p.json"
        run(["bell", "build", "--code", "five_qubit", "--out", str(poly)])
        capsys.readouterr()
        for check in ("sos", "spectral", "all"):
            assert run(["verify", check, "--code", "five_qubit",
                        "--poly-file", str(poly)]) == 2, check
            assert "not --poly-file" in capsys.readouterr().err

    def test_code_and_code_file_exclusive(self, tmp_path, capsys):
        doc = tmp_path / "steane.json"
        doc.write_text(json.dumps(code_preset("steane").to_json()))
        with pytest.raises(SystemExit) as exc:
            run(["verify", "all", "--code", "chsh", "--code-file", str(doc)])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_sweep_needs_code(self, capsys):
        assert run(["verify", "spectral", "--code", "chsh",
                    "--sweep", "0.2"]) == 2
        assert "--sweep needs" in capsys.readouterr().err

    def test_code_file_matches_preset(self, tmp_path, capsys):
        doc = tmp_path / "code.json"
        doc.write_text(json.dumps(code_preset("five_qubit").to_json()))
        assert run(["verify", "all", "--code", "five_qubit"]) == 0
        from_preset = capsys.readouterr().out
        assert run(["verify", "all", "--code-file", str(doc)]) == 0
        assert capsys.readouterr().out == from_preset

    def test_all_computes_one_spectrum(self, capsys, monkeypatch):
        from bellcert import verify
        calls = {"materialize": 0, "sector_spectrum": 0}

        def counting(name):
            real = getattr(verify, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(verify, name, counting(name))
        assert run(["verify", "all", "--code", "five_qubit"]) == 0
        assert calls == {"materialize": 0, "sector_spectrum": 1}

    def test_sweep_needs_spectral_check(self, capsys):
        for check in ("all", "sos", "classical"):
            assert run(["verify", check, "--code", "shor",
                        "--sweep", "0.3"]) == 2, check
            assert "--sweep needs the spectral check" in capsys.readouterr().err

    def test_tilt_sweep_csv(self, capsys):
        assert run(["verify", "spectral", "--code", "five_qubit",
                    "--alpha0", "1", "--sweep",
                    f"{math.pi / 12},{math.pi / 6}"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("theta,max_eig,fidelity")
        assert len(out.strip().splitlines()) == 3

    def test_tilt_sweep_honours_no_extras(self, capsys):
        base = ["verify", "spectral", "--code", "steane", "--alpha0", "1",
                "--no-extras"]
        assert run(base + ["--theta", "0.3"]) == 0
        value = json.loads(capsys.readouterr().out)["checks"]["spectral"][
            "max_eigenvalue"]
        assert run(base + ["--sweep", "0.3"]) == 0
        row = capsys.readouterr().out.strip().splitlines()[1].split(",")
        assert float(row[1]) == pytest.approx(value, abs=1e-9)


class TestSelftest:
    def test_deduce_exit_codes(self, capsys):
        assert run(["selftest", "deduce", "--code", "steane"]) == 0
        capsys.readouterr()
        assert run(["selftest", "deduce", "--code", "shor",
                    "--no-extras"]) == 3
        capsys.readouterr()
        assert run(["selftest", "deduce", "--code", "five_qudit:3"]) == 4
        capsys.readouterr()
        # an empty --subset is the empty pair-site subset, not the preset's
        assert run(["selftest", "deduce", "--code", "shor", "--subset", ""]) == 3
        capsys.readouterr()

    def test_search_output(self, capsys):
        assert run(["selftest", "search", "--code", "five_qubit"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [1] in doc["proved_subsets"]

    def test_deduce_json(self, capsys):
        assert run(["selftest", "deduce", "--code", "five_qubit", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "proved"

    def test_search_transcripts(self, capsys):
        assert run(["selftest", "search", "--code", "five_qubit",
                    "--transcripts"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["first_transcripts"]["1"]

    def test_transcript_file(self, tmp_path):
        out = tmp_path / "t.txt"
        run(["selftest", "deduce", "--code", "five_qubit", "--out", str(out)])
        text = out.read_text()
        assert "proved" in text


class TestSimulate:
    def test_estimate_json(self, capsys):
        assert run(["simulate", "estimate", "--code", "five_qubit",
                    "--alpha", f"{math.sqrt(2)},1,{math.sqrt(2)},{2 * math.sqrt(2)}",
                    "--shots", "20000", "--seed", "12"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["estimate"] - (2 + 8 * math.sqrt(2))) <= 5 * doc["stderr"]

    def test_alpha0_polynomial_exits_5(self, capsys):
        assert run(["simulate", "estimate", "--code", "five_qubit",
                    "--alpha0", "1", "--theta", "0.3",
                    "--shots", "100", "--seed", "1"]) == 5

    def test_chsh_exits_2(self, capsys):
        assert run(["simulate", "estimate", "--code", "chsh",
                    "--seed", "1"]) == 2
        assert "not chsh" in capsys.readouterr().err

    def test_noise_sweep_rows(self, capsys):
        assert run(["simulate", "noise-sweep", "--code", "five_qubit",
                    "--shots", "2000", "--seed", "3",
                    "--p-grid", "0,0.5,1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "p,shots,estimate,stderr"
        assert len(lines) == 4

    def test_bad_shot_counts_exit_2(self, capsys):
        # the five-qubit inequality samples seven monomials
        base = ["simulate", "estimate", "--code", "five_qubit", "--seed", "1"]
        assert run(base + ["--shots", "0"]) == 2
        assert run(["simulate", "noise-sweep", "--code", "five_qubit",
                    "--seed", "1", "--shots", "-5"]) == 2
        assert run(base + ["--shots", "6"]) == 2
        assert "--shots 6 below 7" in capsys.readouterr().err
        assert run(base + ["--shots", "7"]) == 0
        assert json.loads(capsys.readouterr().out)["shots"] == 7

    def test_shots_above_cap_exit_2(self, capsys):
        assert run(["simulate", "estimate", "--code", "five_qubit", "--seed",
                    "1", "--shots", str(MAX_SHOTS + 1)]) == 2
        assert "exceed the cap" in capsys.readouterr().err

    def test_poly_file_matches_code_run(self, tmp_path, capsys):
        poly = tmp_path / "p.json"
        assert run(["bell", "build", "--code", "five_qubit",
                    "--out", str(poly)]) == 0
        capsys.readouterr()
        args = ["simulate", "estimate", "--code", "five_qubit",
                "--shots", "5000", "--seed", "7"]
        assert run(args) == 0
        from_code = capsys.readouterr().out
        assert run(args + ["--poly-file", str(poly)]) == 0
        assert capsys.readouterr().out == from_code

    def test_poly_file_for_another_code_exits_2(self, tmp_path, capsys):
        p5 = tmp_path / "p5.json"
        assert run(["bell", "build", "--code", "five_qubit",
                    "--out", str(p5)]) == 0
        moved = tmp_path / "moved.json"
        doc = {**code_preset("five_qubit").to_json(), "pair_sites": [2]}
        moved.write_text(json.dumps(doc))
        site6 = tmp_path / "site6.json"
        site6.write_text(compiler.emit(
            BellPolynomial({Monomial.from_dict({6: (A0,)}): 1.0}), "json"))
        capsys.readouterr()
        base = ["simulate", "estimate", "--shots", "1000", "--seed", "1"]
        for code_args, poly, message in (
                (["--code", "steane"], p5, "n = 5 sites"),
                (["--code-file", str(moved)], p5, "pair sites [1]"),
                (["--code", "five_qubit"], site6, "touches site 6")):
            assert run(base + code_args + ["--poly-file", str(poly)]) == 2
            assert message in capsys.readouterr().err

    def test_byte_identical_reruns(self, capsys):
        args = ["simulate", "estimate", "--code", "five_qubit",
                "--shots", "5000", "--seed", "2024"]
        assert run(args) == 0
        first = capsys.readouterr().out
        assert run(args) == 0
        assert capsys.readouterr().out == first
