import contextlib
import copy
import hashlib
import io
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bellcert import cli, compile as compiler, engine, pauli, sim, verify
from bellcert.cli import main
from bellcert.pauli import (CodeValidationError, InputError, SizeLimitError,
                            code_preset, load_code)
from bellcert.poly import A0, BellPolynomial, Monomial
from bellcert.sim import MAX_SHOTS

FIVE_QUBIT_DOC = code_preset("five_qubit").to_json()
QRM15 = Path(__file__).parent / "fixtures" / "qrm15.json"
CODE422 = Path(__file__).parent / "fixtures" / "code422.json"
STEANE2 = Path(__file__).parent / "fixtures" / "steane2.json"

# SHA-256 of TestSimulate.test_golden_simulate_digest's runs (argv, exit code,
# stdout), as the sampler drawing each monomial's outcome products in one
# binomial draw produced them.
GOLDEN_SIMULATE_DIGEST = (
    "6f29167b841cca8b83a4749f193f630a94987182dac45fe910abe0dbfaf9b8c4")


def run(argv):
    return main(argv)


class TestCodes:
    def test_list_names(self, capsys):
        assert run(["codes", "list"]) == 0
        out = capsys.readouterr().out.split()
        assert out == ["five_qubit", "steane", "shor", "five_qudit"]

    def test_list_json(self, capsys):
        assert run(["codes", "list", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "presets": ["five_qubit", "steane", "shor", "five_qudit"]}

    def test_show_five_qubit(self, capsys):
        assert run(["codes", "show", "--code", "five_qubit"]) == 0
        out = capsys.readouterr().out
        assert out.count("S") >= 4 and "pair sites: [1]" in out

    def test_unknown_code_exits_2(self, capsys):
        assert run(["codes", "show", "--code", "bogus"]) == 2
        assert capsys.readouterr().err == (
            "error: unknown code preset 'bogus'; "
            "known: five_qubit, steane, shor, five_qudit\n")

    @pytest.mark.parametrize("name, message", [
        ("five_qudit:abc", "'abc' in 'five_qudit:abc' is not an integer"),
        ("steane:3", "steane is a qubit code; q=3 is not 2"),
        ("five_qubit:5", "five_qubit is a qubit code; q=5 is not 2"),
    ])
    def test_bad_preset_dimension_exits_2(self, name, message, capsys):
        assert run(["codes", "show", "--code", name]) == 2
        assert message in capsys.readouterr().err

    def test_show_json_round_trips(self, capsys):
        assert run(["codes", "show", "--code", "five_qubit", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert load_code(doc) == code_preset("five_qubit")

    @pytest.mark.parametrize("text, message", [
        (json.dumps({**FIVE_QUBIT_DOC, "generators": 5}),
         "generators must be a list"),
        (json.dumps({**FIVE_QUBIT_DOC, "pair_sites": 3}),
         "pair_sites must be a list"),
        (json.dumps({**FIVE_QUBIT_DOC, "pair_sites": "a"}),
         "pair_sites must be a list"),
        (json.dumps({k: v for k, v in FIVE_QUBIT_DOC.items()
                     if k != "logical_x"}), "missing 'logical_x'"),
        ('{"name": "five_qubit",', "Expecting property name"),
    ], ids=["generators-int", "pair_sites-int", "pair_sites-str",
            "no-logical_x", "truncated"])
    def test_malformed_code_file_exits_2(self, text, message, tmp_path,
                                         capsys):
        path = tmp_path / "code.json"
        path.write_text(text)
        assert run(["codes", "show", "--code-file", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed code document: ")
        assert message in err

    @pytest.mark.parametrize("argv", [
        ["codes", "show", "--code", "five_qudit:1000000000000000003"],
        ["selftest", "deduce", "--code", "five_qudit:2305843009213693951"],
        ["codes", "show", "--code-file", "DOC"],
    ], ids=["preset-show", "preset-deduce", "document"])
    def test_huge_q_refused_before_primality(self, argv, tmp_path, capsys):
        doc = tmp_path / "code.json"
        doc.write_text(json.dumps({**FIVE_QUBIT_DOC, "q": 2**61 - 1}))
        argv = [str(doc) if arg == "DOC" else arg for arg in argv]
        start = time.perf_counter()
        assert run(argv) == 2
        assert time.perf_counter() - start < 1.0
        assert "exceeds dense cap 16384" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["codes", "show"], ["simulate", "estimate", "--seed", "1"],
], ids=["show", "simulate"])
@pytest.mark.parametrize("logical, phase", [
    ("logical_z", 1), ("logical_z", 3), ("logical_x", 1)])
def test_non_involutive_logical_exits_2(argv, logical, phase, tmp_path, capsys):
    doc = copy.deepcopy(FIVE_QUBIT_DOC)
    doc[logical]["phase"] = phase  # i Zbar squares to -I: not a +-1 logical
    path = tmp_path / "code.json"
    path.write_text(json.dumps(doc))
    assert run(argv + ["--code-file", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {logical} does not satisfy L^q = I exactly\n"


@pytest.mark.parametrize("argv", [
    ["verify", "all"], ["bell", "build"],
    ["simulate", "estimate", "--seed", "1"], ["selftest", "deduce"],
], ids=["verify", "bell", "simulate", "selftest"])
def test_signed_generator_exits_2(argv, tmp_path, capsys):
    doc = code_preset("steane").to_json()
    doc["generators"][0]["phase"] = 2  # S1 = -X4 X5 X6 X7, a valid code
    path = tmp_path / "signed.json"
    path.write_text(json.dumps(doc))
    assert run(argv + ["--code-file", str(path)]) == 2
    assert capsys.readouterr().err == "error: operator words must be phase-free\n"


@pytest.mark.parametrize("argv, want", [
    (["verify", "all", "--theta", "0.3", "--alpha0", "1"], 2),
    (["simulate", "estimate", "--seed", "1"], 2),
    (["verify", "all"], 0),
    # the classical check needs only the top eigenvalue: the sectors' 5.0
    (["verify", "classical", "--theta", "0.3", "--alpha0", "1"], 0),
], ids=["tilted-verify", "simulate", "untilted-verify", "tilted-classical"])
def test_k2_code_refuses_logical_basis(argv, want, capsys):
    # [[4,2,2]]: the codespace certificate holds, a tilted codeword needs k = 1
    assert run(argv + ["--code-file", str(CODE422)]) == want
    captured = capsys.readouterr()
    if want == 2:
        assert captured.out == ""
        assert captured.err == "error: logical basis defined for k=1 codes, not k=2\n"


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

    @pytest.mark.parametrize("argv, message", [
        (["verify", "all", "--alpha", "inf,1,1,1"], "alpha_1 = inf"),
        (["bell", "build", "--alpha0", "nan"], "alpha0 = nan"),
        (["verify", "sos", "--alpha", "nan,1,1,1"], "alpha_1 = nan"),
        (["verify", "all", "--alpha0", "inf"], "alpha0 = inf"),
    ], ids=["alpha-inf", "alpha0-nan", "alpha-nan", "alpha0-inf"])
    def test_non_finite_weight_exits_2(self, argv, message, capsys):
        assert run(argv + ["--code", "five_qubit"]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["verify", "all", "--code", "five_qubit", "--theta", "0.3",
         "--alpha0", "1e308"],
        ["verify", "all", "--code", "steane", "--mu", "1e-300"],
        ["verify", "all", "--code", "five_qubit",
         "--alpha", "1e308,1e308,1e308,1e308"],
        ["bell", "build", "--code", "steane", "--mu", "1e-300"],
    ], ids=["alpha0-1e308", "verify-mu-1e-300", "alpha-1e308",
            "build-mu-1e-300"])
    def test_overflowing_certificate_exits_2(self, argv, tmp_path, capsys):
        # finite weights and mu whose products overflow: no NaN report and
        # no -Infinity coefficient in a written file
        out = tmp_path / "f.json"
        assert run(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", (
            "error: the bound or a coefficient is not finite: weights or mu "
            "out of range\n"))
        assert not out.exists()

    def test_huge_finite_coefficients_compile(self, capsys):
        assert run(["bell", "build", "--code", "steane", "--mu", "1e-40"]) == 0
        assert "bound = 8\n" in capsys.readouterr().out

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

    @pytest.mark.parametrize("tilt, top, mult", [
        ([], 28.0, 2), (["--theta", "0.3", "--alpha0", "1"], 29.0, 1)])
    def test_quantum_reed_muller_15(self, tilt, top, mult, capsys):
        # [[15,1,3]]: 2^15 exceeds the dense matrix cap, its 2^14 syndrome
        # sectors do not
        assert run(["verify", "all", "--code-file", str(QRM15)] + tilt) == 0
        checks = json.loads(capsys.readouterr().out)["checks"]
        spectral, classical = checks["spectral"], checks["classical"]
        assert (spectral["bound"], spectral["multiplicity"]) == (top, mult)
        assert spectral["max_eigenvalue"] == pytest.approx(top, abs=1e-9)
        assert spectral["gap"] == pytest.approx(4.0, abs=1e-9)
        assert classical["classical_bound"] == pytest.approx(
            12 + 8 * math.sqrt(2), abs=1e-9)

    def test_k2_code_beyond_the_dense_cap(self, capsys):
        # two Steane blocks, [[14,2]]: 2^14 exceeds the dense matrix cap,
        # its 2^12 syndrome sectors do not
        assert run(["verify", "all", "--code-file", str(STEANE2)]) == 0
        spectral = json.loads(capsys.readouterr().out)["checks"]["spectral"]
        assert (spectral["max_eigenvalue"], spectral["multiplicity"],
                spectral["subspace_distance"]) == (12.0, 4, 0.0)

    def test_tilted_k2_classical_beyond_the_dense_cap(self, capsys):
        # the sectors carry Xbar and Zbar for every k >= 1: the tilted
        # [[14,2]] certificate attains its bound 13 with no 2^14 matrix
        assert run(["verify", "classical", "--code-file", str(STEANE2),
                    "--theta", "0.3", "--alpha0", "1"]) == 0
        classical = json.loads(capsys.readouterr().out)["checks"]["classical"]
        assert classical["quantum_value"] == pytest.approx(13.0, abs=1e-9)

    def test_infinite_gap_is_json_null(self, capsys):
        # at mu = 1e-40 every eigenvalue joins the top cluster, so nothing
        # lies below it; the report stays strict JSON and still fails
        def refuse(name):
            raise ValueError(f"non-JSON constant {name}")

        for check in ("spectral", "all"):
            assert run(["verify", check, "--code", "steane",
                        "--mu", "1e-40"]) == 1
            doc = json.loads(capsys.readouterr().out, parse_constant=refuse)
            assert doc["checks"]["spectral"]["gap"] is None
            assert not doc["passed"]

    def test_sectors_above_cap_exit_2(self, tmp_path, capsys):
        # the 23-qubit repetition code has 2^22 syndrome sectors
        n = 23
        zero = [0] * n
        doc = {"name": "repetition23", "n": n, "k": 1, "q": 2,
               "generators": [{"x": zero, "z": [int(k in (i, i + 1))
                                                for k in range(n)]}
                              for i in range(n - 1)],
               "logical_x": {"x": [1] * n, "z": zero},
               "logical_z": {"x": zero, "z": [1] + zero[1:]}}
        path = tmp_path / "repetition23.json"
        path.write_text(json.dumps(doc))
        assert run(["verify", "all", "--code-file", str(path)]) == 2
        assert ("error: 4194304 syndrome sectors exceed the sector cap "
                "2097152" in capsys.readouterr().err)

    def test_bad_alpha_exits_2(self, capsys):
        assert run(["verify", "all", "--code", "five_qubit",
                    "--alpha", "1,x"]) == 2
        assert "bad numeric list '1,x'" in capsys.readouterr().err

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

    @pytest.mark.parametrize("mutate", [
        lambda doc: doc["meta"].update(mu="x"),
        lambda doc: doc["meta"].update(n="two"),
        lambda doc: doc["meta"].update(n=math.inf),
        lambda doc: doc["meta"].update(n=2.7),
        lambda doc: doc["meta"].update(mu=3.0),
        lambda doc: doc["meta"].update(pair_sites=7),
        lambda doc: doc["meta"].update(pair_sites=[3]),
        lambda doc: doc["meta"].update(pair_sites=[1.5]),
        lambda doc: doc["meta"].update(n=1),
        lambda doc: doc["terms"][0]["factors"][0].update(word=["A2"]),
        lambda doc: doc["terms"][0].pop("coeff"),
        lambda doc: doc.update(terms=5),
        lambda doc: doc.update(meta=5),
        lambda doc: doc["terms"][0]["factors"].append(
            dict(doc["terms"][0]["factors"][0], word=["A1"])),
        lambda doc: doc["terms"][0]["factors"][0].update(site=1.7),
        lambda doc: doc["terms"][0].update(coeff=math.nan),
        lambda doc: doc["terms"][1].update(coeff=math.inf),
    ], ids=["mu-str", "n-str", "n-inf", "n-float", "mu-range", "pair_sites-int",
            "pair_sites-range", "pair_sites-float", "n-below-sites", "letter", "no-coeff",
            "terms-int", "meta-int", "site-repeated", "site-float", "coeff-nan",
            "coeff-inf"])
    def test_malformed_poly_file_exits_2(self, mutate, tmp_path, capsys):
        path = tmp_path / "p.json"
        assert run(["bell", "build", "--code", "chsh", "--out", str(path)]) == 0
        doc = json.loads(path.read_text())
        mutate(doc)
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["verify", "classical", "--poly-file", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed polynomial") or (
            "touches site" in err), err

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

    @pytest.mark.parametrize("name", ["five_qubit", "steane", "shor"])
    def test_code_file_matches_preset(self, name, tmp_path, capsys):
        # a document equal to the preset gets its extras and weights
        doc = tmp_path / "code.json"
        doc.write_text(json.dumps(code_preset(name).to_json()))
        for argv in (["verify", "all"], ["selftest", "deduce"]):
            assert run(argv + ["--code", name]) == 0
            from_preset = capsys.readouterr().out
            assert run(argv + ["--code-file", str(doc)]) == 0
            assert capsys.readouterr().out == from_preset

    def test_preset_name_alone_brings_no_extras(self, tmp_path, capsys):
        # Steane with qubits 1 and 4 swapped is a valid code, but the
        # preset's extras X1 X2 X5 X6 and Z1 Z2 Z5 Z6 do not stabilize it
        doc = code_preset("steane").to_json()
        for word in doc["generators"] + [doc["logical_x"], doc["logical_z"]]:
            for key in ("x", "z"):
                word[key][0], word[key][3] = word[key][3], word[key][0]
        seen = {}
        for name in ("steane", "swapped"):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({**doc, "name": name}))
            seen[name] = []
            for argv in (["verify", "all"], ["selftest", "deduce"]):
                rc = run(argv + ["--code-file", str(path)])
                out = capsys.readouterr().out.replace(f'"{name}"', '"NAME"')
                seen[name].append((rc, out))
        assert seen["steane"] == seen["swapped"]
        assert [rc for rc, _ in seen["steane"]] == [0, 3]

    @pytest.mark.parametrize("argv, sectors, dense", [
        (["all", "--code", "five_qubit"], 1, 0),
        (["classical", "--code", "shor"], 1, 0),
        (["classical", "--code-file", str(CODE422), "--theta", "0.3",
          "--alpha0", "1"], 1, 0),
        (["all", "--code", "chsh"], 0, 1),
    ], ids=["all-five_qubit", "classical-shor", "classical-code422-tilted",
            "all-chsh"])
    def test_all_computes_one_spectrum(self, argv, sectors, dense, capsys,
                                       monkeypatch):
        # the spectral and classical checks read one spectrum: the sector
        # route for a code, the dense matrix for the code-less CHSH fixture
        calls = {"materialize": 0, "sector_spectrum": 0}

        def counting(name):
            real = getattr(verify, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(verify, name, counting(name))
        assert run(["verify"] + argv) == 0
        assert calls == {"materialize": dense, "sector_spectrum": sectors}

    @pytest.mark.parametrize("argv, subs, squares", [
        (["--code", "shor"], 9, 18),
        (["--code", "steane", "--theta", "0.7", "--alpha0", "1"], 10, 18),
        (["--code", "five_qubit"], 4, 8),
    ])
    def test_all_expands_each_operator_once(self, argv, subs, squares,
                                            capsys, monkeypatch):
        # one substitution per operator and logical, one square per S_i
        # and P in build_bell and one per (S_i - 1), (P - 1) in verify_sos
        calls = {"substitute": 0, "square": 0}
        substitute, square = compiler.substitute, BellPolynomial.square

        def counting_substitute(*args):
            calls["substitute"] += 1
            return substitute(*args)

        def counting_square(self):
            calls["square"] += 1
            return square(self)

        monkeypatch.setattr(compiler, "substitute", counting_substitute)
        monkeypatch.setattr(BellPolynomial, "square", counting_square)
        assert run(["verify", "all"] + argv) == 0
        assert calls == {"substitute": subs, "square": squares}

    def test_every_check_passes_at_every_mu(self, monkeypatch, capsys):
        # the canonical realization exists at every mu, and every check of a
        # preset takes the sector route: no dense matrix is built
        calls = []
        materialize = verify.materialize

        def counting_materialize(*args):
            calls.append(args)
            return materialize(*args)

        monkeypatch.setattr(verify, "materialize", counting_materialize)
        for check in ("sos", "spectral", "classical"):
            assert run(["verify", check, "--code", "five_qubit",
                        "--mu", "0.7"]) == 0, check
        for code in ("five_qubit", "steane", "shor"):
            for mu in ("0.3", "0.7", "1.2"):
                for cert in ([], ["--theta", "0.3", "--alpha0", "1"]):
                    argv = ["verify", "all", "--code", code, "--mu", mu] + cert
                    assert run(argv) == 0, argv
        capsys.readouterr()
        assert calls == []

    @pytest.mark.parametrize("scale", [1e6, 1e7])
    def test_large_weights_take_the_sector_route(self, scale, monkeypatch,
                                                 capsys):
        # a cancellation's rounding residue grows with the weights, and a
        # word kept for it would send the check to the dense matrix
        calls = []
        materialize = verify.materialize
        monkeypatch.setattr(verify, "materialize",
                            lambda *a: calls.append(a) or materialize(*a))
        w = f"{scale:g}"
        for code, ops in (("five_qubit", 4), ("steane", 8), ("shor", 9)):
            for tilt in ([], ["--theta", "0.3", "--alpha0", w]):
                argv = (["verify", "all", "--code", code,
                         "--alpha", ",".join([w] * ops)] + tilt)
                assert run(argv) == 0, argv
        argv = ["verify", "spectral", "--code-file", str(QRM15),
                "--theta", "0.3", "--alpha0", w, "--alpha", ",".join([w] * 14)]
        assert run(argv) == 0, argv
        capsys.readouterr()
        assert calls == []

    @pytest.mark.parametrize("command", [["bell", "build"], ["verify", "all"]])
    @pytest.mark.parametrize("flag, value", [
        ("--theta", "0.3"), ("--alpha0", "1"), ("--alpha", "2"),
        ("--mu", "0.7"), ("--theta", "nan")])
    def test_chsh_refuses_certificate_flags(self, command, flag, value,
                                            capsys):
        assert run(command + ["--code", "chsh", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: --code chsh has a fixed certificate: "
                                f"no {flag}\n")

    @pytest.mark.parametrize("form", ["chsh", "verify-poly-file",
                                      "simulate-poly-file"])
    @pytest.mark.parametrize("flag", [["--theta", "0.3"], ["--alpha0", "1"],
                                      ["--alpha", "3,3,3,3"], ["--mu", "0.7"],
                                      ["--no-extras"]],
                             ids=lambda flag: flag[0])
    def test_flags_that_reach_nothing_are_refused(self, form, flag, tmp_path,
                                                  capsys):
        # neither the fixed CHSH certificate nor a stored polynomial is
        # compiled here, so no certificate flag can change the result
        poly = tmp_path / "i5.json"
        assert run(["bell", "build", "--code", "five_qubit",
                    "--out", str(poly)]) == 0
        capsys.readouterr()
        argv, why = {
            "chsh": (["verify", "all", "--code", "chsh"],
                     "--code chsh has a fixed certificate"),
            "verify-poly-file": (["verify", "classical", "--code", "five_qubit",
                                  "--poly-file", str(poly)],
                                 "--poly-file gives the polynomial"),
            "simulate-poly-file": (["simulate", "estimate", "--code",
                                    "five_qubit", "--seed", "1",
                                    "--poly-file", str(poly)],
                                   "--poly-file gives the polynomial"),
        }[form]
        assert run(argv) == 0
        capsys.readouterr()
        assert run(argv + flag) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {why}: no {flag[0]}\n"

    def test_chsh_accepts_certificate_flags_at_their_defaults(self, capsys):
        assert run(["verify", "all", "--code", "chsh"]) == 0
        plain = capsys.readouterr().out
        assert run(["verify", "all", "--code", "chsh", "--theta", "0",
                    "--alpha0", "0", "--mu", repr(math.pi / 4)]) == 0
        assert capsys.readouterr().out == plain

    def test_sweep_needs_spectral_check(self, capsys):
        for check in ("all", "sos", "classical"):
            assert run(["verify", check, "--code", "shor",
                        "--sweep", "0.3"]) == 2, check
            assert "--sweep needs the spectral check" in capsys.readouterr().err

    @pytest.mark.parametrize("check, sweep, message", [
        ("spectral", ",", "--sweep ',' lists no angle"),
        ("spectral", "", "--sweep '' lists no angle"),
        ("spectral", " , ", "--sweep ' , ' lists no angle"),
        ("all", "", "--sweep needs the spectral check, not all"),
        ("classical", ",", "--sweep needs the spectral check, not classical"),
    ])
    def test_empty_sweep_exits_2(self, check, sweep, message, capsys):
        assert run(["verify", check, "--code", "steane", "--sweep", sweep]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

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
    def test_bad_subset_exits_2(self, capsys):
        assert run(["selftest", "deduce", "--code", "five_qubit",
                    "--subset", "1,x"]) == 2
        assert "bad integer list '1,x'" in capsys.readouterr().err

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

    @pytest.mark.parametrize("action", ["deduce", "search"])
    @pytest.mark.parametrize("facts", ["0", "-1"])
    def test_budget_facts_below_one_exits_2(self, capsys, action, facts):
        assert run(["selftest", action, "--code", "five_qubit",
                    "--budget-facts", facts]) == 2
        assert "--budget-facts must be >= 1" in capsys.readouterr().err

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

    def test_json_renders_no_transcript_text(self, monkeypatch, capsys):
        assert run(["selftest", "deduce", "--code", "five_qubit", "--json"]) == 0
        plain = capsys.readouterr().out

        def refuse(transcript):
            raise AssertionError("transcript rendered under --json")
        monkeypatch.setattr(engine, "transcript_render", refuse)
        assert run(["selftest", "deduce", "--code", "five_qubit", "--json"]) == 0
        assert capsys.readouterr().out == plain

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

    def test_noise_probability_above_one_exits_2(self, capsys):
        assert run(["simulate", "noise-sweep", "--code", "five_qubit",
                    "--shots", "1000", "--seed", "7", "--p-grid", "0,1.5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "noise probability 1.5 outside [0, 1]" in captured.err

    @pytest.mark.parametrize("grid", [",", "", " ,, "])
    def test_empty_noise_grid_exits_2(self, grid, capsys):
        assert run(["simulate", "noise-sweep", "--code", "five_qubit",
                    "--shots", "1000", "--seed", "7", "--p-grid", grid]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --p-grid {grid!r} lists no probability\n"

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

    @pytest.mark.parametrize("flags, message", [
        (["--state-theta", "nan"], "--state-theta nan is not finite"),
        (["--state-theta", "inf"], "--state-theta inf is not finite"),
        # finite, but sin 2 theta and cos 2 theta are not
        (["--state-theta", "1e308"], "--state-theta 1e+308 doubles to inf"),
        (["--state-theta=-1e308"], "--state-theta -1e+308 doubles to -inf"),
        (["--seed", "-1"], "--seed -1 must be >= 0"),
    ], ids=["theta-nan", "theta-inf", "theta-1e308", "theta-minus-1e308",
            "seed-negative"])
    def test_bad_state_or_seed_exits_2(self, flags, message, capsys):
        argv = ["simulate", "estimate", "--code", "five_qubit", "--seed", "1"]
        assert run(argv + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("action", ["estimate", "noise-sweep"])
    def test_largest_doubling_state_theta_runs(self, action, capsys):
        assert run(["simulate", action, "--code", "five_qubit", "--seed", "1",
                    "--shots", "1000", "--state-theta", "8e307"]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and "nan" not in captured.out

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

    def test_poly_file_constant_term_adds_exactly(self, tmp_path, capsys):
        # a constant term is added, not sampled: same shots, same stderr
        plain, shifted = tmp_path / "plain.json", tmp_path / "shifted.json"
        assert run(["bell", "build", "--code", "five_qubit",
                    "--out", str(plain)]) == 0
        doc = json.loads(plain.read_text())
        doc["terms"].append({"coeff": 2.5, "factors": []})
        shifted.write_text(json.dumps(doc))
        capsys.readouterr()
        reports = []
        for path in (plain, shifted):
            assert run(["simulate", "estimate", "--code", "five_qubit",
                        "--shots", "5000", "--seed", "7",
                        "--poly-file", str(path)]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        without, with_constant = reports
        assert with_constant["estimate"] == pytest.approx(
            2.5 + without["estimate"], abs=1e-12)
        assert (with_constant["stderr"], with_constant["shots"]) == (
            without["stderr"], without["shots"])

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

    def test_strategy_measures_at_the_polynomial_mu(self, monkeypatch,
                                                    tmp_path, capsys):
        # these weights cancel the squares at mu = 0.7 (reduced form); the
        # strategy attains the bound only with settings at the same mu
        cert = ["--code", "five_qubit", "--mu", "0.7",
                "--alpha", "1,1,1,1.4188994317262345"]
        path = tmp_path / "p.json"
        assert run(["bell", "build", "--out", str(path)] + cert) == 0
        seen = []
        estimate = sim.estimate_bell

        def capturing_estimate(strategy, poly, *args, **kwargs):
            seen.append((strategy, poly))
            return estimate(strategy, poly, *args, **kwargs)

        monkeypatch.setattr(sim, "estimate_bell", capturing_estimate)
        base = ["simulate", "estimate", "--shots", "1000", "--seed", "1"]
        assert run(base + cert) == 0
        assert run(base + ["--code", "five_qubit", "--poly-file", str(path)]) == 0
        capsys.readouterr()
        for strategy, poly in seen:
            assert poly.meta["reduced_form"]
            code, theta, asg = strategy.codeword
            v0, v1 = verify.logical_basis(code)
            state = math.cos(theta) * v0 + math.sin(theta) * v1
            h = verify.materialize(poly, verify.canonical_realization(asg))
            value = np.vdot(state, h @ state).real
            assert abs(value - poly.meta["bound"]) <= 1e-9

    def test_byte_identical_reruns(self, capsys):
        args = ["simulate", "estimate", "--code", "five_qubit",
                "--shots", "5000", "--seed", "2024"]
        assert run(args) == 0
        first = capsys.readouterr().out
        assert run(args) == 0
        assert capsys.readouterr().out == first

    def test_golden_simulate_digest(self, capsys):
        published = "1.4142135623730951,1,1.4142135623730951,2.8284271247461903"
        est = ["simulate", "estimate", "--code", "five_qubit"]
        sweep = ["simulate", "noise-sweep", "--code", "five_qubit"]
        reduced_07 = ["--mu", "0.7", "--alpha", "1,1,1,1.4188994317262345"]
        runs = [
            est + ["--shots", "1000000", "--seed", "7", "--alpha", published],
            sweep + ["--shots", "100000", "--seed", "7",
                     "--p-grid", "0,0.05,0.1,1"],
            est + ["--shots", "7", "--seed", "1", "--alpha", published],
            est + ["--shots", "20000", "--seed", "3",
                   "--state-theta", "0.4"] + reduced_07,
            est + ["--shots", "20000", "--seed", "3", "--state-theta", "0.4",
                   "--allocation", "uniform"] + reduced_07,
            # the tilted polynomial has sequential monomials: exit 5
            est + ["--shots", "1000", "--seed", "3", "--theta", "0.4",
                   "--alpha0", "1", "--mu", "0.7"],
            sweep + ["--shots", "20000", "--seed", "4",
                     "--p-grid", "0,0.05,0.1,0.3,1"],
        ]
        digest = hashlib.sha256()
        for argv in runs:
            code = run(argv)
            digest.update(repr((argv, code, capsys.readouterr().out)).encode())
        assert digest.hexdigest() == GOLDEN_SIMULATE_DIGEST


    def test_qrm15_estimate_and_sweep(self, capsys):
        # n = 15: no 2^15 codeword is built, so the estimate runs
        code = load_code(QRM15.read_text())
        bound = compiler.build_bell(compiler.default_certificate(code),
                                    code).bound
        assert bound == pytest.approx(28.0)
        base = ["--code-file", str(QRM15), "--shots", "200000", "--seed", "1"]
        assert run(["simulate", "estimate"] + base) == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["estimate"] - bound) <= 5 * doc["stderr"]
        assert run(["simulate", "noise-sweep"] + base) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert rows[0] == (f"0,200000,{doc['estimate']:.10g},"
                           f"{doc['stderr']:.10g}")

    def test_estimates_build_no_codespace(self, monkeypatch, capsys):
        argvs = [["simulate", "estimate", "--code", "five_qubit",
                  "--shots", "20000", "--seed", "3", "--state-theta", "0.4",
                  "--mu", "0.7", "--alpha", "1,1,1,1.4188994317262345"],
                 ["simulate", "noise-sweep", "--code-file", str(QRM15),
                  "--shots", "20000", "--seed", "4", "--p-grid", "0,0.1,1"]]
        before = []
        for argv in argvs:
            assert run(argv) == 0
            before.append(capsys.readouterr().out)

        def refuse(*args):
            raise AssertionError("built a codespace")

        for module, name in ((verify, "logical_basis"),
                             (verify, "codespace_basis"),
                             (pauli, "codespace_basis")):
            monkeypatch.setattr(module, name, refuse)
        for argv, out in zip(argvs, before):
            assert run(argv) == 0
            assert capsys.readouterr().out == out


class TestRepeatedCalls:
    def test_calls_in_one_process_are_independent(self, tmp_path, capsys):
        doc = tmp_path / "steane.json"
        doc.write_text(json.dumps(code_preset("steane").to_json()))

        def call(argv):
            try:
                status = main(argv)
            except SystemExit as exc:
                status = exc.code
            captured = capsys.readouterr()
            return status, captured.out, captured.err

        plain = ["verify", "all", "--code", "five_qubit"]
        first = call(plain)
        assert first[0] == 0 and first[2] == ""
        tilted = call(["verify", "all", "--code", "steane", "--no-extras",
                       "--alpha0", "1", "--theta", "0.3"])
        assert tilted[0] == 0 and json.loads(tilted[1])["passed"]
        usage = call(["verify", "all", "--code", "steane",
                      "--code-file", str(doc)])
        assert usage[0] == 2 and "not allowed with argument" in usage[2]
        assert call(["verify", "all", "--code", "chsh", "--alpha0", "1"]) == (
            2, "", "error: --code chsh has a fixed certificate: no --alpha0\n")
        assert call(plain) == first
        # the shared parser still gives every default, --no-extras included
        for argv in (plain, ["verify", "all", "--code", "steane"]):
            args = cli._parser().parse_args(argv)
            assert vars(args) == vars(cli.build_parser().parse_args(argv))
            assert (args.no_extras, args.alpha0, args.theta) == (False, 0.0,
                                                                 0.0)

    def test_parser_built_once(self, monkeypatch, capsys):
        built, build = [], cli.build_parser

        def counting_build():
            built.append(1)
            return build()
        monkeypatch.setattr(cli, "build_parser", counting_build)
        cli._parser.cache_clear()
        try:
            for _ in range(3):
                assert main(["codes", "list"]) == 0
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1
        assert capsys.readouterr().out.split() == [
            "five_qubit", "steane", "shor", "five_qudit"] * 3


class TestRefusalFamily:
    def test_refusal_classes_are_input_errors(self):
        for cls in (CodeValidationError, SizeLimitError,
                    compiler.CertificateError, engine.ProblemError,
                    verify.RealizationError):
            assert issubclass(cls, InputError), cls
        assert issubclass(InputError, ValueError)
        assert not issubclass(sim.EstimationError, InputError)

    def test_internal_key_error_is_not_usage(self, monkeypatch):
        def broken(problem, budget):
            raise KeyError("internal")
        monkeypatch.setattr(engine, "deduce", broken)
        with pytest.raises(KeyError):
            run(["selftest", "deduce", "--code", "shor"])


_MUTABLE_DOCS = {name: code_preset(name).to_json()
                 for name in ("five_qubit", "steane")}


@st.composite
def _mutated_code_documents(draw):
    """A five_qubit or steane document with one field changed."""
    doc = copy.deepcopy(_MUTABLE_DOCS[draw(st.sampled_from(sorted(_MUTABLE_DOCS)))])
    words = doc["generators"] + [doc["logical_x"], doc["logical_z"]]
    kind = draw(st.sampled_from(["exponent", "phase", "pair_sites", "k", "q",
                                 "n", "drop", "repeat", "swap"]))
    if kind == "exponent":
        word = draw(st.sampled_from(words))
        exps = word[draw(st.sampled_from("xz"))]
        site = draw(st.integers(0, doc["n"] - 1))
        exps[site] ^= 1
    elif kind == "phase":
        draw(st.sampled_from(words))["phase"] = draw(st.integers(1, 3))
    elif kind == "pair_sites":
        doc["pair_sites"] = draw(st.lists(st.integers(0, doc["n"] + 1),
                                          max_size=3))
    elif kind in ("k", "q", "n"):
        doc[kind] = draw(st.integers(0, 8))
    elif kind in ("drop", "repeat"):
        i = draw(st.integers(0, len(doc["generators"]) - 1))
        gen = doc["generators"].pop(i)
        if kind == "repeat":
            doc["generators"] += [gen, gen]
    else:
        doc["logical_x"], doc["logical_z"] = doc["logical_z"], doc["logical_x"]
    return doc


def _with_logical_z_phase(phase):
    doc = copy.deepcopy(FIVE_QUBIT_DOC)
    doc["logical_z"]["phase"] = phase
    return doc


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(doc=_mutated_code_documents())
@example(doc=_with_logical_z_phase(1))
def test_mutated_code_document_exits_by_family(doc, tmp_path_factory):
    path = tmp_path_factory.mktemp("doc") / "code.json"
    path.write_text(json.dumps(doc))
    allowed = [(["codes", "show"], {0, 2}),
               (["simulate", "estimate", "--shots", "2000", "--seed", "1"],
                {0, 2, 5}),
               (["selftest", "deduce"], {0, 2, 3, 4})]
    for argv, codes in allowed:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = run(argv + ["--code-file", str(path)])
        assert code in codes, (argv, doc)
