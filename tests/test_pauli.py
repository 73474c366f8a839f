import hashlib
import json
import math

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from bellcert import pauli
from bellcert.pauli import (CodeValidationError, PauliWord, SizeLimitError,
                            StabilizerCode, apply_word, code_preset,
                            codespace_basis, comm_exponent, load_code, mul,
                            preset_data, stabilizer_group)
from bellcert.verify import principal_angle_sin


def _rand_word(rng, n, q=2):
    return PauliWord(n, q,
                     tuple(int(v) for v in rng.integers(0, q, n)),
                     tuple(int(v) for v in rng.integers(0, q, n)),
                     int(rng.integers(0, 2 * q)))


def test_identity_multiplication():
    x1 = PauliWord.from_factors(1, [(1, "X", 1)])
    assert mul(x1, PauliWord.identity(1)) == x1
    assert mul(PauliWord.identity(1), x1) == x1


def test_xz_is_minus_i_y():
    x = PauliWord.from_factors(1, [(1, "X", 1)])
    z = PauliWord.from_factors(1, [(1, "Z", 1)])
    y = np.array([[0, -1j], [1j, 0]])
    assert np.array_equal(mul(x, z).matrix(), -1j * y)


def test_qutrit_commutation_phase():
    x = PauliWord.from_factors(1, [(1, "X", 1)], q=3)
    z = PauliWord.from_factors(1, [(1, "Z", 1)], q=3)
    assert comm_exponent(z, x) == 1
    omega = np.exp(2j * np.pi / 3)
    assert np.allclose(mul(z, x).matrix(), omega * mul(x, z).matrix())


def test_mul_matches_matrix_product_exhaustively(rng):
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        a, b = _rand_word(rng, n), _rand_word(rng, n)
        assert np.array_equal(mul(a, b).matrix(), a.matrix() @ b.matrix())


def test_comm_exponent_matches_matrices(rng):
    for _ in range(300):
        n = int(rng.integers(1, 4))
        a, b = _rand_word(rng, n), _rand_word(rng, n)
        e = comm_exponent(a, b)
        assert np.array_equal(mul(a, b).matrix(),
                              (-1.0)**e * mul(b, a).matrix())


def test_mul_associative(rng):
    for _ in range(200):
        n = int(rng.integers(1, 4))
        q = int(rng.choice([2, 3]))
        a, b, c = (_rand_word(rng, n, q) for _ in range(3))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))


def test_dagger_matches_adjoint(rng):
    for q in (2, 3, 5):
        for _ in range(50):
            w = _rand_word(rng, 2, q)
            assert np.allclose(w.dagger().matrix(), w.matrix().conj().T)


def test_matrix_refused_above_dense_matrix_cap():
    # 2^13 x 2^13 complex is 1 GiB, before apply_word's copies of that size
    with pytest.raises(SizeLimitError, match="8192 exceeds dense matrix cap"):
        PauliWord.identity(13).matrix()


def test_apply_word_matches_matrix(rng):
    for q in (2, 3):
        w = _rand_word(rng, 3, q)
        dim = q**3
        assert np.allclose(apply_word(w, np.eye(dim, dtype=complex)),
                           w.matrix())


@pytest.mark.parametrize("name,n_gens,n,pair", [
    ("five_qubit", 4, 5, {1}),
    ("steane", 6, 7, {2, 3, 5, 7}),
    ("shor", 8, 9, {1, 4, 7}),
])
def test_presets(name, n_gens, n, pair):
    code = code_preset(name)
    assert len(code.generators) == n_gens
    assert code.n == n
    assert code.pair_sites == frozenset(pair)


def test_preset_generators_commute():
    for name in ("five_qubit", "steane", "shor", "five_qudit:3"):
        code = code_preset(name)
        for i, a in enumerate(code.generators):
            for b in code.generators[i + 1:]:
                assert comm_exponent(a, b) == 0


@pytest.mark.parametrize("name", ["five_qubit", "steane", "shor", "five_qudit:3"])
def test_preset_codespace_basis(name):
    code = code_preset(name)
    basis = codespace_basis(code)
    assert basis.shape == (code.q**code.n, code.q**code.k)
    assert np.abs(basis.conj().T @ basis - np.eye(basis.shape[1])).max() <= 1e-10
    for g in code.generators:
        assert np.abs(apply_word(g, basis) - basis).max() <= 1e-9
    if name == "shor":
        return  # the 256-element dense group average is too slow for tier-1
    group = stabilizer_group(code.generators)
    proj = sum(g.matrix() for g in group) / len(group)
    vals, vecs = np.linalg.eigh((proj + proj.conj().T) / 2)
    assert principal_angle_sin(vecs[:, vals > 0.5], basis) <= 1e-9


def test_codespace_basis_rejects_anticommuting_generators():
    # such generators are refused when the code is built, so no
    # codespace_basis call ever sees them
    x1 = PauliWord.from_factors(2, [(1, "X", 1)])
    z1 = PauliWord.from_factors(2, [(1, "Z", 1)])
    with pytest.raises(CodeValidationError, match="not Abelian: S_1, S_2"):
        StabilizerCode("bad", 2, 1, 2, (x1, z1), logical_x=x1, logical_z=z1)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.sampled_from([2, 3, 5, 7, 11]), st.data())
def test_closed_form_order_check_matches_power(q, data):
    n = data.draw(st.integers(1, 4))
    exps = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    word = PauliWord(n, q, tuple(data.draw(exps)), tuple(data.draw(exps)),
                     data.draw(st.integers(0, 2 * q - 1)))
    assert pauli._power_q_is_identity(word) == word.power(q).is_identity


def test_large_qudit_preset_builds_without_q_fold_products(monkeypatch):
    # W^q = I is checked in closed form, not by a q-fold product
    calls = []
    monkeypatch.setattr(pauli, "mul",
                        lambda a, b: calls.append(1) or mul(a, b))
    code = code_preset.__wrapped__("five_qudit:16381")
    assert code.q == 16381
    assert len(calls) <= code.n * len(code.generators)


def _doc(n=1, k=0, q=2, generators=(), logical_x=None, logical_z=None,
         pair_sites=()):
    blank = {"x": [0] * n, "z": [0] * n, "phase": 0}
    return {"name": "bad", "n": n, "k": k, "q": q,
            "generators": [dict(zip(("x", "z", "phase"), g))
                           for g in generators],
            "logical_x": blank if logical_x is None
            else dict(zip(("x", "z", "phase"), logical_x)),
            "logical_z": blank if logical_z is None
            else dict(zip(("x", "z", "phase"), logical_z)),
            "pair_sites": list(pair_sites)}


@pytest.mark.parametrize("doc, message", [
    (_doc(q=4), "local dimension q=4 must be prime"),
    (_doc(pair_sites=[2]), "pair site 2 out of range 1..1"),
    (_doc(generators=[([1], [0], 0), ([0], [1], 0)]),
     "generators not Abelian: S_1, S_2 have commutation exponent 1"),
    (_doc(generators=[([1], [1], 0)]),
     "generator S_1 does not satisfy S^q = I exactly (no +1 eigenspace)"),
    (_doc(logical_x=([0], [0], 1)), "logical_x does not satisfy L^q = I exactly"),
    (_doc(logical_z=([0], [1], 3)), "logical_z does not satisfy L^q = I exactly"),
    (_doc(n=2, k=1, generators=[([1, 1], [0, 0], 0), ([1, 1], [0, 0], 2)]),
     "generators dependent: rank 1 < 2"),
    (_doc(k=1, generators=[([0], [1], 0)]),
     "declared k=1 inconsistent with n - rank = 0"),
    (_doc(generators=[([0], [1], 0)], logical_x=([1], [0], 0)),
     "logical_x does not commute with S_1"),
    (_doc(generators=[([0], [1], 0)], logical_z=([1], [0], 0)),
     "logical_z does not commute with S_1"),
    (_doc(k=1), "logical_x and logical_z must anticommute"),
], ids=["q", "pair-site", "abelian", "generator-order", "logical_x-order",
        "logical_z-order", "dependent", "k", "logical_x-commute",
        "logical_z-commute", "anticommute"])
def test_direct_construction_refuses_as_load_code(doc, message):
    with pytest.raises(CodeValidationError) as loaded:
        load_code(doc)
    n, q = doc["n"], doc["q"]

    def word(w):
        return PauliWord(n, q, w["x"], w["z"], w["phase"])

    with pytest.raises(CodeValidationError) as built:
        StabilizerCode(doc["name"], n, doc["k"], q,
                       tuple(word(g) for g in doc["generators"]),
                       word(doc["logical_x"]), word(doc["logical_z"]),
                       frozenset(doc["pair_sites"]))
    assert str(loaded.value) == str(built.value) == message


@pytest.mark.parametrize("field", ["generators", "logical_x", "logical_z"])
def test_direct_construction_refuses_size_mismatch(field):
    z2 = PauliWord.from_factors(2, [(2, "Z", 1)])
    x1, z1 = (PauliWord.from_factors(2, [(1, s, 1)]) for s in "XZ")
    words = {"generators": (z2,), "logical_x": x1, "logical_z": z1}
    words[field] = (PauliWord.identity(3) if field != "generators"
                    else (PauliWord.identity(2, q=3),))
    label = "generator" if field == "generators" else field
    with pytest.raises(CodeValidationError,
                       match=f"^{label} size/modulus mismatch$"):
        StabilizerCode("bad", 2, 1, 2, words["generators"],
                       words["logical_x"], words["logical_z"])


def test_load_code_builds_no_dense_state(monkeypatch):
    # the algebra decides validity: no codespace probe, no word applied
    def refuse(*args):
        raise AssertionError("dense work while loading a code")

    for name in ("codespace_basis", "apply_word"):
        monkeypatch.setattr(pauli, name, refuse)
    for name in ("five_qubit", "steane", "shor", "five_qudit:3"):
        assert load_code(code_preset(name).to_json()) == code_preset(name)


def test_projector_rank_matches_numerics(five_qubit):
    dim = 2**five_qubit.n
    group = stabilizer_group(five_qubit.generators)
    proj = sum(g.matrix() for g in group) / len(group)
    rank = int(round(np.trace(proj).real))
    assert rank == 2
    # logical operators preserve the codespace
    xbar = five_qubit.logical_x.matrix()
    assert np.allclose(proj @ xbar @ proj, xbar @ proj, atol=1e-10)


def test_shor_generators_as_listed(shor):
    s7 = shor.generators[6]
    assert s7.x_exp == (1, 1, 1, 1, 1, 1, 0, 0, 0)
    assert not any(s7.z_exp)
    s1 = shor.generators[0]
    assert s1.z_exp == (1, 1, 0, 0, 0, 0, 0, 0, 0)


def test_qudit_preset_rejects_composite_dimension():
    with pytest.raises(CodeValidationError):
        code_preset("five_qudit", q=4)


@pytest.mark.parametrize("name, q", [
    ("five_qudit:abc", None), ("five_qudit:", None), ("steane:3", None),
    ("five_qubit:5", None), ("shor", 3),
])
def test_preset_dimension_refused(name, q):
    with pytest.raises(CodeValidationError):
        code_preset(name, q=q)


def test_qubit_preset_takes_q_2():
    steane = code_preset("steane")
    assert code_preset("steane:2") == code_preset("steane", q=2) == steane


# SHA-256 of every preset document and its published data, taken before the
# presets moved into one table.
GOLDEN_PRESET_DIGEST = (
    "fe9a53b9ffa00c1ddeec30d9d40c7f169823521af709b9b44e89242a50fa8f34")


def test_golden_preset_digest():
    names = (["five_qubit", "steane", "shor", "five_qudit"]
             + [f"five_qudit:{q}" for q in (2, 3, 5, 7, 11)])
    docs = []
    for name in names:
        code = code_preset(name)
        d = preset_data(code)
        docs.append([code.to_json(), None if d is None else [
            d.distance, [[pos, w.to_json()] for pos, w in d.extras], d.alphas]])
    digest = hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()
    assert digest == GOLDEN_PRESET_DIGEST


def test_load_code_roundtrip(five_qubit):
    assert load_code(five_qubit.to_json()) == five_qubit


def test_load_code_checks_declared_k():
    doc = {
        "name": "pair", "n": 2, "k": 1, "q": 2,
        "generators": [
            {"x": [1, 1], "z": [0, 0], "phase": 0},
            {"x": [0, 0], "z": [1, 1], "phase": 0},
        ],
        "logical_x": {"x": [0, 0], "z": [0, 0], "phase": 0},
        "logical_z": {"x": [0, 0], "z": [0, 0], "phase": 0},
        "pair_sites": [],
    }
    with pytest.raises(CodeValidationError, match="k=1"):
        load_code(doc)
    doc["k"] = 0
    loaded = load_code(doc)
    assert loaded.k == 0 and loaded.n == 2


def test_load_code_rejects_anticommuting_generators():
    doc = {
        "name": "bad", "n": 1, "k": 0, "q": 2,
        "generators": [
            {"x": [1], "z": [0], "phase": 0},
            {"x": [0], "z": [1], "phase": 0},
        ],
        "logical_x": {"x": [0], "z": [0], "phase": 0},
        "logical_z": {"x": [0], "z": [0], "phase": 0},
    }
    with pytest.raises(CodeValidationError, match="Abelian"):
        load_code(doc)


def test_load_code_rejects_phaseful_generator():
    doc = {
        "name": "bad", "n": 1, "k": 0, "q": 2,
        "generators": [{"x": [1], "z": [1], "phase": 0}],  # XZ squares to -1
        "logical_x": {"x": [0], "z": [0], "phase": 0},
        "logical_z": {"x": [0], "z": [0], "phase": 0},
    }
    with pytest.raises(CodeValidationError, match="S\\^q"):
        load_code(doc)


def test_load_code_rejects_malformed_exponents():
    doc = {
        "name": "bad", "n": 2, "k": 1, "q": 2,
        "generators": [{"x": [1], "z": [0, 0], "phase": 0}],
        "logical_x": {"x": [0, 0], "z": [0, 0], "phase": 0},
        "logical_z": {"x": [0, 0], "z": [0, 0], "phase": 0},
    }
    with pytest.raises(CodeValidationError, match="generator 1"):
        load_code(doc)
