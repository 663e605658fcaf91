import json
import random
import time
from fractions import Fraction

import pytest
from oracles import dense_twin, naive_lower_central_series

from nilcoh import algebra
from nilcoh.algebra import (
    AlgebraError,
    JacobiViolation,
    NotNilpotent,
    algebra_from_dict,
    algebra_to_dict,
    load_algebra,
    save_algebra,
    validate_algebra,
)


def test_abelian_is_valid_with_trivial_series():
    alg = validate_algebra({}, 3)
    assert alg.lcs == (3, 0)
    assert alg.weights == (1, 1, 1)


def test_heisenberg_series_and_weights():
    alg = algebra.heisenberg3()
    assert alg.lcs == (3, 1, 0)
    assert alg.weights == (1, 1, 2)
    assert alg.homogeneous_dimension == 4
    assert alg.nilpotency_class == 2


def test_non_nilpotent_rejected():
    with pytest.raises(NotNilpotent) as exc:
        validate_algebra({(0, 1): {2: Fraction(1)}, (0, 2): {1: Fraction(1)}}, 3)
    assert exc.value.stable_dim == 2


def test_jacobi_violation_reports_triple_and_residual():
    structure = {
        (0, 1): {2: Fraction(1)},
        (1, 2): {3: Fraction(1)},
        (0, 3): {2: Fraction(1)},
    }
    with pytest.raises(JacobiViolation) as exc:
        validate_algebra(structure, 4)
    assert exc.value.triple == (0, 1, 2)
    assert exc.value.residual == [0, 0, -1, 0]
    assert str(exc.value) == "Jacobi identity fails on basis triple (1, 2, 3): residual (0, 0, -1, 0)"


def test_bad_indices_rejected():
    with pytest.raises(AlgebraError):
        validate_algebra({(1, 0): {2: Fraction(1)}}, 3)
    with pytest.raises(AlgebraError):
        validate_algebra({(0, 1): {5: Fraction(1)}}, 3)
    with pytest.raises(AlgebraError):
        validate_algebra({}, 0)


def test_bracket_antisymmetry():
    alg = algebra.heisenberg3()
    assert alg.bracket_basis(1, 0) == {2: Fraction(-1)}
    assert alg.bracket_basis(2, 2) == {}


def test_bracket_is_bilinear_on_sparse_vectors_and_drops_zeros():
    alg = algebra.heisenberg5()
    u = {0: Fraction(2), 2: Fraction(1, 3)}
    v = {1: Fraction(3), 3: Fraction(-6), 4: Fraction(7)}
    # [2 e1 + e3/3, 3 e2 - 6 e4 + 7 e5] = 6 e5 - 2 e5
    assert alg.bracket(u, v) == {4: Fraction(4)}
    assert alg.bracket(v, u) == {4: Fraction(-4)}
    # the two e5 terms cancel: nothing is left, not a zero entry
    assert alg.bracket({0: Fraction(1), 2: Fraction(1)}, {1: Fraction(1), 3: Fraction(-1)}) == {}
    assert alg.bracket({}, v) == {}


def test_series_and_weights_match_the_definition(algebras):
    cases = dict(algebras)
    cases.update({f"filiform{n}": algebra.filiform(n) for n in range(7, 13)})
    cases.update({f"free2step{g}": algebra.free_nilpotent_two_step(g) for g in (4, 5)})
    rng = random.Random(8)
    for name in ("heisenberg3", "heisenberg5", "filiform4", "free2step3", "filiform7",
                 "free2step4"):
        cases[f"dense_{name}"] = dense_twin(cases[name], rng)
    for name, alg in cases.items():
        assert (alg.lcs, alg.weights) == naive_lower_central_series(alg), name


def test_validation_is_fast():
    # dims 21 and 20: about 0.02 s on a 2-core host, so 0.3 s leaves room
    # for a loaded one, while a dense bracket that loops over every structure
    # constant (over 2 s) fails
    start = time.perf_counter()
    algebra.free_nilpotent_two_step(6)
    algebra.filiform(20)
    assert time.perf_counter() - start < 0.3


def test_filiform_series():
    alg = algebra.filiform(5)
    assert alg.lcs == (5, 3, 2, 1, 0)
    assert alg.weights == (1, 1, 2, 3, 4)


def test_free_two_step_dimensions():
    alg = algebra.free_nilpotent_two_step(3)
    assert alg.dim == 6
    assert alg.lcs == (6, 3, 0)
    assert alg.weights == (1, 1, 1, 2, 2, 2)


def test_file_round_trip(tmp_path):
    alg = algebra.heisenberg5()
    path = tmp_path / "h5.json"
    save_algebra(alg, str(path))
    loaded = load_algebra(str(path))
    assert loaded.dim == alg.dim
    assert loaded.structure == alg.structure
    assert loaded.lcs == alg.lcs


def test_file_format_rejects_duplicates_and_bad_indices(tmp_path):
    record = {"dim": 3, "basis": ["e1", "e2", "e3"],
              "brackets": [[1, 2, [[3, "1"]]], [1, 2, [[3, "1"]]]]}
    with pytest.raises(AlgebraError, match="duplicate"):
        algebra_from_dict(record)

    record = {"dim": 3, "brackets": [[1, 5, [[3, "1"]]]]}
    with pytest.raises(AlgebraError, match=r"\(1, 5\)"):
        algebra_from_dict(record)

    record = {"dim": 3, "brackets": [[2, 1, [[3, "1"]]]]}
    with pytest.raises(AlgebraError, match="i < j"):
        algebra_from_dict(record)

    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(AlgebraError, match="line 1"):
        load_algebra(str(path))


def test_file_format_rejects_a_repeated_target_index():
    # kept only the last entry: [e1, e2] = -e3, with H3's Betti numbers
    record = {"dim": 3, "brackets": [[1, 2, [[3, 1], [3, -1]]]]}
    with pytest.raises(AlgebraError, match=r"duplicate bracket target index 3 in pair \(1, 2\)"):
        algebra_from_dict(record)


@pytest.mark.parametrize("constant", ["1/0", "nan", "inf", "x", True, 0.5, None])
def test_file_format_refuses_a_constant_that_is_not_an_exact_rational(constant):
    # "1/0" raised ZeroDivisionError, "nan", "inf" and "x" a bare ValueError
    # naming no pair, and true was read as 1
    record = {"dim": 3, "brackets": [[1, 2, [[3, constant]]]]}
    with pytest.raises(AlgebraError) as exc:
        algebra_from_dict(record)
    assert str(exc.value) == f"structure constant {constant!r} is not an exact rational, in pair (1, 2)"


@pytest.mark.parametrize("brackets, message", [
    # a TypeError: 'int' object is not iterable
    ([[1, 2, 5]], "bracket components 5 of pair (1, 2) must be a list of [k, c]"),
    # a bare ValueError: not enough values to unpack
    ([[1, 2, [[3]]]], "malformed bracket component [3] in pair (1, 2)"),
    ([[1, 2, [[3, "1", "2"]]]], "malformed bracket component [3, '1', '2'] in pair (1, 2)"),
    # read as [e1, e2] = e3 and [e1, e2] = e1
    ([[True, 2, [[3, "1"]]]], "bracket pair (True, 2) needs integer indices"),
    ([[1, 2, [[True, "1"]]]], "bracket target index True is not an integer, in pair (1, 2)"),
    ([[1, [2], [[3, "1"]]]], "bracket pair (1, [2]) needs integer indices"),
    ({"1": 2}, "'brackets' must be a list of [i, j, components], got {'1': 2}"),
])
def test_file_format_names_the_pair_of_a_malformed_bracket(brackets, message):
    with pytest.raises(AlgebraError) as exc:
        algebra_from_dict(json.loads(json.dumps({"dim": 3, "brackets": brackets})))
    assert str(exc.value) == message


@pytest.mark.parametrize("record, message", [
    # a TypeError: 'int' object is not iterable
    ({"dim": 3, "basis": 5}, "'basis' must be a list of names, got 5"),
    # read as the names a, b, c
    ({"dim": 3, "basis": "abc"}, "'basis' must be a list of names, got 'abc'"),
    # read as the names '1', '2', '3'
    ({"dim": 3, "basis": [1, 2, 3]}, "'basis' must be a list of names, got [1, 2, 3]"),
    # parse_form("a", alg) silently picked the second direction
    ({"dim": 3, "basis": ["a", "a", "b"]}, "'basis' repeats the name 'a'"),
    ({"dim": 3, "basis": ["a", "b"]}, "'basis' has 2 names, 'dim' is 3"),
    # read as 3, 1 and 3
    ({"dim": 3.7}, "algebra record needs an integer 'dim' field, got 3.7"),
    ({"dim": True}, "algebra record needs an integer 'dim' field, got True"),
    ({"dim": "3"}, "algebra record needs an integer 'dim' field, got '3'"),
    ({"brackets": []}, "algebra record needs an integer 'dim' field, got None"),
])
def test_file_format_refuses_a_malformed_basis_or_dim(record, message):
    with pytest.raises(AlgebraError) as exc:
        algebra_from_dict(json.loads(json.dumps(record)))
    assert str(exc.value) == message


def test_file_format_keeps_a_valid_basis():
    alg = algebra_from_dict({"dim": 3, "basis": ["x", "y", "z"], "brackets": [[1, 2, [[3, 1]]]]})
    assert alg.basis_names == ("x", "y", "z")
    assert algebra_from_dict(algebra_to_dict(alg)).basis_names == ("x", "y", "z")


def test_rational_strings_parsed_exactly():
    record = {"dim": 3, "brackets": [[1, 2, [[3, "2/3"]]]]}
    alg = algebra_from_dict(record)
    assert alg.structure[(0, 1)][2] == Fraction(2, 3)


def test_corpus_validates(algebras):
    for name, alg in algebras.items():
        assert alg.lcs[-1] == 0, name
        assert all(w >= 1 for w in alg.weights), name
