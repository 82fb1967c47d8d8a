import dataclasses
import json
import os
import subprocess
import sys

import click
import pytest
from click.testing import CliRunner

import sposet
from sposet import cli as cli_mod
from sposet import io as io_mod
from sposet import spectral
from sposet.charfn import CharFunction, random_q_charfn
from sposet.charfn import check as charfn_check
from sposet.classify import buchsbaum_witnesses, classify
from sposet.cli import cli, main
from sposet.corpus import corpus, corpus_names
from sposet.errors import (
    InconsistentBundle,
    InternalError,
    InvalidArgument,
    InvalidCharFn,
    MissingVertexAssignment,
    NonPrimitiveVector,
    NotBuchsbaum,
    PosetValidationError,
    RankMismatch,
    SchemaViolation,
    SposetError,
    UnknownElement,
    UnknownFormat,
    UnknownName,
    WrongVectorLength,
)
from sposet.facevec import face_vector_report, identity_report
from sposet.homology import (
    RATIONALS,
    Coefficients,
    parse_coefficients,
    prime_field,
    reduced_betti,
    smith_normal_form,
)
from sposet.poset import (
    SimplexElem,
    barycentric,
    from_face_lattice,
    from_facets,
    validate_stats,
)
from sposet.spectral import CONE, PageTable, QuotientProblem, solve, verify

from oracles import bundle_doc

runner = CliRunner()


def solid_torus_bundle_doc():
    return {
        "format": "manifold-v1",
        "poset": io_mod.emit_poset(corpus("torus7")),
        "n": 3,
        "field": "q",
        "bettiQ": [1, 1, 0, 0],
        "iota": [1, 1, 0, 0],
        "orientable": True,
        "charfn": None,
    }


def cylinder_bundle_doc():
    return {
        "format": "manifold-v1",
        "poset": io_mod.emit_poset(corpus("s1xI_faceposet")),
        "n": 2,
        "field": "q",
        "bettiQ": [1, 1, 0],
        "iota": [1, 1, 0],
        "orientable": True,
        "charfn": {
            "format": "charfn-v1",
            "n": 2,
            "assignment": {"F1": [1, 0], "F2": [0, 1]},
        },
    }


# each corpus entry's f-vector (f_-1, f_0, ...); its dimension is len(f) - 2
CORPUS_F = {
    "boundary_simplex(2)": (1, 3, 3),
    "boundary_simplex(3)": (1, 4, 6, 4),
    "boundary_simplex(4)": (1, 5, 10, 10, 5),
    "triangle_2gon": (1, 3, 3, 2),
    "two_arc_circle": (1, 2, 2),
    "torus7": (1, 7, 21, 14),
    "rp2_6": (1, 6, 15, 10),
    "octahedron_s2": (1, 6, 12, 8),
    "s1xI_faceposet": (1, 2),
}


class TestCorpus:
    def test_expected_fragments(self):
        assert sorted(CORPUS_F) == sorted(corpus_names())
        for name, f in CORPUS_F.items():
            st = validate_stats(corpus(name))
            assert st.f == f, name
            assert st.dim == len(f) - 2, name

    def test_entries_are_reproducible(self):
        for name in corpus_names():
            assert corpus(name) == corpus(name)


class TestParse:
    def test_scomplex_torus(self):
        doc = {
            "format": "scomplex-v1",
            "facets": [list(e.vertices) for e in corpus("torus7").by_rank(3)],
        }
        S = io_mod.parse(json.dumps(doc))
        assert S == corpus("torus7")

    def test_sposet_roundtrip_corpus(self):
        for name in corpus_names():
            S = corpus(name)
            emitted = io_mod.dumps_canonical(io_mod.emit_poset(S))
            back = io_mod.parse(emitted)
            assert back == S
            assert io_mod.dumps_canonical(io_mod.emit_poset(back)) == emitted

    def test_padded_poset_roundtrip(self):
        # a circle in ambient rank 3: the document must carry n, which its
        # faces do not imply, and the subdivision keeps it
        S = from_face_lattice(corpus("boundary_simplex(2)").elements(), n=3)
        doc = io_mod.emit_poset(S)
        assert doc["n"] == 3
        assert io_mod.parse(json.dumps(doc)) == S
        assert barycentric(S).n == 3

    def test_charfn_roundtrip(self):
        lam = CharFunction(2, {"v1": (1, 0), "v2": (0, 1), "v3": (1, 1)})
        emitted = io_mod.dumps_canonical(io_mod.emit_charfn(lam))
        back = io_mod.parse(emitted)
        assert back.assignment == lam.assignment

    def test_unknown_format(self):
        with pytest.raises(UnknownFormat):
            io_mod.parse('{"format": "sposet-v0", "elements": []}')

    def test_schema_violation(self):
        with pytest.raises(SchemaViolation):
            io_mod.parse('{"format": "sposet-v1"}')
        with pytest.raises(SchemaViolation):
            io_mod.parse("not json at all")

    def test_problem_bundle(self):
        prob = io_mod.parse(json.dumps(solid_torus_bundle_doc()))
        assert isinstance(prob, QuotientProblem)
        assert prob.betti_q == (1, 1, 0, 0)

    def test_cone_bundle_roundtrip(self, bd_triangle):
        doc = {
            "format": "cone-v1",
            "poset": io_mod.emit_poset(bd_triangle),
            "n": 2,
            "field": "q",
            "charfn": None,
        }
        prob = io_mod.parse(json.dumps(doc))
        assert prob.kind == CONE
        assert bundle_doc(prob) == doc

    def test_unknown_corpus_name(self):
        with pytest.raises(UnknownName):
            corpus("nope")


class TestCli:
    def test_stats(self):
        res = runner.invoke(cli, ["stats", "--corpus", "torus7"])
        assert res.exit_code == 0
        assert "f: [1, 7, 21, 14]" in res.output

    def test_classify_rp2_over_f2(self):
        res = runner.invoke(
            cli, ["classify", "--corpus", "rp2_6", "--field", "fp:2"]
        )
        assert res.exit_code == 0
        assert "buchsbaum: true" in res.output
        assert "cohen_macaulay: false" in res.output

    def test_classify_help_names_the_integers(self):
        # classify alone takes z, unlike the other commands' --field
        assert "z, q or fp:<p>" in runner.invoke(cli, ["classify", "--help"]).output
        res = runner.invoke(cli, ["classify", "--corpus", "rp2_6", "--field", "z"])
        assert res.exit_code == 0
        assert "coeff: z" in res.output

    def test_homology_integral(self):
        res = runner.invoke(
            cli, ["homology", "--corpus", "rp2_6", "--coeff", "z"]
        )
        assert res.exit_code == 0
        # one list per degree from -1: Z/2 in degree 1
        assert "torsion: [[], [], [2], []]" in res.output

    def test_fvec_json(self):
        res = runner.invoke(cli, ["fvec", "--corpus", "torus7", "--json"])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["h"] == [1, 4, 10, -1]
        assert doc["hdoubleprime"] == [1, 4, 4, 1]

    def test_identities(self):
        res = runner.invoke(cli, ["identities", "--corpus", "octahedron_s2"])
        assert res.exit_code == 0
        assert "FAIL" not in res.output

    def test_quotient_cone_json(self):
        res = runner.invoke(
            cli,
            ["quotient", "cone", "--corpus", "torus7", "--n", "3", "--field", "q", "--json"],
        )
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["tables"]["totals"] == [1, 0, 4, 0, 10, 2, 1]
        assert doc["tables"]["eainf"]["3,3"] == 1
        assert all(doc["checks"].values())

    def test_byte_identical_reruns(self):
        args = ["quotient", "cone", "--corpus", "torus7", "--n", "3", "--json"]
        first = runner.invoke(cli, args)
        second = runner.invoke(cli, args)
        assert first.output == second.output

    def test_quotient_manifold_bundle_file(self, tmp_path):
        path = tmp_path / "solid-torus.json"
        path.write_text(json.dumps(solid_torus_bundle_doc()))
        res = runner.invoke(cli, ["quotient", "manifold", str(path), "--json"])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["tables"]["totals"] == [1, 1, 7, 0, 7, 1, 1]

    def test_quotient_manifold_refuses_cylinder(self, tmp_path):
        path = tmp_path / "s1xI-bundle.json"
        path.write_text(json.dumps(cylinder_bundle_doc()))
        res = runner.invoke(cli, ["quotient", "manifold", str(path)])
        assert res.exit_code != 0
        assert "NotBuchsbaum" in res.output
        assert "F1" in res.output and "F2" in res.output

    def test_charfn_check_and_random(self, tmp_path):
        lam_path = tmp_path / "lam.json"
        lam_path.write_text(
            json.dumps(
                {
                    "format": "charfn-v1",
                    "n": 2,
                    "assignment": {"v1": [1, 0], "v2": [0, 1], "v3": [1, 1]},
                }
            )
        )
        res = runner.invoke(
            cli,
            ["charfn", "check", str(lam_path), "--corpus", "boundary_simplex(2)"],
        )
        assert res.exit_code == 0 and "passed: true" in res.output

        res = runner.invoke(
            cli,
            [
                "charfn", "random", "--corpus", "boundary_simplex(2)",
                "--n", "2", "--seed", "7", "--bound", "3",
            ],
        )
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["format"] == "charfn-v1"

    def test_corpus_list_and_emit(self):
        res = runner.invoke(cli, ["corpus", "list"])
        assert res.exit_code == 0
        assert set(res.output.split()) == set(corpus_names())
        res = runner.invoke(cli, ["corpus", "emit", "two_arc_circle"])
        assert res.exit_code == 0
        assert io_mod.parse(res.output) == corpus("two_arc_circle")

    def test_unknown_corpus_is_error(self):
        res = runner.invoke(cli, ["stats", "--corpus", "nope"])
        assert res.exit_code != 0

    def test_usage_error_without_input(self):
        res = runner.invoke(cli, ["stats"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("argv, message", [
        (["cone", "--corpus", "torus7"], "--n is required unless a bundle file is given"),
        (["manifold", "--corpus", "torus7", "--n", "3"],
         "manifold problems need --betti-q and --iota (or a bundle file)"),
    ], ids=["cone_without_n", "manifold_without_betti_q"])
    def test_quotient_without_rank_data_is_usage_error(self, argv, message, capsys):
        assert main(["quotient", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


class TestMain:
    def test_exit_codes(self, tmp_path, capsys):
        assert main(["corpus", "list"]) == 0
        capsys.readouterr()

        path = tmp_path / "s1xI-bundle.json"
        path.write_text(json.dumps(cylinder_bundle_doc()))
        code = main(["quotient", "manifold", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "NotBuchsbaum" in err

        assert main(["stats"]) == 2
        capsys.readouterr()


def _triangle_doc():
    return io_mod.emit_poset(corpus("boundary_simplex(2)"))


def _triangle_lambda(vector_v1):
    return {
        "format": "charfn-v1",
        "n": 2,
        "assignment": {"v1": vector_v1, "v2": [0, 1], "v3": [1, 1]},
    }


def _triangle_cone(**changes):
    doc = {"format": "cone-v1", "poset": _triangle_doc(), "n": 2, "field": "q",
           "charfn": None}
    return {**doc, **changes}


def _triangle_manifold(**changes):
    doc = {"format": "manifold-v1", "poset": _triangle_doc(), "n": 2, "field": "q",
           "bettiQ": [1, 0, 0], "iota": [1, 0, 0], "orientable": True, "charfn": None}
    return {**doc, **changes}


CHARFN_CHECK = ["charfn", "check", "{path}", "--corpus", "boundary_simplex(2)"]

# document, then the CLI command that reads it from {path}
MISTYPED_DOCUMENTS = {
    "sposet_n_str": ({**_triangle_doc(), "n": "3"}, ["stats", "{path}"]),
    "sposet_n_bool": ({**_triangle_doc(), "n": True}, ["stats", "{path}"]),
    "sposet_vertex_object": (
        {"format": "sposet-v1", "elements": [{"id": "a", "vertices": [{"x": 1}], "facets": []}]},
        ["stats", "{path}"],
    ),
    "scomplex_facet_int": ({"format": "scomplex-v1", "facets": [5]}, ["stats", "{path}"]),
    "scomplex_name_bool": (
        {"format": "scomplex-v1", "facets": [["a", True]]}, ["stats", "{path}"],
    ),
    "scomplex_name_list": (
        {"format": "scomplex-v1", "facets": [["a", ["b"]]]}, ["stats", "{path}"],
    ),
    "sposet_id_list": (
        {"format": "sposet-v1", "elements": [{"id": ["x"], "vertices": ["x"], "facets": []}]},
        ["stats", "{path}"],
    ),
    "sposet_name_object": ({**_triangle_doc(), "name": {"a": 1}}, ["stats", "{path}"]),
    "cone_n_bool": (_triangle_cone(n=True), ["quotient", "cone", "{path}"]),
    "cone_n_str": (_triangle_cone(n="2"), ["quotient", "cone", "{path}"]),
    "manifold_bettiq_str": (
        _triangle_manifold(bettiQ=["1", "0", "0"]), ["quotient", "manifold", "{path}"],
    ),
    "manifold_iota_bool": (
        _triangle_manifold(iota=[True, False, False]), ["quotient", "manifold", "{path}"],
    ),
    "charfn_n_bool": ({**_triangle_lambda([1, 0]), "n": True}, CHARFN_CHECK),
    "charfn_entry_str": (_triangle_lambda(["1", 0]), CHARFN_CHECK),
    "charfn_entry_float": (_triangle_lambda([1.0, 0]), CHARFN_CHECK),
    "charfn_vector_int": (_triangle_lambda(1), CHARFN_CHECK),
    "charfn_vector_str": (_triangle_lambda("10"), CHARFN_CHECK),
    "scomplex_facet_str": ({"format": "scomplex-v1", "facets": ["abc"]}, ["stats", "{path}"]),
    # a ring label of the wrong JSON type, not coerced to a str
    "cone_field_int": (_triangle_cone(field=3), ["quotient", "cone", "{path}"]),
    "manifold_field_bool": (_triangle_manifold(field=True), ["quotient", "manifold", "{path}"]),
}


@pytest.mark.parametrize("case", sorted(MISTYPED_DOCUMENTS))
def test_mistyped_document_is_schema_violation(case, tmp_path, capsys):
    doc, argv = MISTYPED_DOCUMENTS[case]
    with pytest.raises(SchemaViolation):
        io_mod.parse(json.dumps(doc))
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main([a.format(path=path) for a in argv]) != 0
    err = capsys.readouterr().err
    assert "SchemaViolation" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("tag", ["banana", "charfn-v1", "cone-v1", None, ["sposet-v1"]])
def test_bundle_poset_needs_a_poset_tag(tag, tmp_path, capsys):
    # refused ahead of every other fault: this bundle's n is also of the wrong type
    poset = {k: v for k, v in _triangle_doc().items() if k != "format"}
    if tag is not None:
        poset["format"] = tag
    doc = _triangle_cone(poset=poset, n="2")
    with pytest.raises(SchemaViolation) as err:
        io_mod.parse(json.dumps(doc))
    message = f"poset format tag {tag!r} is not 'sposet-v1' or 'scomplex-v1'"
    assert str(err.value) == message
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(doc))
    assert main(["quotient", "cone", str(path), "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"Error: SchemaViolation: {message}\n"


# primitive and valid over Q on every face of torus7, but of length 4, not 3
TORUS7_LAMBDA4 = {f"v{i}": (1, i, i * i, i**3) for i in range(1, 8)}
# valid over Q: any three rows of a Vandermonde matrix are independent
TORUS7_CHARFN = CharFunction(3, {f"v{i}": (1, i, i * i) for i in range(1, 8)})
# one vertex, a valid face lattice of maximal rank 1
VERTEX = [SimplexElem("a", ("a",), ())]


# "a" in 5,000 lists, past the interpreter's recursion limit for repr
DEEP = "a"
for _ in range(5000):
    DEEP = [DEEP]
# an int of 5,001 digits, past the interpreter's limit for str
HUGE = 10**5000

# library calls with malformed arguments, and the SposetError each ends in
BAD_LIBRARY_CALLS = {
    "face_lattice_int": (lambda: from_face_lattice([5]), PosetValidationError),
    "face_lattice_tuple": (lambda: from_face_lattice([("a",)]), PosetValidationError),
    # a plain tuple equal to a face is still no SimplexElem
    "face_lattice_plain_triple": (
        lambda: from_face_lattice([("a", ("a",), ())]), PosetValidationError,
    ),
    "face_lattice_int_vertices": (
        lambda: from_face_lattice([SimplexElem("a", 5, ())]), PosetValidationError,
    ),
    "facets_list_name": (lambda: from_facets([["a", ["b"]], [1, "c"]]), PosetValidationError),
    "facets_bool_name": (lambda: from_facets([[True, "c"]]), PosetValidationError),
    "facets_float_name": (lambda: from_facets([["a", 1.5]]), PosetValidationError),
    "facets_str_facet": (lambda: from_facets(["abc"]), PosetValidationError),
    "facets_int_facet": (lambda: from_facets([5]), PosetValidationError),
    "facets_too_many_faces": (lambda: from_facets([range(19)]), PosetValidationError),
    "charfn_int_vector": (lambda: CharFunction(2, {"v1": 5}), InvalidCharFn),
    "charfn_pair_list": (lambda: CharFunction(2, [("v1", (1, 0))]), InvalidCharFn),
    "charfn_tuple_key": (lambda: CharFunction(2, {("x",): (1, 0)}), InvalidCharFn),
    "charfn_bool_key": (lambda: CharFunction(2, {False: (1, 0)}), InvalidCharFn),
    "charfn_n_float": (lambda: CharFunction(2.0, {"v1": (1, 0)}), InvalidCharFn),
    "charfn_n_bool": (lambda: CharFunction(True, {"v1": (1,)}), InvalidCharFn),
    "charfn_n_str": (lambda: CharFunction("2", {"v1": (1, 0)}), InvalidCharFn),
    "random_n_str": (
        lambda: random_q_charfn(corpus("boundary_simplex(2)"), "2", seed=1, bound=2),
        InvalidArgument,
    ),
    "random_seed_none": (
        lambda: random_q_charfn(corpus("boundary_simplex(2)"), 2, seed=None, bound=2),
        InvalidArgument,
    ),
    "random_bound_float": (
        lambda: random_q_charfn(corpus("boundary_simplex(2)"), 2, seed=1, bound=2.5),
        InvalidArgument,
    ),
    "random_budget_float": (
        lambda: random_q_charfn(corpus("boundary_simplex(2)"), 2, seed=1, bound=2, budget=2.5),
        InvalidArgument,
    ),
    "random_bound_bool": (
        lambda: random_q_charfn(corpus("boundary_simplex(2)"), 2, seed=1, bound=True),
        InvalidArgument,
    ),
    "prime_field_str": (lambda: prime_field("7"), InvalidArgument),
    "prime_field_float": (lambda: prime_field(7.0), InvalidArgument),
    "prime_field_composite": (lambda: prime_field(4), InvalidArgument),
    "coefficients_kind": (lambda: Coefficients("x"), InvalidArgument),
    "betti_unknown_root": (
        lambda: reduced_betti(corpus("torus7"), RATIONALS, root="nope"), UnknownElement),
    "problem_kind": (
        lambda: QuotientProblem("x", corpus("boundary_simplex(2)"), 2, RATIONALS),
        InvalidArgument,
    ),
    "problem_n_str": (
        lambda: QuotientProblem(CONE, corpus("boundary_simplex(2)"), "3", RATIONALS),
        InvalidArgument,
    ),
    # no (1, 0, ..., 0) of this length is built: the Buchsbaum check refuses n first
    "problem_n_huge": (
        lambda: QuotientProblem(CONE, corpus("boundary_simplex(2)"), 10**30, RATIONALS),
        NotBuchsbaum,
    ),
    "check_wrong_length": (
        lambda: charfn_check(corpus("torus7"), CharFunction(4, TORUS7_LAMBDA4), RATIONALS),
        WrongVectorLength,
    ),
    "problem_wrong_length": (
        lambda: QuotientProblem(CONE, corpus("torus7"), 3, RATIONALS,
                                charfn=CharFunction(4, TORUS7_LAMBDA4)),
        InvalidCharFn,
    ),
    # a ring given by its label, or no poset, where a value of the type is due
    "betti_ring_str": (lambda: reduced_betti(corpus("torus7"), "q"), InvalidArgument),
    "betti_poset_list": (lambda: reduced_betti([], RATIONALS), InvalidArgument),
    "classify_ring_str": (lambda: classify(corpus("torus7"), "q"), InvalidArgument),
    "classify_poset_none": (lambda: classify(None, RATIONALS), InvalidArgument),
    "face_vectors_ring_str": (
        lambda: face_vector_report(corpus("torus7"), "q"), InvalidArgument),
    "identities_ring_str": (lambda: identity_report(corpus("torus7"), "q"), InvalidArgument),
    "h_prime_ring_str": (lambda: face_vector_report(corpus("torus7"), "q"), InvalidArgument),
    "problem_ring_str": (lambda: QuotientProblem(CONE, corpus("torus7"), 3, "q"), InvalidArgument),
    "problem_poset_none": (lambda: QuotientProblem(CONE, None, 3, RATIONALS), InvalidArgument),
    # a poset where the characteristic function is due
    "check_poset_as_lambda": (
        lambda: charfn_check(corpus("torus7"), corpus("torus7"), RATIONALS), InvalidArgument),
    # the characteristic function's ring or poset of the wrong type
    "check_ring_str": (lambda: charfn_check(corpus("torus7"), TORUS7_CHARFN, "q"),
                       InvalidArgument),
    "check_ring_none": (lambda: charfn_check(corpus("torus7"), TORUS7_CHARFN, None),
                        InvalidArgument),
    "check_poset_list": (lambda: charfn_check([], TORUS7_CHARFN, RATIONALS), InvalidArgument),
    "random_poset_list": (lambda: random_q_charfn([], 2, 1, 3), InvalidArgument),
    "problem_poset_as_lambda": (
        lambda: QuotientProblem(CONE, corpus("torus7"), 3, RATIONALS, charfn=corpus("torus7")),
        InvalidCharFn,
    ),
    # a matrix that is not rectangular, or holds entries other than ints
    "snf_ragged": (lambda: smith_normal_form([[1, 2], [3]]), InvalidArgument),
    "snf_float": (lambda: smith_normal_form([[1.5]]), InvalidArgument),
    "snf_bool": (lambda: smith_normal_form([[True, 0]]), InvalidArgument),
    "snf_str": (lambda: smith_normal_form("ab"), InvalidArgument),
    "snf_none": (lambda: smith_normal_form(None), InvalidArgument),
    # poset builders given no collection, a rank or name of the wrong type, or no poset
    "facets_int_input": (lambda: from_facets(5), PosetValidationError),
    "facets_none_input": (lambda: from_facets(None), PosetValidationError),
    "face_lattice_int_input": (lambda: from_face_lattice(5), PosetValidationError),
    "face_lattice_n_str": (lambda: from_face_lattice(VERTEX, n="3"), PosetValidationError),
    "face_lattice_n_bool": (lambda: from_face_lattice(VERTEX, n=True), PosetValidationError),
    "facets_name_int": (lambda: from_facets([["a", "b"]], name=3), InvalidArgument),
    "barycentric_list": (lambda: barycentric([]), InvalidArgument),
    # more entry points given a value of the wrong type or sign
    "coefficients_label_int": (lambda: parse_coefficients(3), InvalidArgument),
    "betti_root_list": (
        lambda: reduced_betti(corpus("torus7"), RATIONALS, root=[]), InvalidArgument),
    "solve_none": (lambda: solve(None), InvalidArgument),
    "verify_tables_none": (
        lambda: verify(QuotientProblem(CONE, corpus("torus7"), 3, RATIONALS), None),
        InvalidArgument,
    ),
    # tables solved for a problem of another torus rank, in either direction
    "verify_tables_lower_rank": (
        lambda: verify(QuotientProblem(CONE, corpus("torus7"), 3, RATIONALS),
                       solve(QuotientProblem(CONE, corpus("boundary_simplex(2)"), 2, RATIONALS))),
        InvalidArgument,
    ),
    "verify_table_none": (
        lambda: verify(QuotientProblem(CONE, corpus("torus7"), 3, RATIONALS),
                       spectral.Tables(None, None, None, None, None)),
        InvalidArgument,
    ),
    "verify_tables_higher_rank": (
        lambda: verify(QuotientProblem(CONE, corpus("boundary_simplex(2)"), 2, RATIONALS),
                       solve(QuotientProblem(CONE, corpus("torus7"), 3, RATIONALS))),
        InvalidArgument,
    ),
    "charfn_n_negative": (lambda: CharFunction(-1, {}), InvalidCharFn),
    "charfn_doc_n_negative": (
        lambda: io_mod.parse({"format": "charfn-v1", "n": -2, "assignment": {}}),
        InvalidCharFn,
    ),
    # Q is orientable, and only a bundle says so: a cone's flag may not be
    # false, nor a manifold's 1
    "problem_cone_not_orientable": (
        lambda: io_mod.parse(_triangle_cone(orientable=False)), InconsistentBundle),
    "problem_orientable_int": (
        lambda: io_mod.parse(_triangle_manifold(orientable=1)), SchemaViolation),
    # a table that is no map from pairs of ints to ranks, or of no torus rank
    "page_table_cell_list": (lambda: PageTable([((0, 0), 1)], 3), InvalidArgument),
    "page_table_cell_str": (lambda: PageTable({"x": 1}, 3), InvalidArgument),
    "page_table_cell_bool": (lambda: PageTable({(True, 0): 1}, 3), InvalidArgument),
    "page_table_cell_triple": (lambda: PageTable({(0, 0, 0): 1}, 3), InvalidArgument),
    "page_table_rank_str": (lambda: PageTable({(0, 0): "a"}, 3), InvalidArgument),
    "page_table_rank_float": (lambda: PageTable({(0, 0): 1.5}, 3), InvalidArgument),
    "page_table_rank_bool": (lambda: PageTable({(0, 0): True}, 3), InvalidArgument),
    "page_table_rank_negative": (lambda: PageTable({(0, 0): -1}, 3), InvalidArgument),
    "page_table_n_str": (lambda: PageTable({}, "3"), InvalidArgument),
    "page_table_n_negative": (lambda: PageTable({}, -1), InvalidArgument),
    "page_table_n_above_max_rank": (lambda: PageTable({}, 65), InvalidArgument),
    "page_table_n_huge_int": (lambda: PageTable({}, HUGE), InvalidArgument),
    # a solved table given a malformed cell by replace, before verify reads it
    "page_table_replaced_cell": (
        lambda: dataclasses.replace(
            solve(QuotientProblem(CONE, corpus("torus7"), 3, RATIONALS)).ea1,
            cells={(0, 0): 1.5}),
        InvalidArgument,
    ),
    # a value nested past the recursion limit, quoted in the refusal
    "facets_deep_facet": (lambda: from_facets([DEEP]), PosetValidationError),
    "facets_deep_name": (lambda: from_facets([["a", DEEP]]), PosetValidationError),
    "face_lattice_deep": (lambda: from_face_lattice([DEEP]), PosetValidationError),
    "charfn_deep_vector": (lambda: CharFunction(1, {"a": DEEP}), InvalidCharFn),
    "betti_deep_ring": (lambda: reduced_betti(corpus("torus7"), DEEP), InvalidArgument),
    "betti_deep_root": (lambda: reduced_betti(corpus("torus7"), RATIONALS, root=DEEP),
                        InvalidArgument),
    "face_lattice_deep_vertex": (
        lambda: from_face_lattice([SimplexElem("a", (DEEP,), ())]), PosetValidationError),
    # an int with more digits than the interpreter turns into a str
    "prime_field_huge_int": (lambda: prime_field(HUGE), InvalidArgument),
    "charfn_n_huge_int": (lambda: CharFunction(HUGE, {"v1": (1,)}), WrongVectorLength),
    "charfn_entry_huge_int": (lambda: CharFunction(1, {"a": (HUGE,)}), NonPrimitiveVector),
    "charfn_name_huge_int": (lambda: CharFunction(1, {HUGE: (1,)}), InvalidCharFn),
    "facets_name_huge_int": (lambda: from_facets([[HUGE, 1]]), PosetValidationError),
    "face_lattice_n_huge_int": (lambda: from_face_lattice(VERTEX, n=HUGE), PosetValidationError),
    "problem_n_huge_int": (
        lambda: QuotientProblem(CONE, corpus("torus7"), HUGE, RATIONALS), NotBuchsbaum),
    # a name that is no str, not even hashable
    "corpus_unhashable_name": (lambda: corpus(["x"]), UnknownName),
    "element_unhashable_id": (lambda: corpus("torus7").element(["x"]), UnknownElement),
    "charfn_vector_unhashable_id": (
        lambda: CharFunction(1, {"a": (1,)}).vector(["a"]), MissingVertexAssignment),
    # a rank that is no int, not read as one
    "by_rank_str": (lambda: corpus("torus7").by_rank("x"), InvalidArgument),
    "by_rank_bool": (lambda: corpus("torus7").by_rank(True), InvalidArgument),
    "by_rank_float": (lambda: corpus("torus7").by_rank(1.0), InvalidArgument),
    # one vertex named twice, also as an int and its str
    "facets_repeated_name": (lambda: from_facets([["a", "a", "b"]]), RankMismatch),
    "facets_repeated_int_name": (lambda: from_facets([[1, "1"]]), RankMismatch),
    "charfn_repeated_name": (lambda: CharFunction(1, {1: (1,), "1": (-1,)}), InvalidCharFn),
    # a path that cannot be read as a file
    "parse_path_directory": (lambda: io_mod.parse_path(os.path.dirname(__file__)),
                             InvalidArgument),
    # a rank that is no int, not read as one
    "witnesses_n_str": (
        lambda: buchsbaum_witnesses(corpus("torus7"), RATIONALS, n="x"), InvalidArgument),
    "witnesses_n_float": (
        lambda: buchsbaum_witnesses(corpus("torus7"), RATIONALS, n=3.0), InvalidArgument),
    "witnesses_n_bool": (
        lambda: buchsbaum_witnesses(corpus("torus7"), RATIONALS, n=True), InvalidArgument),
    # no path, poset, characteristic function, problem or table where one is due
    "parse_path_none": (lambda: io_mod.parse_path(None), InvalidArgument),
    "emit_poset_none": (lambda: io_mod.emit_poset(None), InvalidArgument),
    "emit_charfn_none": (lambda: io_mod.emit_charfn(None), InvalidArgument),
    "e1_diagonal_none": (lambda: spectral.e1_diagonal_hprime_form(None), InvalidArgument),
    "tables_none": (lambda: spectral.Tables(None, None, None, None, None).to_json(),
                    InvalidArgument),
}


# the axiom a PosetValidationError above names, where not "element-shape"
BAD_CALL_AXIOMS = {
    "facets_too_many_faces": "face-count",
    "face_lattice_n_str": "ambient-rank",
    "face_lattice_n_bool": "ambient-rank",
    "face_lattice_n_huge_int": "ambient-rank",
}


@pytest.mark.parametrize("case", sorted(BAD_LIBRARY_CALLS))
def test_bad_library_call_is_sposet_error(case):
    call, error = BAD_LIBRARY_CALLS[case]
    with pytest.raises(error) as err:
        call()
    if error is PosetValidationError:
        assert err.value.axiom == BAD_CALL_AXIOMS.get(case, "element-shape")


@pytest.mark.parametrize("case", sorted(c for c in BAD_LIBRARY_CALLS if "_deep" in c))
def test_deep_value_is_quoted_in_one_short_line(case):
    # the refusal quotes the value cut off below a few levels of nesting
    call, error = BAD_LIBRARY_CALLS[case]
    with pytest.raises(error) as err:
        call()
    message = str(err.value)
    assert "[...]" in message and "\n" not in message and len(message) < 200


@pytest.mark.parametrize("case", sorted(c for c in BAD_LIBRARY_CALLS if "_huge_int" in c))
def test_huge_int_is_quoted_by_its_size(case):
    call, error = BAD_LIBRARY_CALLS[case]
    with pytest.raises(error) as err:
        call()
    message = str(err.value)
    assert "<int of 16610 bits>" in message and "\n" not in message and len(message) < 200


# prints the refusal of a face holding a value nested past the recursion limit
DEEP_FACE = """
from sposet.errors import SposetError
from sposet.poset import SimplexElem, from_face_lattice
x = "a"
for _ in range(5000):
    x = [x]
try:
    from_face_lattice([SimplexElem("a", (x,), ())])
except SposetError as exc:
    print(type(exc).__name__, exc)
"""


def test_deep_face_is_quoted_alike_in_every_interpreter():
    # quoted field by field, never as the named tuple's address
    src = os.path.dirname(os.path.dirname(sposet.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    outs = [subprocess.run([sys.executable, "-c", DEEP_FACE], env=env, capture_output=True,
                           text=True, check=True).stdout for _ in range(2)]
    assert outs[0] == outs[1] == (
        "PosetValidationError element 'a': not a SimplexElem of str ids and tuples: "
        "SimplexElem(id='a', vertices=([[[[[[[...]]]]]]],), facets=()) [element-shape]\n")
    assert " at 0x" not in outs[0]


@pytest.mark.parametrize("n", [10**9, 10**30])
def test_huge_ambient_rank_is_clean_error(n, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({**_triangle_doc(), "n": n}))
    assert main(["stats", str(path)]) != 0
    err = capsys.readouterr().err
    assert "Error:" in err and "ambient-rank" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["charfn", "check", "{path}", "--corpus", "torus7", "--coeff", "q"],
    ["quotient", "cone", "--corpus", "torus7", "--n", "3", "--charfn", "{path}", "--json"],
])
def test_wrong_length_charfn_is_refused(argv, tmp_path, capsys):
    path = tmp_path / "lam4.json"
    path.write_text(json.dumps(io_mod.emit_charfn(CharFunction(4, TORUS7_LAMBDA4))))
    assert main([a.format(path=path) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "length 4 on a poset of ambient rank 3" in captured.err
    assert "Traceback" not in captured.err


def test_document_fault_is_reported_ahead_of_library_fault():
    # facet 0 has too many faces, facet 1 a bool name: the document's fault wins
    with pytest.raises(SchemaViolation, match=r"facets\[1\]"):
        io_mod.parse({"format": "scomplex-v1", "facets": [list(range(19)), ["a", True]]})
    with pytest.raises(SchemaViolation, match=r"assignment\['v2'\]"):
        io_mod.parse({"format": "charfn-v1", "n": 2,
                      "assignment": {"v1": [1, 0, 0], "v2": ["1", 0]}})
    # a dict facet or a tuple vector, which the library would take, is refused
    with pytest.raises(SchemaViolation, match=r"facets\[0\]"):
        io_mod.parse({"format": "scomplex-v1", "facets": [{"a": 1}]})
    with pytest.raises(SchemaViolation, match=r"assignment\['v1'\]"):
        io_mod.parse({"format": "charfn-v1", "n": 2, "assignment": {"v1": (1, 0)}})


def test_facet_repeating_a_vertex_is_refused(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"format": "scomplex-v1", "facets": [["a", "a", "b"]]}))
    assert main(["stats", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("Error: RankMismatch: element '': facet ['a', 'a', 'b'] "
                            "repeats a vertex name [rank]\n")


# a charfn-v1 document whose assignment gives vertex v1 twice
REPEATED_VERTEX_KEY = ('{"format": "charfn-v1", "n": 3, "assignment": '
                       '{"v1": [1, 0, 0], "v1": [0, 1, 0]}}')


@pytest.mark.parametrize("argv", [
    ["charfn", "check", "{path}", "--corpus", "torus7"],
    ["quotient", "cone", "--corpus", "torus7", "--n", "3", "--charfn", "{path}", "--json"],
], ids=["check", "cone"])
def test_repeated_json_key_is_refused(argv, tmp_path, capsys):
    path = tmp_path / "lam.json"
    path.write_text(REPEATED_VERTEX_KEY)
    assert main([a.format(path=path) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "Error: SchemaViolation: key 'v1' repeated in one object\n"


def test_repeated_top_level_key_is_refused():
    doc = '{"format": "scomplex-v1", "name": "x", "facets": [["a"]], "name": "y"}'
    with pytest.raises(SchemaViolation, match="key 'name' repeated in one object"):
        io_mod.parse(doc)
    with pytest.raises(SchemaViolation, match="key 'name' repeated in one object"):
        io_mod.parse(doc.encode())
    assert io_mod.parse(doc.replace(', "name": "y"', "")).name == "x"


def test_bad_coefficient_label_is_clean_error(capsys):
    assert main(["homology", "--corpus", "torus7", "--coeff", "w"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "InvalidArgument: bad coefficient label 'w'" in captured.err
    assert "Traceback" not in captured.err


def test_facet_with_too_many_faces_is_refused(tmp_path, capsys):
    # one facet of 19 vertices, 2**19 - 1 faces: refused before enumeration
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"format": "scomplex-v1", "facets": [list(range(19))]}))
    assert main(["stats", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Error:" in captured.err and "face-count" in captured.err
    assert "Traceback" not in captured.err


def test_manifold_rank_data_breaking_exactness_is_refused(capsys):
    argv = ["quotient", "manifold", "--corpus", "torus7", "--n", "3",
            "--betti-q", "1,0,0,0", "--iota", "1,0,0,0", "--json"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Error: InconsistentBundle" in captured.err
    assert "Traceback" not in captured.err


def test_negative_top_iota_is_refused(capsys):
    # every delta bound holds, but iota_3 = -1 lands in H_3(bd Q) = 0
    argv = ["quotient", "manifold", "--corpus", "rp2_6", "--n", "3",
            "--betti-q", "1,0,0,0", "--iota", "1,0,0,-1", "--json"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("Error: InconsistentBundle: rank delta_4 + rank iota_3 = -1 "
                            "!= 0 = dim H_3(bd Q)\n")


def test_non_orientable_manifold_is_refused(tmp_path, capsys):
    # a problem has no orientable field: Q is orientable, and false is refused
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(_triangle_manifold(orientable=False)))
    assert main(["quotient", "manifold", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("Error: InconsistentBundle: relative homology is derived "
                            "by duality; orientable must be true\n")


# a cone bundle's rank keys reach the problem: each of these once passed,
# its report echoing (1, 0, 0) and "orientable": true
CONE_RANK_KEYS = {
    "orientable_false": ({"orientable": False},
                         "InconsistentBundle: Q is orientable: orientable must be true"),
    "orientable_null": ({"orientable": None},
                        "SchemaViolation: key 'orientable': expected bool, got NoneType"),
    "betti_q_off_trivial": ({"bettiQ": [1, 5, 0]},
                            "InconsistentBundle: cone problems fix betti_q = iota = (1,0,...,0)"),
    "iota_too_long": ({"iota": [1, 0, 0, 0]},
                      "InconsistentBundle: cone problems fix betti_q = iota = (1,0,...,0)"),
    "iota_str": ({"iota": ["1", 0, 0]}, "SchemaViolation: iota: expected a list of integers"),
}


@pytest.mark.parametrize("case", sorted(CONE_RANK_KEYS))
def test_cone_bundle_rank_keys_are_checked(case, tmp_path, capsys):
    changes, message = CONE_RANK_KEYS[case]
    doc = _triangle_cone(**changes)
    with pytest.raises(SposetError) as err:
        io_mod.parse(doc)
    assert f"{type(err.value).__name__}: {err.value}" == message
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(doc))
    assert main(["quotient", "cone", str(path), "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"Error: {message}\n"


def test_cone_bundle_may_give_its_own_rank_data():
    given = _triangle_cone(bettiQ=[1, 0, 0], iota=[1, 0, 0], orientable=True)
    assert io_mod.parse(given) == io_mod.parse(_triangle_cone())


def _refused_in_full(doc, argv, message, tmp_path, capsys):
    # io.parse raises the message, and the CLI prints it as its one line
    with pytest.raises(SposetError) as err:
        io_mod.parse(json.dumps(doc))
    assert f"{type(err.value).__name__}: {err.value}" == message
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main([a.format(path=path) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"Error: {message}\n"


@pytest.mark.parametrize("tag", ["banana", None, 7], ids=["banana", "missing", "int"])
def test_bundle_charfn_needs_its_tag(tag, tmp_path, capsys):
    lam = {k: v for k, v in _triangle_lambda([1, 0]).items() if k != "format"}
    if tag is not None:
        lam["format"] = tag
    _refused_in_full(_triangle_cone(charfn=lam), ["quotient", "cone", "{path}", "--json"],
                     f"SchemaViolation: charfn format tag {tag!r} is not 'charfn-v1'",
                     tmp_path, capsys)


def _triangle_scomplex(**changes):
    return {"format": "scomplex-v1", "name": "bd", "facets": [["a", "b"], ["a", "c"],
                                                             ["b", "c"]], **changes}


def _with_element_key(doc):
    return {**doc, "elements": [{**doc["elements"][0], "rank": 1}, *doc["elements"][1:]]}


QUOTIENT_CONE = ["quotient", "cone", "{path}", "--json"]
# each kind of object, top level and nested, with a key its format does not
# define; each once passed, the key dropped
UNKNOWN_KEYS = {
    "sposet": ({**_triangle_doc(), "dim": 1}, ["stats", "{path}"], "'dim' in sposet-v1"),
    "sposet_element": (_with_element_key(_triangle_doc()), ["stats", "{path}"],
                       "'rank' in elements[0]"),
    "scomplex_n": (_triangle_scomplex(n=3), ["stats", "{path}"], "'n' in scomplex-v1"),
    "scomplex_n_str": (_triangle_scomplex(n="x"), ["stats", "{path}"], "'n' in scomplex-v1"),
    "charfn": ({**_triangle_lambda([1, 0]), "name": "x"}, CHARFN_CHECK,
               "'name' in charfn-v1"),
    "cone_charfun": (_triangle_cone(charfun=_triangle_lambda([2, 0])), QUOTIENT_CONE,
                     "'charfun' in cone-v1"),
    "manifold": (_triangle_manifold(betti=[1, 0, 0]), ["quotient", "manifold", "{path}"],
                 "'betti' in manifold-v1"),
    "cone_poset": (_triangle_cone(poset=_triangle_scomplex(n=2)), QUOTIENT_CONE,
                   "'n' in scomplex-v1"),
    "cone_poset_element": (_triangle_cone(poset=_with_element_key(_triangle_doc())),
                           QUOTIENT_CONE, "'rank' in elements[0]"),
    "cone_charfn": (_triangle_cone(charfn={**_triangle_lambda([1, 0]), "bound": 5}),
                    QUOTIENT_CONE, "'bound' in charfn-v1"),
}


@pytest.mark.parametrize("case", sorted(UNKNOWN_KEYS))
def test_unknown_key_is_refused(case, tmp_path, capsys):
    doc, argv, where = UNKNOWN_KEYS[case]
    _refused_in_full(doc, argv, f"SchemaViolation: unknown key {where}", tmp_path, capsys)


@pytest.mark.parametrize("label", ["fp:1_3", "fp:\u0663", "fp:+3", "fp: 3"],
                         ids=["underscore", "arabic_indic_digit", "plus", "inner_space"])
def test_prime_field_label_takes_ascii_digits_only(label, tmp_path, capsys):
    # int() reads each of these as 13 or 3
    message = f"InvalidArgument: bad coefficient label {label!r}"
    assert main(["homology", "--corpus", "torus7", "--coeff", label, "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"Error: {message}\n"
    _refused_in_full(_triangle_cone(field=label), QUOTIENT_CONE, message, tmp_path, capsys)


def test_prime_field_label_keeps_outer_space_and_case():
    assert parse_coefficients(" FP:3\n") == prime_field(3)
    assert io_mod.parse(_triangle_cone(field="Fp:3 ")).coeff == prime_field(3)


def test_manifold_command_has_no_orientable_option(capsys):
    # Q is always orientable: a flag pair with one accepted value is gone
    assert main(["quotient", "manifold", "--help"]) == 0
    assert "orientable" not in capsys.readouterr().out
    argv = ["quotient", "manifold", "--corpus", "boundary_simplex(2)", "--n", "2",
            "--betti-q", "1,0,0", "--iota", "1,0,0", "--no-orientable"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "No such option" in err and "--no-orientable" in err


@pytest.mark.parametrize("n", ["4", "0", "-1", "70"])
def test_wrong_rank_refusal_fits_one_line(n, capsys):
    # at a wrong rank every one of torus7's 42 faces is a witness: the
    # message names the count and the first three, the exception keeps all
    assert main(["quotient", "cone", "--corpus", "torus7", "--n", n]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "NotBuchsbaum: links of 42 faces (v1, v1,v2, v1,v2,v4, ...)" in captured.err
    with pytest.raises(NotBuchsbaum) as err:
        QuotientProblem(CONE, corpus("torus7"), int(n), RATIONALS)
    assert len({w[0] for w in err.value.witnesses}) == 42


# documents json cannot decode, each once a traceback from io.parse and the CLI:
# a byte that is not UTF-8, nesting past the recursion limit, and an integer
# literal past Python's int-string digit limit
UNDECODABLE = {
    "non_utf8_byte": b'{"format": "scomplex-v1", "facets": [["a", "\xff"]]}',
    "deep_nesting": b"[" * 200_000 + b"]" * 200_000,
    "long_integer": b'{"format": "charfn-v1", "n": ' + b"9" * 5000 + b', "assignment": {}}',
}


@pytest.mark.parametrize("case", sorted(UNDECODABLE))
def test_undecodable_document_is_schema_violation(case, tmp_path, capsys):
    data = UNDECODABLE[case]
    with pytest.raises(SchemaViolation, match="not valid JSON"):
        io_mod.parse(data)
    if case != "non_utf8_byte":
        with pytest.raises(SchemaViolation, match="not valid JSON"):
            io_mod.parse(data.decode())
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    assert main(["stats", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Error: SchemaViolation: not valid JSON" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["stats", "{dir}"],
    ["charfn", "check", "{dir}", "--corpus", "torus7"],
    ["quotient", "cone", "--corpus", "torus7", "--n", "3", "--charfn", "{dir}"],
], ids=["poset_path", "check_lambda_path", "cone_charfn_option"])
def test_directory_path_is_usage_error(argv, tmp_path, capsys):
    assert main([a.format(dir=tmp_path) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "is a directory" in captured.err
    assert "Traceback" not in captured.err


def _boom():
    raise InternalError("boom")


# where a SposetError can be raised beneath the command group: a command
# of its own, a command of a subgroup, and a parameter callback
BOOM_PLACES = {
    "command": (None, click.Command("boom", callback=_boom)),
    "subgroup_command": ("charfn", click.Command("boom", callback=_boom)),
    "parameter_callback": (None, click.Command("boom", params=[
        click.Option(["--x"], callback=lambda ctx, param, value: _boom())])),
}


@pytest.mark.parametrize("case", sorted(BOOM_PLACES))
def test_group_prints_any_sposet_error_as_one_line(case, monkeypatch, capsys):
    group, command = BOOM_PLACES[case]
    if group is None:
        monkeypatch.setitem(cli.commands, "boom", command)
        assert main(["boom"]) == 1
    else:
        monkeypatch.setitem(cli.commands[group].commands, "boom", command)
        assert main([group, "boom"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "Error: InternalError: boom\n"


# CLI input that once escaped as a Python traceback; {path} holds BAD_FORMAT_TAG,
# {poset} a sposet-v1 document and {bundle} a manifold-v1 one
BAD_FORMAT_TAG = {"format": ["sposet-v1"]}
BAD_CLI_INPUTS = {
    "check_poset_as_lambda": ["charfn", "check", "{poset}", "--corpus", "torus7"],
    "check_bundle_as_lambda": ["charfn", "check", "{bundle}", "--corpus", "torus7"],
    "cone_poset_as_lambda": [
        "quotient", "cone", "--corpus", "torus7", "--n", "3", "--charfn", "{poset}",
    ],
    "cone_bundle_as_lambda": [
        "quotient", "cone", "--corpus", "torus7", "--n", "3", "--charfn", "{bundle}",
    ],
    "betti_q_not_int": [
        "quotient", "manifold", "--corpus", "torus7", "--n", "3",
        "--betti-q", "1,a,0,0", "--iota", "1,1,0,0",
    ],
    "random_bound_zero": ["charfn", "random", "--corpus", "torus7", "--n", "3", "--bound", "0"],
    "random_wrong_rank": ["charfn", "random", "--corpus", "torus7", "--n", "2"],
    "format_tag_list": ["stats", "{path}"],
}


@pytest.mark.parametrize("case", sorted(BAD_CLI_INPUTS))
def test_bad_cli_input_is_clean_error(case, tmp_path, capsys):
    files = {"path": BAD_FORMAT_TAG, "poset": io_mod.emit_poset(corpus("torus7")),
             "bundle": solid_torus_bundle_doc()}
    for key, doc in files.items():
        files[key] = tmp_path / f"{key}.json"
        files[key].write_text(json.dumps(doc))
    assert main([a.format(**files) for a in BAD_CLI_INPUTS[case]]) != 0
    err = capsys.readouterr().err
    assert "Error:" in err
    assert "Traceback" not in err


# a bundle holds the whole problem and a poset comes from one source, so
# these mixes would drop input; each is a usage error
DROPPED_INPUT = {
    "corpus_and_file": (["quotient", "cone", "--corpus", "boundary_simplex(3)", "{poset}",
                         "--n", "3"], "give exactly one of --corpus NAME or a file path"),
    "bundle_field": (["quotient", "manifold", "{bundle}", "--field", "q"], "drop --field"),
    "bundle_charfn": (["quotient", "manifold", "{bundle}", "--charfn", "{lam}"],
                      "drop --charfn"),
    "bundle_betti_q": (["quotient", "manifold", "{bundle}", "--betti-q", "1,1,0,0"],
                       "drop --betti-q"),
    "bundle_iota": (["quotient", "manifold", "{bundle}", "--iota", "9,9,9,9"], "drop --iota"),
    "cone_bundle_field": (["quotient", "cone", "{cone}", "--field", "fp:2", "--json"],
                          "drop --field"),
}


@pytest.mark.parametrize("case", sorted(DROPPED_INPUT))
def test_dropped_quotient_input_is_usage_error(case, tmp_path, capsys):
    files = {"poset": io_mod.emit_poset(corpus("torus7")), "bundle": solid_torus_bundle_doc(),
             "cone": {**solid_torus_bundle_doc(), "format": "cone-v1"},
             "lam": _triangle_lambda([1, 0])}
    for key, doc in files.items():
        files[key] = tmp_path / f"{key}.json"
        files[key].write_text(json.dumps(doc))
    argv, message = DROPPED_INPUT[case]
    assert main([a.format(**files) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def _failing_suite(S, ring):
    rep = identity_report(S, ring)
    return dataclasses.replace(rep, checks={**rep.checks, "h_top_is_euler": False})


def _failing_verify(prob, tables, real=spectral.verify):
    rep = real(prob, tables)
    return dataclasses.replace(rep, checks={**rep.checks, "euler_conserved": False})


# (argv, exit code): a passing and a failing input per command; {lam}
# holds a λ on boundary_simplex(2) that is valid over Q, not over Z, and
# each "_failing" case runs with one check of its report forced false
EXIT_CODES = {
    "stats_ok": (["stats", "--corpus", "torus7"], 0),
    "stats_lambda_file": (["stats", "{lam}"], 1),
    "homology_ok": (["homology", "--corpus", "rp2_6", "--coeff", "z"], 0),
    "homology_lambda_file": (["homology", "{lam}"], 1),
    "fvec_ok": (["fvec", "--corpus", "torus7"], 0),
    "fvec_integers": (["fvec", "--corpus", "torus7", "--field", "z"], 1),
    "classify_ok": (["classify", "--corpus", "rp2_6", "--field", "fp:2"], 0),
    "classify_lambda_file": (["classify", "{lam}"], 1),
    "identities_ok": (["identities", "--corpus", "torus7"], 0),
    "identities_failing": (["identities", "--corpus", "torus7"], 1),
    "check_q": (["charfn", "check", "{lam}", "--corpus", "boundary_simplex(2)",
                 "--coeff", "q"], 0),
    "check_z": (["charfn", "check", "{lam}", "--corpus", "boundary_simplex(2)"], 1),
    "quotient_ok": (["quotient", "cone", "--corpus", "torus7", "--n", "3"], 0),
    "quotient_failing": (["quotient", "cone", "--corpus", "torus7", "--n", "3"], 1),
}


@pytest.mark.parametrize("case", sorted(EXIT_CODES))
def test_exit_code_does_not_depend_on_json(case, tmp_path, capsys, monkeypatch):
    if case == "identities_failing":
        monkeypatch.setattr(cli_mod, "identity_report", _failing_suite)
    if case == "quotient_failing":
        monkeypatch.setattr(spectral, "verify", _failing_verify)
    lam = tmp_path / "lam.json"
    lam.write_text(json.dumps(_triangle_lambda([2, 1])))
    argv, code = EXIT_CODES[case]
    argv = [a.format(lam=lam) for a in argv]
    assert main(argv) == code
    assert main([*argv, "--json"]) == code


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("Usage:")


def test_interrupt_in_a_command_exits_1_aborted(monkeypatch, capsys):
    def interrupted(S):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli_mod, "validate_stats", interrupted)
    assert main(["stats", "--corpus", "torus7"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "\nAborted!\n"


def test_version_runs_from_a_checkout(capsys):
    # the version comes from the package itself, not installed metadata
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.endswith(" version 0.1.0\n")


MANIFOLD_TORUS7 = ["quotient", "manifold", "--corpus", "torus7", "--n", "{n}",
                   "--betti-q", "1,1,0,{betti_q}", "--iota", "1,1,0,{iota}", "--json"]
RANDOM_TORUS7 = ["charfn", "random", "--corpus", "torus7", "--n", "{n}", "--seed", "{seed}",
                 "--bound", "{bound}"]
# each integer option: a command that gives it, the field of its value (in a
# list option, the last integer) and the digit that value is written with
INT_OPTIONS = {
    "cone_n": (["quotient", "cone", "--corpus", "torus7", "--n", "{n}", "--json"], "n", 3),
    "manifold_n": (MANIFOLD_TORUS7, "n", 3),
    "manifold_betti_q": (MANIFOLD_TORUS7, "betti_q", 0),
    "manifold_iota": (MANIFOLD_TORUS7, "iota", 0),
    "random_n": (RANDOM_TORUS7, "n", 3),
    "random_seed": (RANDOM_TORUS7, "seed", 7),
    "random_bound": (RANDOM_TORUS7, "bound", 3),
}


def _int_run(case, form, capsys):
    # (exit status, stdout, stderr) with the option's digit d written as form
    argv, key, digit = INT_OPTIONS[case]
    values = {"n": "3", "seed": "7", "bound": "3", "betti_q": "0", "iota": "0"}
    values[key] = form.format(d=digit)
    code = main([a.format(**values) for a in argv])
    return (code, *capsys.readouterr())


@pytest.mark.parametrize("form", ["+{d}", "{d}_0", "fullwidth", "arabic_indic", "{d}.0",
                                  "0x{d}", "--{d}"])
@pytest.mark.parametrize("case", sorted(INT_OPTIONS))
def test_integer_option_is_read_as_written(case, form, capsys):
    # a sign other than minus, an underscore, another script's digit, a
    # point, a base prefix or two minus signs; Python's int reads the first four
    digit = INT_OPTIONS[case][2]
    form = {"fullwidth": chr(0xFF10 + digit), "arabic_indic": chr(0x660 + digit)}.get(form, form)
    code, out, err = _int_run(case, form, capsys)
    assert code == 2 and out == ""
    option = "--" + INT_OPTIONS[case][1].replace("_", "-")
    assert f"Invalid value for '{option}'" in err and "Traceback" not in err


@pytest.mark.parametrize("form", ["0{d}", "00{d}", " {d}", "{d}\t"])
@pytest.mark.parametrize("case", sorted(INT_OPTIONS))
def test_integer_option_keeps_leading_zeros_and_outer_space(case, form, capsys):
    expected = _int_run(case, "{d}", capsys)
    assert expected[0] == 0
    assert _int_run(case, form, capsys) == expected


def test_integer_option_takes_minus_and_any_length(capsys):
    assert main([*RANDOM_TORUS7[:5], "3", "--seed", "-5", "--bound", "1" + "0" * 23]) == 0
    assert capsys.readouterr().out.startswith('{"assignment":')
    # past the interpreter's limit on digits, still a usage error
    assert main([*RANDOM_TORUS7[:5], "3", "--seed", "1" * 5000]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Invalid value for '--seed'" in captured.err


def test_unhashable_format_tag_is_unknown_format():
    for tag in (["sposet-v1"], {"x": 1}):
        with pytest.raises(UnknownFormat):
            io_mod.parse({"format": tag})


HASH_SEED_RUN = """
import hashlib, json, os, sys
from click.testing import CliRunner
from sposet import barycentric, corpus
from sposet.cli import cli
from sposet.io import dumps_canonical, emit_poset
from sposet.poset import from_facets

def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]

sd = barycentric(corpus("torus7"))
sdsd = barycentric(sd)
print(digest(dumps_canonical(emit_poset(
    from_facets([sdsd.element(m).vertices for m in sdsd.maximal_ids()])))))
path = os.path.join(sys.argv[1], "sd_torus7.json")
with open(path, "w") as out:
    json.dump({"format": "scomplex-v1", "name": "sd(torus7)",
               "facets": [list(sd.element(m).vertices) for m in sd.maximal_ids()]}, out)
run = CliRunner().invoke(cli, ["quotient", "cone", path, "--n", "3", "--json"])
print(run.exit_code, digest(run.output))
"""


def test_outputs_agree_across_hash_seeds(tmp_path):
    # the builder iterates sets of str tuples, whose order follows the hash seed
    src = os.path.dirname(os.path.dirname(sposet.__file__))
    outs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        run = subprocess.run([sys.executable, "-c", HASH_SEED_RUN, str(tmp_path)], env=env,
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        outs.append(run.stdout)
    assert outs[0] == outs[1]
    assert outs[0].splitlines()[1].startswith("0 ")
