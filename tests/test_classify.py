import pytest

from sposet.classify import buchsbaum_witnesses, classify
from sposet.errors import NotConnected, NotPure
from sposet.facevec import face_vector_report
from sposet.corpus import corpus, corpus_names
from sposet.homology import INTEGERS, RATIONALS, prime_field, reduced_betti
from sposet.poset import SimplexElem, barycentric, from_face_lattice, from_facets, f_vector

from oracles import oracle_link


def _row(S, eid, coeff=RATIONALS):
    # one row of the link table: the reduced homology of a face's link
    return reduced_betti(S, coeff, root=eid)


class TestLinkTable:
    def test_boundary_triangle(self, bd_triangle):
        for v in ("v1", "v2", "v3"):
            assert _row(bd_triangle, v).reduced == (0, 1)
        for e in ("v1,v2", "v1,v3", "v2,v3"):
            assert _row(bd_triangle, e).reduced == (1,)

    def test_torus7_vertex_links(self, torus7):
        for v in [e.id for e in torus7.by_rank(1)]:
            assert _row(torus7, v).reduced == (0, 0, 1)

    def test_full_triangle_links_acyclic(self, full_triangle):
        for v in ("v1", "v2", "v3"):
            assert all(x == 0 for x in _row(full_triangle, v).reduced)

    def test_rows_match_link_posets(self):
        # the restricted complexes against each link poset's own complex;
        # the cone over rp2_6 has Z/2 torsion in the link of its apex
        rp2 = corpus("rp2_6")
        posets = [corpus(name) for name in corpus_names()] + [
            barycentric(corpus("torus7")),
            barycentric(rp2),
            from_facets([(*f.vertices, "apex") for f in rp2.by_rank(3)], name="cone(rp2_6)"),
        ]
        torsion = 0
        for S in posets:
            links = {e.id: oracle_link(S, e.id) for e in S.elements()}
            for coeff in (INTEGERS, RATIONALS, prime_field(2), prime_field(3)):
                for eid, link in links.items():
                    row = _row(S, eid, coeff)
                    assert row == reduced_betti(link, coeff), (S.name, eid, coeff)
                    torsion += any(row.torsion)
        assert torsion == 1

    def test_not_pure(self):
        S = from_face_lattice(
            [
                SimplexElem("w", ("w",), ()),
                SimplexElem("a", ("a",), ()),
                SimplexElem("b", ("b",), ()),
                SimplexElem("e", ("a", "b"), ("b", "a")),
            ]
        )
        # every link-based count and verdict refuses it at the purity gate
        with pytest.raises(NotPure):
            face_vector_report(S, RATIONALS)
        with pytest.raises(NotPure):
            classify(S, RATIONALS)


class TestClassify:
    def test_torus7_over_q(self, torus7):
        cls = classify(torus7, RATIONALS)
        assert cls.buchsbaum
        assert not cls.cohen_macaulay
        assert cls.homology_manifold
        assert cls.orientable_over_field
        assert cls.witnesses == ((None, 1, 2),)

    def test_boundary_triangle(self, bd_triangle):
        cls = classify(bd_triangle, RATIONALS)
        assert cls.cohen_macaulay and cls.homology_manifold
        assert cls.witnesses == ()

    def test_rp2_field_comparison(self, corpus_posets):
        rp2 = corpus_posets["rp2_6"]
        over_q = classify(rp2, RATIONALS)
        assert over_q.cohen_macaulay
        assert not over_q.orientable_over_field
        assert over_q.witnesses == ()
        over_f2 = classify(rp2, prime_field(2))
        assert over_f2.buchsbaum and not over_f2.cohen_macaulay
        assert over_f2.homology_manifold
        assert over_f2.orientable_over_field
        assert over_f2.witnesses

    def test_full_triangle_cm_not_manifold(self, full_triangle):
        cls = classify(full_triangle, RATIONALS)
        assert cls.cohen_macaulay
        assert not cls.homology_manifold
        assert cls.witnesses

    def test_two_arc_circle_negative_control(self, corpus_posets):
        cls = classify(corpus_posets["two_arc_circle"], RATIONALS)
        assert cls.buchsbaum and cls.cohen_macaulay and cls.homology_manifold
        assert cls.witnesses == ()

    def test_disconnected_is_error(self, corpus_posets):
        with pytest.raises(NotConnected):
            classify(corpus_posets["s1xI_faceposet"], RATIONALS)

    def test_witnesses_iff_some_property_fails(self, corpus_posets, full_triangle):
        posets = [full_triangle] + [
            S
            for name, S in corpus_posets.items()
            if name != "s1xI_faceposet"
        ]
        for S in posets:
            for coeff in (RATIONALS, prime_field(2)):
                cls = classify(S, coeff)
                failed = not (
                    cls.buchsbaum and cls.cohen_macaulay and cls.homology_manifold
                )
                assert bool(cls.witnesses) == failed, S.name

    def test_manifold_verdict_forces_ft_equals_f(self, corpus_posets, full_triangle):
        posets = [full_triangle] + [
            S
            for name, S in corpus_posets.items()
            if name != "s1xI_faceposet"
        ]
        for S in posets:
            for coeff in (RATIONALS, prime_field(2)):
                cls = classify(S, coeff)
                if cls.homology_manifold:
                    assert face_vector_report(S, coeff).ft == f_vector(S)[1:], S.name

    def test_field_verdicts_monotone(self, corpus_posets, full_triangle):
        # vanishing over F_p forces vanishing over Q, so a pass over F_p
        # with a failure over Q would be an anomaly
        posets = [full_triangle] + [
            S
            for name, S in corpus_posets.items()
            if name != "s1xI_faceposet"
        ]
        for S in posets:
            over_q = classify(S, RATIONALS)
            for p in (2, 3):
                over_p = classify(S, prime_field(p))
                assert not (over_p.buchsbaum and not over_q.buchsbaum), S.name
                assert not (
                    over_p.cohen_macaulay and not over_q.cohen_macaulay
                ), S.name


class TestBuchsbaumWitnesses:
    def test_cylinder_poset_fails_at_declared_rank_two(self, corpus_posets):
        S = corpus_posets["s1xI_faceposet"]
        assert buchsbaum_witnesses(S, RATIONALS, n=1) == ()
        wits = buchsbaum_witnesses(S, RATIONALS, n=2)
        assert {w[0] for w in wits} == {"F1", "F2"}
        assert all(deg == -1 and val == 1 for _, deg, val in wits)

    def test_wrong_rank_flags_maximal_faces(self, bd_triangle):
        wits = buchsbaum_witnesses(bd_triangle, RATIONALS, n=3)
        flagged = {w[0] for w in wits}
        # with rank 3 the edges' empty links land in degree -1 != 0
        assert {"v1,v2", "v1,v3", "v2,v3"} <= flagged
