import random
from itertools import combinations

import pytest

from sposet.errors import (
    DanglingFaceRef,
    EmptyInput,
    NonBooleanInterval,
    PosetValidationError,
    RankMismatch,
    UnknownElement,
)
from sposet import poset as poset_mod
from sposet.corpus import corpus, corpus_names
from sposet.homology import _walk_up
from sposet.poset import (
    MAX_FACES,
    MAX_RANK,
    SimplexElem,
    barycentric,
    from_face_lattice,
    from_facets,
    validate_stats,
)

from oracles import interval_ids, oracle_link, powerset_faces


def two_arc_circle_elems():
    return [
        SimplexElem("v1", ("v1",), ()),
        SimplexElem("v2", ("v2",), ()),
        SimplexElem("e", ("v1", "v2"), ("v2", "v1")),
        SimplexElem("e'", ("v1", "v2"), ("v2", "v1")),
    ]


class TestFromFaceLattice:
    def test_two_arc_circle_is_valid(self):
        S = from_face_lattice(two_arc_circle_elems())
        assert S.dim == 1
        assert validate_stats(S).f == (1, 2, 2)

    def test_single_vertex(self):
        S = from_face_lattice([SimplexElem("v", ("v",), ())])
        assert S.dim == 0
        assert validate_stats(S).f == (1, 1)

    def test_repeated_facet_id_rejected(self):
        # rank-3 face listing one facet twice cannot have a Boolean interval
        elems = [
            SimplexElem("a", ("a",), ()),
            SimplexElem("b", ("b",), ()),
            SimplexElem("c", ("c",), ()),
            SimplexElem("ab", ("a", "b"), ("b", "a")),
            SimplexElem("ac", ("a", "c"), ("c", "a")),
            SimplexElem("bc", ("b", "c"), ("c", "b")),
            SimplexElem("t", ("a", "b", "c"), ("bc", "bc", "ab")),
        ]
        with pytest.raises(NonBooleanInterval):
            from_face_lattice(elems)

    def test_dangling_facet_reference(self):
        elems = [
            SimplexElem("v1", ("v1",), ()),
            SimplexElem("v2", ("v2",), ()),
            SimplexElem("e", ("v1", "v2"), ("v2", "ghost")),
        ]
        with pytest.raises(DanglingFaceRef):
            from_face_lattice(elems)

    def test_facet_count_must_match_rank(self):
        elems = [
            SimplexElem("v1", ("v1",), ()),
            SimplexElem("v2", ("v2",), ()),
            SimplexElem("e", ("v1", "v2"), ("v2",)),
        ]
        with pytest.raises(RankMismatch):
            from_face_lattice(elems)

    def test_facet_with_wrong_vertex_set(self):
        elems = [
            SimplexElem("v1", ("v1",), ()),
            SimplexElem("v2", ("v2",), ()),
            SimplexElem("e", ("v1", "v2"), ("v1", "v2")),
        ]
        with pytest.raises(NonBooleanInterval):
            from_face_lattice(elems)

    def test_face_with_no_vertices_rejected(self):
        with pytest.raises(RankMismatch, match="face with no vertices"):
            from_face_lattice([SimplexElem("a", (), ())])

    def test_non_commuting_facet_maps_rejected(self):
        # every facet omits the right vertex, but the edges ab and ac reach
        # the vertex a through two different ids, so the triangle's lower
        # interval is not Boolean
        elems = [
            SimplexElem("a", ("a",), ()),
            SimplexElem("a2", ("a",), ()),
            SimplexElem("b", ("b",), ()),
            SimplexElem("c", ("c",), ()),
            SimplexElem("ab", ("a", "b"), ("b", "a")),
            SimplexElem("ac", ("a", "c"), ("c", "a2")),
            SimplexElem("bc", ("b", "c"), ("c", "b")),
            SimplexElem("t", ("a", "b", "c"), ("bc", "ac", "ab")),
        ]
        with pytest.raises(NonBooleanInterval, match="facet maps do not commute"):
            from_face_lattice(elems)

    def test_duplicate_ids_rejected(self):
        elems = [
            SimplexElem("v", ("v1",), ()),
            SimplexElem("v", ("v2",), ()),
        ]
        with pytest.raises(PosetValidationError):
            from_face_lattice(elems)


class TestSimplexElem:
    def test_immutable_and_hashable(self):
        e = SimplexElem("a,b", ("a", "b"), ("b", "a"))
        with pytest.raises(AttributeError):
            e.id = "c"
        with pytest.raises(AttributeError):
            e.extra = 1
        assert hash(e) == hash(SimplexElem("a,b", ("a", "b"), ("b", "a")))
        assert (e.id, e.rank, e.dim) == ("a,b", 2, 1)

    def test_equals_its_plain_tuple(self):
        assert SimplexElem("a", ("a",), ()) == ("a", ("a",), ())


class TestFromFacets:
    def test_boundary_triangle(self):
        S = from_facets([{1, 2}, {1, 3}, {2, 3}])
        assert validate_stats(S).f == (1, 3, 3)

    def test_full_triangle_is_power_set(self):
        S = from_facets([{1, 2, 3}])
        assert validate_stats(S).f == (1, 3, 3, 1)

    def test_matches_subset_enumeration_oracle(self, torus7):
        facets = [set(e.vertices) for e in torus7.by_rank(3)]
        expected = powerset_faces(facets)
        got = {frozenset(e.vertices) for e in torus7.elements()}
        assert got == expected
        # vertex sets determine faces uniquely in a genuine complex
        assert len(got) == len(torus7)

    def test_torus7_counts(self, torus7):
        assert validate_stats(torus7).f == (1, 7, 21, 14)

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            from_facets([])
        with pytest.raises(EmptyInput):
            from_facets([set()])

    def test_facet_above_max_rank_refused_before_enumeration(self):
        # enumerating its 2**65 subsets first would never end
        with pytest.raises(PosetValidationError, match="ambient-rank"):
            from_facets([["a", "b"], range(MAX_RANK + 1)])

    def test_first_facet_at_fault_names_the_error(self):
        # the guards of an earlier facet win over those of a later one
        with pytest.raises(EmptyInput):
            from_facets([["a"], [], ["b", True]])
        with pytest.raises(PosetValidationError, match="element-shape"):
            from_facets([["a"], ["b", True], []])
        with pytest.raises(PosetValidationError, match="face-count"):
            from_facets([range(19), ["b", True]])
        with pytest.raises(PosetValidationError, match="ambient-rank"):
            from_facets([range(MAX_RANK + 1), "ab"])
        with pytest.raises(PosetValidationError, match="element-shape"):
            from_facets(["ab", range(MAX_RANK + 1)])

    def test_iterator_facets_are_read_once(self):
        assert validate_stats(from_facets([iter(["b", "a"]), iter(("c", 1))])).f == (1, 4, 2)
        with pytest.raises(PosetValidationError, match="element-shape"):
            from_facets([iter(["a", True])])

    def test_refusal_stops_reading_at_the_faulty_facet(self):
        def facets():
            yield ["a", "b"]
            yield []
            raise RuntimeError("read past the empty facet")

        with pytest.raises(EmptyInput, match="empty facet vertex set"):
            from_facets(facets())

    def test_facet_order_does_not_matter(self, torus7):
        S = barycentric(barycentric(torus7))
        facets = [S.element(m).vertices for m in S.maximal_ids()]
        shuffled = [tuple(reversed(f)) for f in facets]
        random.Random(21).shuffle(shuffled)
        built = [from_facets(fs) for fs in (facets, facets[::-1], shuffled)]
        assert built[0] == built[1] == built[2] == S
        assert built[0].elements() == built[1].elements() == built[2].elements()

    def test_face_count_refused_before_enumeration(self, monkeypatch):
        # 2**19 - 1 subsets: enumerating them first takes gigabytes
        with pytest.raises(PosetValidationError, match="face-count"):
            from_facets([range(19)])
        # the bound adds 2**k - 1 per facet of k vertices, over all facets
        monkeypatch.setattr(poset_mod, "MAX_FACES", 14)
        assert len(from_facets([("a", "b", "c"), ("c", "d", "e")])) == 13
        with pytest.raises(PosetValidationError, match="face-count"):
            from_facets([("a", "b", "c"), ("c", "d", "e"), ("e", "f")])

    def test_face_bound_admits_the_corpus_and_thrice_subdivided_torus(self):
        def counted(S):
            return sum(2 ** S.element(m).rank - 1 for m in S.maximal_ids())

        for name in corpus_names():
            S = corpus(name)
            assert counted(barycentric(barycentric(S))) <= MAX_FACES, name
        S = barycentric(barycentric(barycentric(corpus("torus7"))))
        assert counted(S) == 21168 and len(S) == 9072

    @staticmethod
    def _agrees_with_face_lattice(facets):
        # from_facets builds in one pass; from_face_lattice reruns every check.
        # A facet naming one vertex twice, 1 and "1" alike, is refused first.
        if any(len({str(v) for v in f}) < len(f) for f in facets):
            with pytest.raises(RankMismatch, match="repeats a vertex name"):
                from_facets(facets)
            return "repeat"
        faces = powerset_faces([{str(v) for v in f} for f in facets])
        if len({",".join(sorted(f)) for f in faces}) < len(faces):
            with pytest.raises(PosetValidationError, match="vertex-name"):
                from_facets(facets)
            return "collide"
        S = from_facets(facets)
        assert from_face_lattice(S.elements()) == S
        assert {frozenset(e.vertices) for e in S.elements()} == faces
        assert S.n == max(map(len, faces))
        return "built"

    def test_one_pass_matches_face_lattice(self, corpus_posets):
        t7 = corpus_posets["torus7"]
        ladder = [t7, barycentric(t7),
                  from_facets([[f"v{j}" for j in range(7) if j != i] for i in range(7)]),
                  barycentric(barycentric(corpus_posets["boundary_simplex(3)"])),
                  barycentric(barycentric(t7))]
        for S in (*corpus_posets.values(), *ladder):
            assert self._agrees_with_face_lattice(
                [S.element(m).vertices for m in S.maximal_ids()]) == "built", S.name

    def test_one_pass_matches_face_lattice_fuzzed(self):
        # names with commas make some subset ids collide
        names = ["a", "b", "c", "d", 1, "1", "a,b", "b,c", "1,a", ""]
        rng = random.Random(20261018)
        outcomes = set()
        for _ in range(300):
            facets = [rng.sample(names, rng.randint(1, 4)) for _ in range(rng.randint(1, 4))]
            outcomes.add(self._agrees_with_face_lattice(facets))
        assert outcomes == {"built", "collide", "repeat"}


class TestLink:
    """The full-scan link oracle, on links known by hand, and against the
    library's up-set walk."""

    def test_vertex_link_of_boundary_triangle(self, bd_triangle):
        lk = oracle_link(bd_triangle, "v1")
        assert validate_stats(lk).f == (1, 2)
        assert lk.n == 1

    def test_link_of_maximal_face_is_empty(self, bd_triangle):
        lk = oracle_link(bd_triangle, "v1,v2")
        assert len(lk) == 0
        assert lk.dim == -1

    def test_torus7_vertex_links_are_circles(self, torus7):
        for v in [e.id for e in torus7.by_rank(1)]:
            lk = oracle_link(torus7, v)
            st = validate_stats(lk)
            assert st.f == (1, 6, 6)
            assert st.connected and st.pure

    def test_link_rank_shift(self, torus7):
        lk = oracle_link(torus7, "v1,v2")
        assert lk.n == 1
        assert validate_stats(lk).f == (1, 2)

    def test_unknown_element(self, bd_triangle):
        with pytest.raises(UnknownElement):
            oracle_link(bd_triangle, "nope")

    def test_matches_full_scan_oracle(self, corpus_posets):
        # the library's up-set walk from each face's covers, level by level,
        # against the faces of the oracle's link poset
        for name, S in corpus_posets.items():
            cofaces = S._cofaces()
            for e in S.elements():
                lk = oracle_link(S, e.id)
                covers = dict.fromkeys(c.id for c in cofaces[e.id])
                levels = [tuple(sorted(level)) for level in _walk_up(cofaces, covers)]
                want = [tuple(x.id for x in lk.by_rank(k)) for k in range(1, lk.dim + 2)]
                assert (levels, lk.n) == (want, S.n - e.rank), (name, e.id)

    def test_link_revalidates(self, torus7):
        # links go through full construction, so Boolean checks rerun
        lk = oracle_link(torus7, "v1")
        for e in lk.elements():
            assert len(interval_ids(lk, e.id)) == 2 ** e.rank - 1


class TestBarycentric:
    def test_single_vertex(self):
        S = from_face_lattice([SimplexElem("v", ("v",), ())])
        assert validate_stats(barycentric(S)).f == (1, 1)

    def test_boundary_triangle_gives_hexagon(self, bd_triangle):
        sd = barycentric(bd_triangle)
        assert validate_stats(sd).f == (1, 6, 6)

    def test_two_arc_circle_gives_square(self):
        S = from_face_lattice(two_arc_circle_elems())
        sd = barycentric(S)
        assert validate_stats(sd).f == (1, 4, 4)

    def test_roundtrips_through_from_facets(self, torus7):
        sd = barycentric(torus7)
        facets = [set(e.vertices) for e in sd.by_rank(sd.dim + 1)]
        assert from_facets(facets) == sd

    def test_vertex_count_and_dimension(self, corpus_posets):
        for S in corpus_posets.values():
            sd = barycentric(S)
            assert len(sd.by_rank(1)) == len(S)
            assert sd.dim == S.dim

    def test_face_count_refused_before_listing_chains(self, monkeypatch):
        # one facet of 8 vertices lies over 8! maximal chains of 2**8 - 1
        # faces each; listing them first costs time and memory growing as k!
        S = from_facets([range(8)])
        monkeypatch.setattr(poset_mod, "from_facets", lambda *a, **k: pytest.fail("listed"))
        with pytest.raises(PosetValidationError, match="10281600 faces") as err:
            barycentric(S)
        assert err.value.axiom == "face-count"
        # 7 facets of 6! chains of 2**6 - 1 faces each
        with pytest.raises(PosetValidationError, match="face-count"):
            barycentric(from_facets(combinations(range(7), 6)))


class TestStatsAndIntervals:
    def test_boolean_interval_sizes(self, corpus_posets):
        for S in corpus_posets.values():
            for e in S.elements():
                ids = interval_ids(S, e.id)
                assert len(ids) == 2 ** e.rank - 1
                vsets = {S.element(i).vertices for i in ids}
                assert len(vsets) == len(ids)

    def test_boundary_triangle_stats(self, bd_triangle):
        st = validate_stats(bd_triangle)
        assert (st.dim, st.pure, st.connected) == (1, True, True)

    def test_disjoint_vertex_and_edge_not_pure(self):
        elems = [
            SimplexElem("w", ("w",), ()),
            SimplexElem("a", ("a",), ()),
            SimplexElem("b", ("b",), ()),
            SimplexElem("e", ("a", "b"), ("b", "a")),
        ]
        st = validate_stats(from_face_lattice(elems))
        assert not st.pure
        assert not st.connected

    def test_torus7_stats(self, torus7):
        st = validate_stats(torus7)
        assert (st.dim, st.pure, st.connected) == (2, True, True)

    def test_connected_from_1_skeleton_matches_comparability_graph(self, corpus_posets):
        # the verdict from vertices and edges against a search over every
        # face linked to its facets, which is connectivity by definition
        def comparability_connected(S):
            linked = {e.id: set(e.facets) for e in S}
            for e in S:
                for fid in e.facets:
                    linked[fid].add(e.id)
            start = next(iter(linked), None)
            seen, todo = {start}, [start]
            while todo:
                for other in linked.get(todo.pop(), ()):
                    if other not in seen:
                        seen.add(other)
                        todo.append(other)
            return start is not None and len(seen) == len(S)

        posets = [*corpus_posets.values(),
                  from_facets([("a", "b", "c"), ("c", "d"), ("e",)], name="non_pure"),
                  from_facets([("a", "b", "c"), ("a", "d", "e")], name="bowtie"),
                  from_facets([("a", "b", "c"), ("d", "e", "f"), ("e", "g")], name="two_parts")]
        verdicts = {}
        for S in posets:
            verdicts[S.name] = validate_stats(S).connected
            assert verdicts[S.name] == comparability_connected(S), S.name
        assert not verdicts["s1xI_faceposet"] and not verdicts["two_parts"]
        assert verdicts["bowtie"] and not verdicts["non_pure"]

    def test_rank_buckets_partition_the_faces(self, corpus_posets):
        # by_rank, dim and the f-vector read one rank map, kept per poset,
        # against a scan of every face
        posets = [*corpus_posets.values(), barycentric(corpus_posets["torus7"]),
                  from_face_lattice([]), from_face_lattice([SimplexElem("v", ("v",), ())], n=3),
                  from_facets([("a", "b", "c"), ("c", "d"), ("e",)], name="non_pure")]
        for S in posets:
            buckets = [S.by_rank(k) for k in range(S.n + 2)]
            for k, bucket in enumerate(buckets):
                assert bucket == tuple(e for e in S if e.rank == k), (S.name, k)
                assert [e.id for e in bucket] == sorted(e.id for e in bucket)
                assert not bucket or S.by_rank(k) is bucket
            assert sum(buckets, ()) == S.elements()
            assert S.dim == max((e.dim for e in S), default=-1)
            assert validate_stats(S).f == (1, *map(len, buckets[1:S.n + 1]))
        assert not hasattr(poset_mod, "f_vector")

    def test_ambient_rank_override(self):
        S = from_face_lattice([SimplexElem("v", ("v",), ())], n=2)
        assert S.n == 2
        assert validate_stats(S).f == (1, 1, 0)
        for n in (0, 10**9, 10**30):
            with pytest.raises(PosetValidationError, match="ambient-rank"):
                from_face_lattice([SimplexElem("v", ("v",), ())], n=n)
