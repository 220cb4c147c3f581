import re

import pytest
from hypothesis import given, settings

from shiftmorita.core_order import cached_order
from shiftmorita.hull import dclass_rep, make_idem
from shiftmorita.labelled_graph import LabelledGraph, build_graph, fmt_label, to_dot
from shiftmorita.oracle import Oracle
from shiftmorita.reference import covers_below
from shiftmorita.shift import allowed_words
from shiftmorita.sweeps import all_matrices

from conftest import mx, reference_build_graph, relabelled_matrices, seeded_matrices


def classes_by_name(diamond):
    return {
        "a": diamond.mask_of("ab"),
        "b": diamond.mask_of("bc"),
        "c": diamond.mask_of("abc"),
        "d": diamond.mask_of("b"),
    }


class TestDiamondGraph:
    def test_four_vertices(self, diamond, diamond_graph):
        assert set(diamond_graph.vertices) == set(classes_by_name(diamond).values())

    def test_three_labels(self, diamond, diamond_graph):
        k = classes_by_name(diamond)
        got = {(lab.vertex, lab.cover) for lab in diamond_graph.labels}
        assert got == {
            (k["a"], make_idem(diamond, (0,), diamond.mask_of("ab"))),
            (k["d"], make_idem(diamond, (1,), diamond.mask_of("bc"))),
            (k["b"], make_idem(diamond, (2,), diamond.mask_of("abc"))),
        }

    def test_eight_edges(self, diamond, diamond_graph):
        k = classes_by_name(diamond)
        got = {
            (e.source, e.range, e.label.vertex, e.label.cover.word)
            for e in diamond_graph.edges
        }
        want = {
            (k["a"], k["a"], k["a"], (0,)),
            (k["d"], k["a"], k["a"], (0,)),
            (k["b"], k["d"], k["d"], (1,)),
            (k["d"], k["d"], k["d"], (1,)),
            (k["a"], k["b"], k["b"], (2,)),
            (k["b"], k["b"], k["b"], (2,)),
            (k["c"], k["b"], k["b"], (2,)),
            (k["d"], k["b"], k["b"], (2,)),
        }
        assert got == want

    def test_vertex_with_no_in_edges(self, diamond, diamond_graph):
        # exactly the classes whose covers are all representatives of
        # classes below them
        k = classes_by_name(diamond)
        no_in = {v for v in diamond_graph.vertices} - {
            e.range for e in diamond_graph.edges
        }
        assert no_in == {k["c"]}


class TestSmallGraphs:
    def test_one_letter_full_shift(self):
        G = build_graph(mx("a\n1"))
        assert len(G.vertices) == 1
        assert len(G.labels) == 1
        assert len(G.edges) == 1
        e = G.edges[0]
        assert e.source == e.range

    def test_two_letter_full_shift(self):
        G = build_graph(mx("a b\n11\n11"))
        assert len(G.vertices) == 1
        assert len(G.labels) == 2
        assert len(G.edges) == 2
        assert all(e.source == e.range for e in G.edges)

    def test_representative_cover_with_incomparable_class_kept(self):
        # rows {a,b} and {b}: the cover e_{b} of e_{ab} survives the guard
        # because its class is not below {a,b} in the core order
        G = build_graph(mx("a b\n11\n01"))
        assert len(G.vertices) == 2
        flat_covers = [lab.cover for lab in G.labels if lab.cover.word == ()]
        assert flat_covers == [make_idem(G.matrix, (), 2)]


class TestBSet:
    def test_diamond_b_sets(self, diamond, diamond_graph):
        k = classes_by_name(diamond)
        assert set(diamond_graph.b_set(k["c"])) == set(diamond_graph.vertices)
        assert diamond_graph.b_set(k["d"]) == (k["d"],)
        assert set(diamond_graph.b_set(k["a"])) == {k["a"], k["d"]}

    def test_unknown_vertex(self, diamond, diamond_graph):
        with pytest.raises(ValueError):
            diamond_graph.b_set(diamond.mask_of("a"))


def independent_edges(T):
    """Re-enumerate the edge set straight from the definition, with the
    covers from the ``covers_below`` reference."""
    order = cached_order(T)
    out = set()
    for a in order.classes:
        for f in covers_below(T, a):
            is_rep = f.word == ()
            if is_rep and order.leq(dclass_rep(f), a):
                continue
            for b in order.classes:
                if order.leq(b, dclass_rep(f)):
                    out.add((a, (a, f.word, f.vec), b))
    return out


def graph_edges(G):
    """The edges of a graph in the form ``independent_edges`` gives."""
    return {
        (e.range, (e.label.vertex, e.label.cover.word, e.label.cover.vec), e.source)
        for e in G.edges
    }


class TestEdgeSetSoundness:
    @pytest.mark.parametrize(
        "text",
        ["a b c\n110\n011\n111", "a\n1", "a b\n11\n01", "a b c\n111\n110\n100"],
    )
    def test_matches_independent_enumeration(self, text):
        T = mx(text)
        assert graph_edges(build_graph(T)) == independent_edges(T)


class TestBuildOrder:
    def test_labels_and_edges_come_out_sorted(self):
        """``build_graph`` does not sort: the labels must come out in strictly
        increasing ``Label.key`` order, and the edges in strictly increasing
        (label key, source) order, as the witness maps rely on."""
        for T in list(all_matrices(3)) + seeded_matrices():
            G = build_graph(T)
            keys = [lab.key() for lab in G.labels]
            assert keys == sorted(set(keys)), T.rows
            edge_keys = [(e.label.key(), e.source) for e in G.edges]
            assert edge_keys == sorted(set(edge_keys)), T.rows


class TestBitsetLabelCovers:
    def test_matches_the_covers_and_filter_reference(self):
        """Labels and edges, in order, equal those of the reference on every
        matrix with at most 3 letters and the seeded 4-7-letter sample."""
        for T in list(all_matrices(3)) + seeded_matrices():
            G, (labels, edges) = build_graph(T), reference_build_graph(T)
            assert G.labels == labels, T.rows
            assert G.edges == edges, T.rows

    @settings(max_examples=150, deadline=None)
    @given(relabelled_matrices())
    def test_matches_the_references_past_three_letters(self, case):
        """On 4-6-letter matrices with at most 40 classes, the graph equals
        the covers-and-filter reference, labels and edges in order, and the
        oracle's word count equals the number of listed words."""
        T, _ = case
        G, (labels, edges) = build_graph(T), reference_build_graph(T)
        assert G.labels == labels and G.edges == edges
        for depth in range(1, 5):
            assert Oracle.word_count(T, depth) == len(allowed_words(T, depth))


class TestValueTypes:
    def test_hash_order_and_repr_are_those_of_plain_tuples(self, diamond_graph):
        e = diamond_graph.edges[0]
        lab, f = e.label, e.label.cover
        for x, fields in ((f, (f.word, f.vec)), (lab, (lab.vertex, f)),
                          (e, (e.range, lab, e.source))):
            assert x == fields and hash(x) == hash(fields)
        assert repr(f) == f"HullIdempotent(word={f.word!r}, vec={f.vec!r})"
        assert repr(lab) == f"Label(vertex={lab.vertex!r}, cover={f!r})"
        assert repr(e) == (
            f"Edge(range={e.range!r}, label={lab!r}, source={e.source!r})"
        )
        labels = list(diamond_graph.labels)
        assert sorted(labels, reverse=True) == sorted(
            labels, key=lambda x: (x.vertex, x.cover.word, x.cover.vec), reverse=True
        )
        assert lab.src_class == f.vec
        assert lab.key() == (lab.vertex, (len(f.word), f.word, f.vec))


class TestSharedGraph:
    def test_label_names_are_read_only(self, diamond_graph):
        lab = diamond_graph.labels[0]
        assert diamond_graph.label_names[lab] == "α"
        with pytest.raises(TypeError):
            diamond_graph.label_names[lab] = "β"


DIAMOND_DOT = """digraph hull {
  "{b}";
  "{a,b}";
  "{b,c}";
  "{a,b,c}";
  "{b}" -> "{b}" [label="α=({b},(b,{b,c}))"];
  "{b,c}" -> "{b}" [label="α=({b},(b,{b,c}))"];
  "{b}" -> "{a,b}" [label="β=({a,b},(a,{a,b}))"];
  "{a,b}" -> "{a,b}" [label="β=({a,b},(a,{a,b}))"];
  "{b}" -> "{b,c}" [label="γ=({b,c},(c,{a,b,c}))"];
  "{a,b}" -> "{b,c}" [label="γ=({b,c},(c,{a,b,c}))"];
  "{b,c}" -> "{b,c}" [label="γ=({b,c},(c,{a,b,c}))"];
  "{a,b,c}" -> "{b,c}" [label="γ=({b,c},(c,{a,b,c}))"];
}
"""


class TestDot:
    def test_deterministic(self, diamond):
        assert to_dot(build_graph(diamond)) == to_dot(build_graph(diamond))

    def test_diamond_topology(self, diamond_graph):
        dot = to_dot(diamond_graph)
        assert dot.count("->") == 8
        assert dot.startswith("digraph hull {")
        assert dot.count('";') == 4

    def test_diamond_text(self, diamond_graph):
        assert to_dot(diamond_graph) == DIAMOND_DOT

    def test_quotes_in_symbols_are_escaped(self):
        """Read back by DOT's rule (a backslash-quote is a quote, every
        other character is literal), each quoted string is the vertex name
        or the label text it was written from."""
        T = mx('a" b\\\n11\n01')
        G = build_graph(T)
        read = []
        for line in to_dot(G).splitlines()[1:-1]:
            quoted = re.findall(r'"((?:\\"|[^"])*)"', line)
            read.append([q.replace('\\"', '"') for q in quoted])
        names = G.vertex_name
        assert read[: len(G.vertices)] == [[names(v)] for v in G.vertices]
        assert read[len(G.vertices):] == [
            [
                names(e.source),
                names(e.range),
                f"{G.label_names[e.label]}={fmt_label(T, e.label)}",
            ]
            for e in G.edges
        ]
        assert any('"' in name for q in read for name in q)

    def test_single_loop(self):
        dot = to_dot(build_graph(mx("a\n1")))
        assert dot.count("->") == 1
        assert '"{a}" -> "{a}"' in dot

    def test_edgeless_graph_nodes_only(self, diamond):
        from shiftmorita.labelled_graph import LabelledGraph

        order = cached_order(diamond)
        bare = LabelledGraph(order, ())
        dot = to_dot(bare)
        assert dot.count("->") == 0
        assert dot.count('";') == 4
