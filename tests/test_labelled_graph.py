import pytest

from shiftmorita.core_order import cached_order
from shiftmorita.hull import covers_below, dclass_rep, make_idem
from shiftmorita.labelled_graph import build_graph, to_dot

from conftest import mx


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


class TestSharedGraph:
    def test_label_names_are_read_only(self, diamond_graph):
        lab = diamond_graph.labels[0]
        assert diamond_graph.label_names[lab] == "α"
        with pytest.raises(TypeError):
            diamond_graph.label_names[lab] = "β"


class TestDot:
    def test_deterministic(self, diamond):
        assert to_dot(build_graph(diamond)) == to_dot(build_graph(diamond))

    def test_diamond_topology(self, diamond_graph):
        dot = to_dot(diamond_graph)
        assert dot.count("->") == 8
        assert dot.startswith("digraph hull {")
        assert dot.count('";') == 4

    def test_single_loop(self):
        dot = to_dot(build_graph(mx("a\n1")))
        assert dot.count("->") == 1
        assert '"{a}" -> "{a}"' in dot

    def test_edgeless_graph_nodes_only(self, diamond):
        from shiftmorita.labelled_graph import LabelledGraph

        order = cached_order(diamond)
        bare = LabelledGraph(diamond, order, (), ())
        dot = to_dot(bare)
        assert dot.count("->") == 0
        assert dot.count('";') == 4
