from fractions import Fraction as F

import pytest

from deltacover import (
    Budget,
    Cover,
    Point,
    is_delta_cover,
    min_cover_exact,
    one_cover_min,
    tree_cover,
)
from deltacover.bench import build_instance
from deltacover.families import (
    gen_ds_reduction,
    gen_family,
    gen_star_subdivision,
    gen_triangles_center,
    gen_triangles_paths,
    gen_ugc_gadget,
)
from deltacover.graphs import _traversal
from conftest import cycle, k_n
from oracles import hops_from


def assert_known_values(inst, budget=Budget(max_seconds=10)):
    for kv in inst.known_values:
        result = min_cover_exact(inst.graph, kv.delta, budget)
        if kv.label == "optimal":
            if result.proven:
                assert len(result.cover) == kv.size, (inst.family, inst.params, str(kv.delta))
        else:
            assert len(result.cover) <= kv.size or not result.proven


def test_triangles_center_shape():
    inst = gen_triangles_center(3)
    g = inst.graph
    assert (g.n, g.m) == (10, 12)
    assert dict(inst.params) == {"k": 3}


def test_triangles_center_known_values():
    assert_known_values(gen_triangles_center(3))
    assert_known_values(gen_triangles_center(4))


def test_triangles_center_ratio_trend():
    # cover-at-1 over cover-at-5/4 grows toward 2; oracle confirms small k
    prev = F(0)
    for k in range(3, 10):
        inst = gen_triangles_center(k)
        values = {kv.delta: kv.size for kv in inst.known_values}
        ratio = F(values[F(1)], values[F(5, 4)])
        assert ratio == F(2 * k, k + 1)
        assert ratio > prev
        prev = ratio
        opt54 = min_cover_exact(inst.graph, F(5, 4), Budget(max_seconds=10))
        assert opt54.proven and len(opt54.cover) == k + 1
        if k <= 5:
            opt1 = min_cover_exact(inst.graph, F(1), Budget(max_seconds=10))
            assert opt1.proven and len(opt1.cover) == 2 * k


def test_triangles_paths_per_vertex_shape_and_values():
    inst = gen_triangles_paths(3, "per_vertex")
    assert (inst.graph.n, inst.graph.m) == (28, 36)
    values = {kv.delta: kv.size for kv in inst.known_values}
    assert values == {F(7, 6): 10, F(1): 15}
    opt1 = min_cover_exact(inst.graph, F(1), Budget(max_seconds=10))
    assert opt1.proven and len(opt1.cover) == 15


def test_triangles_paths_per_triangle_values():
    inst = gen_triangles_paths(3, "per_triangle")
    assert (inst.graph.n, inst.graph.m) == (16, 18)
    values = {kv.delta: kv.size for kv in inst.known_values}
    assert values == {F(9, 8): 7, F(1): 9}
    opt1 = min_cover_exact(inst.graph, F(1), Budget(max_seconds=10))
    assert opt1.proven and len(opt1.cover) == 9


def test_triangles_paths_path_len_one_is_center_family():
    a = gen_triangles_paths(4, "per_triangle", path_len=1)
    b = gen_triangles_center(4)
    assert a.graph == b.graph


def test_family_table_defaults_and_bench_ids():
    assert gen_family("triangles_paths", k=3).graph == gen_triangles_paths(3, "per_vertex").graph
    assert gen_family("ds_reduction", source=k_n(3)).graph == gen_ds_reduction(k_n(3), 2, "path")
    ugc = gen_family("ugc_gadget", source=k_n(3), variant="c")
    assert ugc.graph == gen_ugc_gadget(k_n(3), 1, "path_triangle")
    assert ugc.params == (("x", 1), ("variant", "c"))
    for family, params in (("triangles_center", {}), ("star_subdivision", {"k": 3}),
                           ("ugc_gadget", {"x": 1}), ("no_such_family", {"k": 3})):
        with pytest.raises(ValueError):
            gen_family(family, **params)
    iid, family, g = build_instance({"family": "star_subdivision", "x": "2", "k": "3"})
    assert (iid, family, g) == ("star_subdivision_2_3", "star_subdivision",
                                gen_star_subdivision(2, 3).graph)


def test_star_subdivision_counts_and_tree_values():
    inst = gen_star_subdivision(2, 2)
    g = inst.graph
    assert (g.n, g.m) == (7, 6)  # as built: 1 + k(x+1) vertices
    for k in (1, 2, 3):
        inst = gen_star_subdivision(2, k)
        res = tree_cover(inst.graph, F(3, 5))
        assert len(res.cover) == 1 + 2 * k
    inst = gen_star_subdivision(3, 3)
    upper = inst.known_values[0]
    assert upper.delta == F(4, 7) and upper.size == 10
    assert len(tree_cover(inst.graph, F(4, 7)).cover) <= 10


def test_star_subdivision_construction_covers():
    # the recorded upper bound is realized by an explicit placement
    for x, k in ((2, 2), (3, 2)):
        inst = gen_star_subdivision(x, k)
        delta = F(x + 1, 2 * x + 1)
        points = {Point.vertex(0)}
        for arm in range(k):
            verts = [0] + [1 + arm * (x + 1) + i for i in range(x + 1)]
            for i in range(1, x + 1):
                pos = 2 * delta * i
                seg = int(pos)
                frac = pos - seg
                if frac == 0:
                    points.add(Point.vertex(verts[seg]))
                else:
                    points.add(Point.on_edge(verts[seg], verts[seg + 1], frac))
        assert len(points) == 1 + k * x
        assert is_delta_cover(inst.graph, Cover.of(points, delta)).is_cover


def test_ds_reduction_variants():
    k3 = k_n(3)
    pend = gen_ds_reduction(k3, ell=2, variant="path")
    assert (pend.n, pend.m) == (6, 6)
    assert sorted(pend.degree(v) for v in range(6)) == [1, 1, 1, 3, 3, 3]

    tri = gen_ds_reduction(k3, ell=2, variant="path_triangle")
    assert (tri.n, tri.m) == (9, 12)  # a triangle glued straight onto each vertex

    wr = gen_ds_reduction(cycle(4), variant="wreath")
    assert (wr.n, wr.m) == (8, 20)


def test_ds_reduction_path_longer():
    g = gen_ds_reduction(cycle(4), ell=3, variant="path")
    assert (g.n, g.m) == (12, 12)
    leaves = [v for v in range(g.n) if g.degree(v) == 1]
    assert len(leaves) == 4
    assert all(max(filter(None, hops_from(g, u))) >= 2 for u in leaves)


def test_ugc_gadget_variants():
    k3 = k_n(3)
    a = gen_ugc_gadget(k3, x=1, variant="path")
    assert (a.n, a.m) == (6, 6)
    b = gen_ugc_gadget(k3, x=1, variant="path_apex")
    assert (b.n, b.m) == (7, 9)  # one shared apex joined to every path end
    c = gen_ugc_gadget(k3, x=1, variant="path_triangle")
    assert (c.n, c.m) == (12, 15)
    assert gen_ugc_gadget(k3, x=1, variant="a") == a
    assert gen_ugc_gadget(k3, x=3, variant="path").n == k3.n + 9


def test_generated_graphs_stay_connected():
    for g in (
        gen_triangles_center(5).graph,
        gen_triangles_paths(3, "per_vertex").graph,
        gen_triangles_paths(4, "per_triangle").graph,
        gen_star_subdivision(3, 4).graph,
        gen_ds_reduction(k_n(4), 3, "path"),
        gen_ds_reduction(k_n(3), 2, "path_triangle"),
        gen_ugc_gadget(cycle(5), 2, "path_apex"),
    ):
        assert len(_traversal(g).components) == 1


def test_generator_validation():
    with pytest.raises(ValueError):
        gen_triangles_center(2)
    with pytest.raises(ValueError):
        gen_star_subdivision(1, 3)
    with pytest.raises(ValueError):
        gen_ugc_gadget(k_n(3), 0, "path")
    with pytest.raises(ValueError):
        gen_ds_reduction(k_n(3), 2, "nope")
