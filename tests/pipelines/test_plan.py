"""Unit tests for query-plan rendering."""

import pytest

nx = pytest.importorskip("networkx")

from repro.pipelines import show_query_plan, source, to_networkx


class TestShowQueryPlan:
    def test_renders_all_operators(self, hiring_plan):
        text = show_query_plan(hiring_plan)
        assert "Source(train_df)" in text
        assert "Join(on='job_id'" in text
        assert "Encode(label='sentiment')" in text

    def test_indentation_reflects_depth(self):
        plan = source("a").filter(("x", 1))
        lines = show_query_plan(plan).splitlines()
        assert lines[0].startswith("[")          # root unindented
        assert lines[1].startswith("  [")        # child indented

    def test_shared_subtree_printed_once(self):
        shared = source("a").map_column("y", lambda r: 1)
        plan = shared.join(shared, on="y")
        text = show_query_plan(plan)
        assert text.count("Map(+y)") == 2  # second is the reference line
        assert "shared, see above" in text


class TestToNetworkx:
    def test_graph_is_dag(self, hiring_plan):
        graph = to_networkx(hiring_plan)
        assert nx.is_directed_acyclic_graph(graph)

    def test_edges_point_downstream(self):
        plan = source("a").filter(("x", 1))
        graph = to_networkx(plan)
        source_id = plan.inputs[0].id
        assert graph.has_edge(source_id, plan.id)

    def test_node_labels(self, hiring_plan):
        graph = to_networkx(hiring_plan)
        labels = {data["op"] for _, data in graph.nodes(data=True)}
        assert {"source", "join", "map", "drop", "encode"} <= labels
