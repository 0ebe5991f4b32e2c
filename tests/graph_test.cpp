// Unit tests for the graph substrate: builder invariants, CSR accessors,
// induced subgraphs, edge-list I/O.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "graph/builder.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "util/assert.hpp"

namespace arbor::graph {
namespace {

TEST(GraphBuilder, DeduplicatesAndDropsSelfLoops) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 0);  // duplicate, reversed
  b.add_edge(2, 2);  // self loop
  b.add_edge(2, 3);
  const Graph g = b.build();
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(3, 2));
  EXPECT_FALSE(g.has_edge(2, 2));
}

TEST(GraphBuilder, RejectsOutOfRangeEndpoint) {
  GraphBuilder b(3);
  EXPECT_THROW(b.add_edge(0, 3), InvariantError);
}

TEST(GraphBuilder, BuildIsRepeatable) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  const Graph g1 = b.build();
  const Graph g2 = b.build();
  EXPECT_EQ(g1.num_edges(), g2.num_edges());
}

TEST(GraphBuilder, BuildAndClearEmptiesPending) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  (void)b.build_and_clear();
  EXPECT_EQ(b.num_pending_edges(), 0u);
  EXPECT_EQ(b.build().num_edges(), 0u);
}

TEST(Graph, EmptyGraph) {
  const Graph g = GraphBuilder(0).build();
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.average_degree(), 0.0);
  EXPECT_EQ(g.max_degree(), 0u);
}

TEST(Graph, DegreesAndNeighborsSorted) {
  GraphBuilder b(5);
  b.add_edge(0, 3);
  b.add_edge(0, 1);
  b.add_edge(0, 4);
  b.add_edge(1, 2);
  const Graph g = b.build();
  EXPECT_EQ(g.degree(0), 3u);
  EXPECT_EQ(g.degree(2), 1u);
  const auto ns = g.neighbors(0);
  ASSERT_EQ(ns.size(), 3u);
  EXPECT_TRUE(std::is_sorted(ns.begin(), ns.end()));
  EXPECT_EQ(g.max_degree(), 3u);
  EXPECT_DOUBLE_EQ(g.average_degree(), 2.0 * 4 / 5);
}

TEST(Graph, EdgesCanonicalAndSorted) {
  GraphBuilder b(4);
  b.add_edge(3, 1);
  b.add_edge(2, 0);
  const Graph g = b.build();
  const auto edges = g.edges();
  ASSERT_EQ(edges.size(), 2u);
  for (const Edge& e : edges) EXPECT_LT(e.u, e.v);
  EXPECT_TRUE(std::is_sorted(edges.begin(), edges.end()));
}

TEST(Graph, HasEdgeOutOfRangeIsFalse) {
  const Graph g = from_edges(2, std::vector<Edge>{{0, 1}});
  EXPECT_FALSE(g.has_edge(0, 5));
  EXPECT_FALSE(g.has_edge(7, 9));
}

TEST(Graph, InducedSubgraphKeepsInternalEdges) {
  GraphBuilder b(6);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  b.add_edge(3, 4);
  b.add_edge(4, 5);
  b.add_edge(0, 5);
  const Graph g = b.build();

  const std::vector<VertexId> pick{1, 2, 3};
  const auto sub = g.induced(pick);
  EXPECT_EQ(sub.graph.num_vertices(), 3u);
  EXPECT_EQ(sub.graph.num_edges(), 2u);  // 1-2 and 2-3
  EXPECT_EQ(sub.to_original, pick);
  // New ids follow selection order: 0->1, 1->2, 2->3.
  EXPECT_TRUE(sub.graph.has_edge(0, 1));
  EXPECT_TRUE(sub.graph.has_edge(1, 2));
  EXPECT_FALSE(sub.graph.has_edge(0, 2));
}

TEST(Graph, InducedRejectsDuplicates) {
  const Graph g = from_edges(3, std::vector<Edge>{{0, 1}});
  const std::vector<VertexId> pick{1, 1};
  EXPECT_THROW(g.induced(pick), InvariantError);
}

TEST(Graph, InducedEmptySelection) {
  const Graph g = from_edges(3, std::vector<Edge>{{0, 1}});
  const auto sub = g.induced(std::vector<VertexId>{});
  EXPECT_EQ(sub.graph.num_vertices(), 0u);
  EXPECT_EQ(sub.graph.num_edges(), 0u);
}

TEST(GraphIo, RoundTrip) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(0, 3);
  const Graph g = b.build();

  std::stringstream ss;
  write_edge_list(ss, g);
  const Graph back = read_edge_list(ss);
  EXPECT_EQ(back.num_vertices(), g.num_vertices());
  EXPECT_EQ(back.num_edges(), g.num_edges());
  for (const Edge& e : g.edges()) EXPECT_TRUE(back.has_edge(e.u, e.v));
}

TEST(GraphIo, SkipsComments) {
  std::stringstream ss("# a comment\n3 1\n# another\n0 2\n");
  const Graph g = read_edge_list(ss);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_TRUE(g.has_edge(0, 2));
}

// `input` must be rejected with an error quoting `fragment` (which names
// the offending line).
void expect_rejected(const std::string& input, const std::string& fragment) {
  std::stringstream ss(input);
  try {
    read_edge_list(ss);
    FAIL() << "accepted: " << input;
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
        << e.what();
  }
}

TEST(GraphIo, RejectsBadHeader) {
  expect_rejected("nonsense\n", "line 1: bad header line");
  expect_rejected("# comment\n3\n", "line 2: bad header line");
  expect_rejected("3 1 7\n0 1\n", "line 1: bad header line");
  expect_rejected("-3 1\n", "line 1: bad header line");
  // An n past the 32-bit VertexId range used to reach the allocator.
  expect_rejected("4294967298 0\n", "line 1: n = 4294967298 exceeds");
  expect_rejected("", "line 1: end of input before the header line");
}

TEST(GraphIo, RejectsCountMismatch) {
  expect_rejected("3 2\n0 1\n", "line 3: end of input after 1 of");
  expect_rejected("3 1\n0 1\n1 2\n", "line 3: more edge lines than");
}

TEST(GraphIo, RejectsHostileEdgeLines) {
  // 4294967297 used to wrap to vertex 1 before the range check.
  expect_rejected("3 1\n4294967297 2\n",
                  "line 2: vertex id 4294967297 out of range for n = 3");
  expect_rejected("3 1\n0 3\n", "line 2: vertex id 3 out of range");
  expect_rejected("3 1\n0 2 junk\n", "line 2: bad edge line");
  expect_rejected("3 1\n0 2x\n", "line 2: bad edge line");
  expect_rejected("3 1\n0\n", "line 2: bad edge line");
  expect_rejected("3 1\n# c\n-1 2\n", "line 3: bad edge line");
  expect_rejected("3 1\n0 99999999999999999999\n", "line 2: bad edge line");
}

TEST(GraphIo, AcceptsBlanksAndCrLf) {
  std::stringstream ss("3 2\r\n\t0  1 \r\n2 1\n");
  const Graph g = read_edge_list(ss);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
}

}  // namespace
}  // namespace arbor::graph
