// Unit tests for the graph substrate: builder invariants, CSR accessors,
// induced subgraphs, edge-list I/O (including a seeded parser fuzz).
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "graph/builder.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

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

// `pick` must be rejected with an InvariantError quoting `fragment`.
void expect_induced_rejected(const Graph& g, const std::vector<VertexId>& pick,
                             const std::string& fragment) {
  try {
    g.induced(pick);
    FAIL() << "accepted a selection of " << pick.size() << " ids";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
        << e.what();
  }
}

TEST(Graph, InducedRejectsOutOfRange) {
  const Graph g = from_edges(3, std::vector<Edge>{{0, 1}, {1, 2}});
  expect_induced_rejected(g, {0, 3}, "induced(): vertex id out of range");
  expect_induced_rejected(g, {1, ~VertexId{0}},
                          "induced(): vertex id out of range");
}

TEST(Graph, InducedFollowsSelectionOrder) {
  GraphBuilder b(6);
  b.add_edge(0, 2);
  b.add_edge(0, 4);
  b.add_edge(0, 5);
  b.add_edge(2, 4);
  b.add_edge(4, 5);
  b.add_edge(1, 2);  // leaves the selection
  b.add_edge(3, 5);  // leaves the selection
  const Graph g = b.build();

  const std::vector<VertexId> pick{4, 0, 2, 5};
  const auto sub = g.induced(pick);
  EXPECT_EQ(sub.to_original, pick);
  ASSERT_EQ(sub.graph.num_vertices(), 4u);
  // New ids: 4->0, 0->1, 2->2, 5->3.
  const std::vector<std::vector<VertexId>> want_neighbors{
      {1, 2, 3}, {0, 2, 3}, {0, 1}, {0, 1}};
  for (VertexId v = 0; v < 4; ++v) {
    const auto ns = sub.graph.neighbors(v);
    EXPECT_EQ(std::vector<VertexId>(ns.begin(), ns.end()), want_neighbors[v])
        << "new id " << v;
  }
  const auto edges = sub.graph.edges();
  const std::vector<Edge> want_edges{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}};
  EXPECT_EQ(std::vector<Edge>(edges.begin(), edges.end()), want_edges);

  expect_induced_rejected(g, {2, 0, 2},
                          "induced(): duplicate vertex in selection");
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

// ------------------------------------------------------ edge-list fuzz

// One mutant's contract: it parses to a graph consistent with its own
// header — n vertices, every id < n, exactly m edge lines (the builder
// merges duplicates and drops self-loops, so num_edges() ≤ m) — or it
// throws an InvariantError whose message names the line. Any other
// exception escapes and fails the test.
void expect_parsed_or_named(const std::string& text) {
  std::stringstream ss(text);
  Graph g;
  try {
    g = read_edge_list(ss);
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find(" — edge list line "),
              std::string::npos)
        << e.what() << "\ninput:\n" << text;
    return;
  }
  // Accepted: the first data line is the header, every later one an edge.
  std::istringstream lines(text);
  std::string line;
  std::uint64_t n = 0, m = 0, edge_lines = 0;
  bool header_seen = false;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (header_seen) {
      ++edge_lines;
    } else {
      std::istringstream(line) >> n >> m;
      header_seen = true;
    }
  }
  EXPECT_EQ(g.num_vertices(), n) << text;
  EXPECT_EQ(edge_lines, m) << text;
  EXPECT_LE(g.num_edges(), m) << text;
  for (const Edge& e : g.edges()) {
    EXPECT_LT(e.u, n) << text;
    EXPECT_LT(e.v, n) << text;
  }
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) out.push_back(line);
  return out;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

// Seeded mutation fuzz of a valid edge list, modelled on the net wire
// fuzz: every truncation prefix, byte flips, inserted digit runs and
// signs, duplicated and dropped lines. Inserted digit runs are either
// short (1–3 digits: a mutated n stays small enough to build) or 20
// nonzero digits (≥ 10^19, past every VertexId wherever they land).
TEST(GraphIo, FuzzedEdgeListsParseOrNameTheLine) {
  util::SplitRng rng(2024);
  GraphBuilder b(12);
  for (int i = 0; i < 15; ++i)
    b.add_edge(static_cast<VertexId>(rng.next_below(12)),
               static_cast<VertexId>(rng.next_below(12)));
  const Graph g = b.build();
  std::stringstream written;
  write_edge_list(written, g);
  // Comments, tabs and a CRLF line ride along so mutations hit them too.
  std::vector<std::string> base_lines = split_lines(written.str());
  base_lines.insert(base_lines.begin(), "# seeded fuzz base");
  base_lines.insert(base_lines.begin() + 3, "# mid-list comment");
  base_lines[2] = "\t" + base_lines[2] + "\r";
  const std::string base = join_lines(base_lines);
  expect_parsed_or_named(base);
  {
    std::stringstream ss(base);
    EXPECT_EQ(read_edge_list(ss).num_edges(), g.num_edges());
  }

  for (std::size_t cut = 0; cut < base.size(); ++cut)
    expect_parsed_or_named(base.substr(0, cut));

  const std::string alphabet = "0123456789 \t\r\n#-+x";
  for (int i = 0; i < 400; ++i) {
    std::string text = base;
    const std::size_t pos = rng.next_below(text.size());
    text[pos] = i % 4 == 0 ? static_cast<char>(rng.next_below(256))
                           : alphabet[rng.next_below(alphabet.size())];
    expect_parsed_or_named(text);
  }

  for (int i = 0; i < 300; ++i) {
    std::string run;
    if (i % 3 == 0) {
      run.push_back(i % 2 == 0 ? '-' : '+');
    } else if (i % 3 == 1) {
      for (std::size_t d = 0, len = 1 + rng.next_below(3); d < len; ++d)
        run += static_cast<char>('0' + rng.next_below(10));
    } else {
      for (int d = 0; d < 20; ++d)
        run += static_cast<char>('1' + rng.next_below(9));
    }
    std::string text = base;
    text.insert(rng.next_below(text.size() + 1), run);
    expect_parsed_or_named(text);
  }

  for (std::size_t i = 0; i < base_lines.size(); ++i) {
    std::vector<std::string> dup = base_lines;
    dup.insert(dup.begin() + static_cast<std::ptrdiff_t>(i), base_lines[i]);
    expect_parsed_or_named(join_lines(dup));
    std::vector<std::string> drop = base_lines;
    drop.erase(drop.begin() + static_cast<std::ptrdiff_t>(i));
    expect_parsed_or_named(join_lines(drop));
  }
}

}  // namespace
}  // namespace arbor::graph
