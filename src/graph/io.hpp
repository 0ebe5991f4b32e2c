// Plain-text edge-list I/O, used by the examples so users can bring their
// own graphs. Format: first line "n m", then one "u v" pair per line,
// 0-indexed. Lines starting with '#' are comments. The reader is strict:
// n must fit the VertexId range, every id must be < n, a line carries
// exactly its fields, and the edge lines must number exactly m; any
// violation throws InvariantError naming the 1-based line.
#pragma once

#include <iosfwd>
#include <string>

#include "graph/graph.hpp"

namespace arbor::graph {

Graph read_edge_list(std::istream& in);
Graph read_edge_list_file(const std::string& path);

void write_edge_list(std::ostream& out, const Graph& g);
void write_edge_list_file(const std::string& path, const Graph& g);

}  // namespace arbor::graph
