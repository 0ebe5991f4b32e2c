#include "graph/io.hpp"

#include <charconv>
#include <cstdint>
#include <fstream>
#include <limits>
#include <string>
#include <system_error>

#include "graph/builder.hpp"
#include "util/assert.hpp"

namespace arbor::graph {

namespace {

/// Parse `line` as exactly `count` unsigned decimal fields separated by
/// blanks. A missing field, a sign, junk inside a field, a value past
/// uint64, or a trailing token all fail.
bool parse_fields(const std::string& line, std::uint64_t* out,
                  std::size_t count) {
  const auto blank = [](char c) { return c == ' ' || c == '\t' || c == '\r'; };
  const char* p = line.data();
  const char* const end = p + line.size();
  for (std::size_t i = 0; i < count; ++i) {
    while (p != end && blank(*p)) ++p;
    const auto [next, ec] = std::from_chars(p, end, out[i]);
    if (ec != std::errc() || next == p) return false;
    if (next != end && !blank(*next)) return false;
    p = next;
  }
  while (p != end && blank(*p)) ++p;
  return p == end;
}

std::string at_line(std::size_t line_no) {
  return "edge list line " + std::to_string(line_no) + ": ";
}

}  // namespace

Graph read_edge_list(std::istream& in) {
  constexpr std::uint64_t kMaxVertices =
      std::numeric_limits<VertexId>::max();
  std::string line;
  std::size_t line_no = 0;
  std::uint64_t n = 0, m = 0;
  bool header_seen = false;
  GraphBuilder builder(0);
  std::uint64_t edges_read = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    if (!header_seen) {
      std::uint64_t header[2] = {};
      ARBOR_CHECK_MSG(parse_fields(line, header, 2),
                      at_line(line_no) + "bad header line (want 'n m')");
      n = header[0];
      m = header[1];
      ARBOR_CHECK_MSG(n <= kMaxVertices,
                      at_line(line_no) + "n = " + std::to_string(n) +
                          " exceeds the vertex id range (max " +
                          std::to_string(kMaxVertices) + ")");
      header_seen = true;
      builder = GraphBuilder(static_cast<std::size_t>(n));
      continue;
    }
    std::uint64_t ends[2] = {};
    ARBOR_CHECK_MSG(parse_fields(line, ends, 2),
                    at_line(line_no) + "bad edge line (want 'u v')");
    for (const std::uint64_t id : ends)
      ARBOR_CHECK_MSG(id < n, at_line(line_no) + "vertex id " +
                                  std::to_string(id) +
                                  " out of range for n = " +
                                  std::to_string(n));
    ARBOR_CHECK_MSG(edges_read < m, at_line(line_no) +
                                        "more edge lines than the header's "
                                        "m = " + std::to_string(m));
    builder.add_edge(static_cast<VertexId>(ends[0]),
                     static_cast<VertexId>(ends[1]));
    ++edges_read;
  }
  ARBOR_CHECK_MSG(header_seen, at_line(line_no + 1) +
                                   "end of input before the header line");
  ARBOR_CHECK_MSG(edges_read == m,
                  at_line(line_no + 1) + "end of input after " +
                      std::to_string(edges_read) + " of the header's m = " +
                      std::to_string(m) + " edges");
  return builder.build();
}

Graph read_edge_list_file(const std::string& path) {
  std::ifstream in(path);
  ARBOR_CHECK_MSG(in.good(), "cannot open graph file: " + path);
  return read_edge_list(in);
}

void write_edge_list(std::ostream& out, const Graph& g) {
  out << g.num_vertices() << ' ' << g.num_edges() << '\n';
  for (const Edge& e : g.edges()) out << e.u << ' ' << e.v << '\n';
}

void write_edge_list_file(const std::string& path, const Graph& g) {
  std::ofstream out(path);
  ARBOR_CHECK_MSG(out.good(), "cannot open output file: " + path);
  write_edge_list(out, g);
}

}  // namespace arbor::graph
