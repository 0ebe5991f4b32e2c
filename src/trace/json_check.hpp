// Minimal JSON syntax checker and parser for emitted trace and report files.
//
// One grammar walk (objects, arrays, strings with escapes, numbers,
// true/false/null) serves both entry points and reports the first defect
// with its byte offset. check_json runs it with tree building switched off,
// enough to assert "the trace writer emitted well-formed JSON a viewer will
// load" in tests and in tools/trace_validate.cpp; parse_json also builds
// the tree tools/arbor_report diffs. append_json_string is the one string
// escaper every JSON writer in the tree (trace, reports, benches) uses. No
// JSON library enters the build.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace arbor::trace {

struct JsonCheckResult {
  bool ok = false;
  std::size_t offset = 0;  ///< byte offset of the defect when !ok
  std::string error;       ///< empty when ok
};

/// Validate that `text` is exactly one JSON value (plus whitespace).
JsonCheckResult check_json(std::string_view text);

/// Parsed JSON value — the DOM behind tools/arbor_report's structural
/// diff. Object members keep document order (the writers emit
/// deterministic documents, so order is meaningful in a diff).
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  /// First member named `key`, or nullptr (objects only).
  const JsonValue* find(std::string_view key) const;
};

struct JsonParseResult {
  bool ok = false;
  std::size_t offset = 0;  ///< byte offset of the defect when !ok
  std::string error;       ///< empty when ok
  JsonValue value;
};

/// Parse exactly one JSON value (plus whitespace) into a JsonValue tree.
/// The same walk as check_json, so it returns the same {ok, offset, error}.
JsonParseResult parse_json(std::string_view text);

/// Append `s` to `out` as a JSON string literal: `"`, `\` and every byte
/// below 0x20 escaped, every other byte (UTF-8 included) copied verbatim.
void append_json_string(std::string& out, std::string_view s);

}  // namespace arbor::trace
