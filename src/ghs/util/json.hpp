// JSON output helpers shared by every report, snapshot and trace writer.
//
// Each JSON file the repository writes must be valid and byte-stable
// across runs, so strings go through one escaper and doubles through one
// fixed-point shape.
#pragma once

#include <ostream>
#include <string>
#include <string_view>

namespace ghs {

/// Writes `text` as the body of a JSON string literal (no surrounding
/// quotes): `"` and `\` are backslash-escaped, control characters use their
/// short escape or \u00XX, and every other byte passes through unchanged.
void write_json_escaped(std::ostream& os, std::string_view text);

/// Renders `value` as "%.6f", the fixed-point shape of every double in the
/// repository's JSON output.
std::string fixed6(double value);

}  // namespace ghs
