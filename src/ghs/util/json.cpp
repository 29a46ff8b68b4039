#include "ghs/util/json.hpp"

#include <cstdio>

namespace ghs {

void write_json_escaped(std::ostream& os, std::string_view text) {
  for (char c : text) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      case '\r':
        os << "\\r";
        break;
      case '\b':
        os << "\\b";
        break;
      case '\f':
        os << "\\f";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          // The remaining control characters have no short escape;
          // \u00XX keeps the byte instead of silently replacing it.
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          os << buf;
        } else {
          os << c;
        }
    }
  }
}

std::string fixed6(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", value);
  return buf;
}

}  // namespace ghs
