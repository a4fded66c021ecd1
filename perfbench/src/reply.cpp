#include <cstdio>
#include <sstream>

#include "engine/json.h"
#include "harness.h"

namespace perfbench {

namespace {

namespace json = covest::engine::json;

bool timing_key(const std::string& key) {
  return key == "stats" || key == "check_ms" || key == "estimate_ms";
}

void render(std::ostream& os, const json::Value& v) {
  switch (v.type) {
    case json::Value::Type::kNull: os << "null"; break;
    case json::Value::Type::kBool: os << (v.boolean ? "true" : "false"); break;
    case json::Value::Type::kNumber: {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.17g", v.number);
      os << buf;
      break;
    }
    case json::Value::Type::kString: json::write_escaped(os, v.string); break;
    case json::Value::Type::kArray: {
      os << '[';
      for (std::size_t i = 0; i < v.array.size(); ++i) {
        if (i > 0) os << ',';
        render(os, v.array[i]);
      }
      os << ']';
      break;
    }
    case json::Value::Type::kObject: {
      os << '{';
      bool first = true;
      for (const auto& [key, member] : v.object) {
        if (timing_key(key)) continue;
        if (!first) os << ',';
        first = false;
        json::write_escaped(os, key);
        os << ':';
        render(os, member);
      }
      os << '}';
      break;
    }
  }
}

}  // namespace

std::string normalize_reply(const std::string& json_line) {
  std::ostringstream os;
  render(os, json::parse(json_line));
  return os.str();
}

}  // namespace perfbench
