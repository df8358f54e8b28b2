// Minimal JSON object writer for the child's one-line results.
#pragma once

#include <cmath>
#include <string>
#include <string_view>
#include <vector>

#include "support/json.h"

namespace perfbench {

class JsonObject {
 public:
  JsonObject& num(std::string_view key, double value) {
    // Non-finite values (an empty ratio) are written as 0, never as null.
    return raw(key, adaptbf::json_num_exact(std::isfinite(value) ? value : 0.0));
  }
  JsonObject& boolean(std::string_view key, bool value) {
    return raw(key, value ? "true" : "false");
  }
  JsonObject& str(std::string_view key, std::string_view value) {
    return raw(key, adaptbf::json_quote(value));
  }
  JsonObject& nums(std::string_view key, const std::vector<double>& values) {
    std::string list = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) list += ',';
      list += adaptbf::json_num_exact(values[i]);
    }
    return raw(key, list + "]");
  }
  JsonObject& raw(std::string_view key, std::string_view json) {
    body_ += body_.empty() ? "{" : ",";
    body_ += adaptbf::json_quote(key);
    body_ += ':';
    body_ += json;
    return *this;
  }
  [[nodiscard]] std::string text() const { return body_.empty() ? "{}" : body_ + "}"; }

 private:
  std::string body_;
};

}  // namespace perfbench
