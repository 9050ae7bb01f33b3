#include "spans.h"

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

std::string format_double(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
      continue;
    }
    out += c;
  }
  return out + "\"";
}

}  // namespace

double mono_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

void JsonObject::num(const std::string& key, double v) {
  fields_.emplace_back(key, format_double(v));
}

void JsonObject::integer(const std::string& key, std::int64_t v) {
  fields_.emplace_back(key, std::to_string(v));
}

void JsonObject::boolean(const std::string& key, bool v) {
  fields_.emplace_back(key, v ? "true" : "false");
}

void JsonObject::str(const std::string& key, const std::string& v) {
  fields_.emplace_back(key, quote(v));
}

void JsonObject::nums(const std::string& key, const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) s += ",";
    s += format_double(v[i]);
  }
  fields_.emplace_back(key, s + "]");
}

void JsonObject::object(const std::string& key, const JsonObject& v) {
  fields_.emplace_back(key, v.dump());
}

std::string JsonObject::dump() const {
  std::string s = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i) s += ",";
    s += quote(fields_[i].first) + ":" + fields_[i].second;
  }
  return s + "}";
}

void JsonObject::print() const {
  std::printf("%s\n", dump().c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
