// Tracer, statistics and result helpers shared by every workload.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "bench.hpp"

namespace perfbench {
namespace {

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  out += '"';
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

}  // namespace

std::int32_t Tracer::open(const char* name) {
  SpanRecord record;
  record.name = name;
  record.parent = stack_.empty() ? -1 : stack_.back();
  record.op = op_;
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(record);
  stack_.push_back(index);
  spans_.back().start_ns = now_ns();
  return index;
}

void Tracer::close(std::int32_t index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

SelfTimes self_times(const std::vector<SpanRecord>& spans) {
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const SpanRecord& span : spans) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  SelfTimes out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    const std::int64_t self = span.end_ns - span.start_ns - child_ns[i];
    out[span.op][span.name] += static_cast<double>(self) / 1e6;
  }
  return out;
}

bool write_spans(const std::vector<SpanRecord>& spans, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "op,name,parent,start_ns,end_ns\n";
  for (const SpanRecord& span : spans) {
    out << span.op << ',' << span.name << ',' << span.parent << ',' << span.start_ns << ','
        << span.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

JsonObject& JsonObject::num(std::string_view key, double value) {
  char buf[40];
  if (!std::isfinite(value)) value = 0.0;
  std::snprintf(buf, sizeof buf, "%.17g", value);
  fields_.emplace_back(std::string(key), buf);
  return *this;
}

JsonObject& JsonObject::integer(std::string_view key, std::int64_t value) {
  fields_.emplace_back(std::string(key), std::to_string(value));
  return *this;
}

JsonObject& JsonObject::str(std::string_view key, std::string_view value) {
  fields_.emplace_back(std::string(key), json_escape(value));
  return *this;
}

JsonObject& JsonObject::boolean(std::string_view key, bool value) {
  fields_.emplace_back(std::string(key), value ? "true" : "false");
  return *this;
}

JsonObject& JsonObject::raw(std::string_view key, const std::string& json) {
  fields_.emplace_back(std::string(key), json);
  return *this;
}

std::string JsonObject::render() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_escape(fields_[i].first);
    out += ": ";
    out += fields_[i].second;
  }
  out += "}";
  return out;
}

bool Checks::expect(const std::string& name, bool ok, const std::string& detail) {
  Verdict& verdict = verdicts_[name];
  ++verdict.evaluated;
  if (!ok && verdict.failures++ == 0) verdict.detail = detail;
  return ok;
}

bool Checks::all_passed() const {
  return std::all_of(verdicts_.begin(), verdicts_.end(),
                     [](const auto& entry) { return entry.second.failures == 0; });
}

std::string Checks::render() const {
  JsonObject all;
  for (const auto& [name, verdict] : verdicts_) {
    JsonObject one;
    one.boolean("pass", verdict.failures == 0)
        .integer("evaluated", static_cast<std::int64_t>(verdict.evaluated))
        .integer("failures", static_cast<std::int64_t>(verdict.failures))
        .str("detail", verdict.detail);
    all.raw(name, one.render());
  }
  return all.render();
}

std::string hex_digest(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(hash));
  return buf;
}

}  // namespace perfbench
