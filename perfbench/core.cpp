// Gate, metric sink, span recorder, report and statistics helpers.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <thread>

#include "bench.hpp"

namespace perfbench {

void Gate::attempt(std::uint64_t n) {
  const std::lock_guard lock(mutex_);
  attempted_ += n;
}

bool Gate::check(bool ok, const std::string& what) {
  if (ok) return true;
  const std::lock_guard lock(mutex_);
  if (++failed_ <= 20) std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  return false;
}

std::uint64_t Gate::attempted() const {
  const std::lock_guard lock(mutex_);
  return attempted_;
}

std::uint64_t Gate::failed() const {
  const std::lock_guard lock(mutex_);
  return failed_;
}

void Metrics::set(const std::string& name, double value, const std::string& unit) {
  values_[name] = {std::isfinite(value) ? value : 0.0, unit};
}

namespace {
thread_local std::vector<long> t_open_spans;  // indices of this thread's open recorded spans
}

Tracer::Span::Span(Tracer& tracer, std::string name, std::uint64_t request)
    : tracer_(tracer), start_(now_seconds()) {
  if (!tracer_.enabled_) return;
  const long parent = t_open_spans.empty() ? -1 : t_open_spans.back();
  const std::lock_guard lock(tracer_.mutex_);
  index_ = static_cast<long>(tracer_.records_.size());
  tracer_.records_.push_back({std::move(name), start_ - tracer_.origin_, 0.0, parent, request,
                              std::hash<std::thread::id>{}(std::this_thread::get_id())});
  t_open_spans.push_back(index_);
}

Tracer::Span::~Span() {
  if (index_ < 0) return;
  const double end = now_seconds();
  t_open_spans.pop_back();
  const std::lock_guard lock(tracer_.mutex_);
  tracer_.records_[static_cast<std::size_t>(index_)].end = end - tracer_.origin_;
}

std::size_t Tracer::size() const {
  const std::lock_guard lock(mutex_);
  return records_.size();
}

void Tracer::write(const std::filesystem::path& path) const {
  const std::lock_guard lock(mutex_);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path.string());
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "\"ph\": \"X\", \"pid\": 1, \"tid\": %llu, \"ts\": %.3f, \"dur\": %.3f",
                  static_cast<unsigned long long>(r.thread % 1000000), r.start * 1e6,
                  (r.end - r.start) * 1e6);
    out << (i > 0 ? ",\n" : "") << "{\"name\": " << json_string(r.name) << ", " << buf
        << ", \"args\": {\"id\": " << i << ", \"parent\": " << r.parent
        << ", \"request\": " << r.request << "}}";
  }
  out << "\n]}\n";
}

void Report::add(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, json_string(value));
}

void Report::add_number(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(value) ? value : 0.0);
  fields_.emplace_back(key, buf);
}

void Report::add_raw(const std::string& key, const std::string& json) {
  fields_.emplace_back(key, json);
}

std::string Report::json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    out += (i > 0 ? ", " : "") + json_string(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

void Digest::add(std::string_view text) {
  for (const char c : text) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 1099511628211ULL;
  }
  h_ ^= 0xFF;  // record separator
  h_ *= 1099511628211ULL;
}

std::string Digest::hex() const {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

std::uint64_t next_request_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1);
}

std::uint64_t derive_seed(std::uint64_t run_seed, std::string_view name) {
  std::uint64_t h = 1469598103934665603ULL ^ (run_seed * 0x9E3779B97F4A7C15ULL);
  for (const char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  h ^= h >> 29;
  return h * 0xBF58476D1CE4E5B9ULL;
}

}  // namespace perfbench
