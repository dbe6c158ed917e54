#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <utility>

#include "common/random.h"

namespace repobench {
namespace {

const int64_t kProcessStartNs = NowNs();

constexpr size_t kMaxNotes = 8;

}  // namespace

int64_t ProcessStartNs() { return kProcessStartNs; }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void BestOfRounds::Observe(size_t position, double value) {
  if (position >= best_.size()) {
    best_.resize(position + 1, std::numeric_limits<double>::infinity());
  }
  best_[position] = std::min(best_[position], value);
}

double BestOfRounds::Median() const { return repobench::Median(best_); }

double BestOfRounds::Sum() const {
  double sum = 0;
  for (double v : best_) sum += v;
  return sum;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Checker::Note(const std::string& what) {
  if (notes_.size() < kMaxNotes) notes_.push_back(what);
}

void Checker::Fail(const std::string& what) {
  ++failed_;
  Note("failed: " + what);
}

void Checker::Wrong(const std::string& what) {
  ++wrong_;
  Note("wrong: " + what);
}

void Checker::Merge(const Checker& other) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  wrong_ += other.wrong_;
  for (const std::string& note : other.notes_) Note(note);
}

std::vector<Object> ModelRange(const Model& model, Key lb, Key ub) {
  std::vector<Object> out;
  for (auto it = model.lower_bound(lb); it != model.end() && it->first <= ub;
       ++it) {
    out.push_back({it->first, it->second});
  }
  return out;
}

Bytes AlterImage(const Bytes& image) {
  Bytes altered = image;
  if (!altered.empty()) altered[altered.size() / 2] ^= 0x5a;
  return altered;
}

std::vector<gem2::core::QuerySpec> MakeRangeSpecs(const Model& model,
                                                  uint64_t count,
                                                  uint64_t seed) {
  std::vector<Key> keys;
  keys.reserve(model.size());
  for (const auto& entry : model) keys.push_back(entry.first);
  const uint64_t n = keys.size();
  const uint64_t sizes[3] = {std::max<uint64_t>(1, n / 10'000),
                             std::max<uint64_t>(1, n / 1'000),
                             std::max<uint64_t>(1, n / 100)};
  gem2::Rng rng(seed);
  std::vector<gem2::core::QuerySpec> specs;
  specs.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    const uint64_t size = std::min(sizes[i % 3], n);
    const uint64_t first = rng.Uniform(0, n - size);
    specs.push_back(
        gem2::core::QuerySpec::Range(keys[first], keys[first + size - 1]));
  }
  return specs;
}

// --- SpanTracer ----------------------------------------------------------------

uint32_t SpanTracer::Begin(const char* name, uint64_t trace_id,
                           const char* tag) {
  Span span;
  span.trace_id = trace_id;
  span.id = static_cast<uint32_t>(spans_.size() + 1);
  span.parent = open_.empty() ? 0 : open_.back();
  span.name = name;
  span.tag = tag;
  span.start_ns = NowNs();
  spans_.push_back(span);
  open_.push_back(span.id);
  return span.id;
}

void SpanTracer::End(uint32_t id) {
  spans_[id - 1].end_ns = NowNs();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void SpanTracer::Merge(const SpanTracer& other) {
  const uint32_t base = static_cast<uint32_t>(spans_.size());
  for (Span span : other.spans_) {
    span.id += base;
    if (span.parent != 0) span.parent += base;
    spans_.push_back(span);
  }
  self_cache_.clear();
}

std::vector<int64_t> SpanTracer::SelfTimes() const {
  if (self_cache_.size() == spans_.size()) return self_cache_;
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  for (const Span& span : spans_) {
    if (span.parent != 0) self[span.parent - 1] -= span.end_ns - span.start_ns;
  }
  self_cache_ = self;
  return self;
}

double SpanTracer::SelfP50Us(const std::string& name, const char* tag) const {
  const std::vector<int64_t> self = SelfTimes();
  std::vector<double> us;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name != name) continue;
    if (tag != nullptr && std::string(spans_[i].tag) != tag) continue;
    us.push_back(static_cast<double>(self[i]) * 1e-3);
  }
  return Median(std::move(us));
}

std::vector<std::string> SpanTracer::LayerTable() const {
  const std::vector<int64_t> self = SelfTimes();
  std::map<std::pair<std::string, std::string>,
           std::pair<std::vector<double>, std::vector<double>>>
      by_layer;
  for (size_t i = 0; i < spans_.size(); ++i) {
    auto& [self_us, total_us] = by_layer[{spans_[i].name, spans_[i].tag}];
    self_us.push_back(static_cast<double>(self[i]) * 1e-3);
    total_us.push_back(
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) * 1e-3);
  }
  std::vector<std::string> lines;
  char line[256];
  std::snprintf(line, sizeof(line), "%-24s %-6s %9s %14s %14s", "span", "tag",
                "count", "p50_self_us", "p50_total_us");
  lines.push_back(line);
  for (auto& [key, times] : by_layer) {
    std::snprintf(line, sizeof(line), "%-24s %-6s %9zu %14.3f %14.3f",
                  key.first.c_str(), key.second.c_str(), times.first.size(),
                  Median(times.first), Median(times.second));
    lines.push_back(line);
  }
  return lines;
}

bool SpanTracer::WriteCsv(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  const std::vector<int64_t> self = SelfTimes();
  out << "trace_id,span_id,parent_id,name,tag,start_ns,end_ns,self_ns\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << s.trace_id << ',' << s.id << ',' << s.parent << ',' << s.name << ','
        << s.tag << ',' << s.start_ns << ',' << s.end_ns << ',' << self[i]
        << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace repobench
