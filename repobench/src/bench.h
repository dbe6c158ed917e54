// Shared plumbing of the repository benchmark: arguments, statistics, the
// outcome every workload returns, the brute-force answer model, and the span
// tracer of the traced run.
//
// Every workload is a function template over a tracer type. The untraced run
// instantiates it with NullTracer, whose calls are empty inline functions, so
// the end-to-end numbers never execute tracing code; the traced run
// instantiates it with SpanTracer.
#ifndef REPOBENCH_BENCH_H_
#define REPOBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/types.h"
#include "core/query_spec.h"

namespace repobench {

using gem2::Bytes;
using gem2::Key;
using gem2::Object;
using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double SecondsBetween(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Where results, spans and the journal go (inside the checkout).
  std::string out_dir = ".bench_out";
  std::string commit = "unknown";
  /// Self-test of the answer checks: perturbs the model's answer to one
  /// query, which must make the run report correct=false and exit non-zero.
  bool wrong_answer = false;
};

/// Process start (static initialization of this binary); setup_s counts
/// from here.
int64_t ProcessStartNs();

/// Order statistic at rank q in [0, 1], linearly interpolated; 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Per-position minimum over rounds that repeat the same operations.
///
/// Timed metrics report the fastest of many repetitions of each operation.
/// The shared hosts this runs on slow a busy core by up to a third for
/// seconds at a time (other tenants' load), so a median over one run's wall
/// time measures the neighbours as much as the program; the fastest
/// repetition of an operation is the time it takes undisturbed, which is
/// what two versions of the program can be compared on.
class BestOfRounds {
 public:
  void Observe(size_t position, double value);
  /// Median over positions of each position's best value.
  double Median() const;
  /// Sum over positions of each position's best value.
  double Sum() const;
  size_t positions() const { return best_.size(); }

 private:
  std::vector<double> best_;
};

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// Counts answers against the model. A query or write that errors or is
/// rejected is a failed operation; an accepted answer that differs from the
/// model makes the run incorrect.
class Checker {
 public:
  void Attempt() { ++attempted_; }
  void Fail(const std::string& what);
  /// Records an accepted answer that is wrong (first few kept for the log).
  void Wrong(const std::string& what);
  void Expect(bool ok, const std::string& what) {
    if (!ok) Wrong(what);
  }
  void Merge(const Checker& other);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return wrong_ == 0; }
  const std::vector<std::string>& notes() const { return notes_; }

 private:
  void Note(const std::string& what);

  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t wrong_ = 0;
  std::vector<std::string> notes_;
};

/// What one workload run reports.
struct Outcome {
  Checker check;
  /// Metric name -> value. main.cpp holds the names and units: every
  /// end-to-end metric must be set; a per-layer metric a workload does not
  /// exercise reads 0.
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  /// Workload make-up for the fingerprint (sizes, threads, policies).
  std::map<std::string, std::string> settings;
  /// Traced run only: per-span-name self-time table, one line per layer.
  std::vector<std::string> layer_table;
};

// --- Brute-force model -------------------------------------------------------

using Model = std::map<Key, std::string>;

/// The model's answer to [lb, ub], in ascending key order.
std::vector<Object> ModelRange(const Model& model, Key lb, Key ub);

/// A copy of `image` with one byte altered mid-image. Verification must
/// reject it: the probe that shows verification is live.
Bytes AlterImage(const Bytes& image);

/// Range specs at the selectivity mix the range workloads share: equal
/// thirds answered by 0.01%, 0.1% and 1% of the model's keys (at least one).
/// Each range runs from a random key of the model to the key that many
/// ranks above it, so every answer's size is fixed by the mix rather than by
/// the seed.
std::vector<gem2::core::QuerySpec> MakeRangeSpecs(const Model& model,
                                                  uint64_t count,
                                                  uint64_t seed);

// --- Tracing -----------------------------------------------------------------

/// One timed call into a layer's public function. `trace_id` is shared by all
/// spans of one query (or write); `parent` is the enclosing span (0 = root).
struct Span {
  uint64_t trace_id = 0;
  uint32_t id = 0;
  uint32_t parent = 0;
  const char* name = "";
  const char* tag = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Records spans in memory. Not thread-safe: each thread uses its own
/// tracer, merged into the workload's tracer once the thread has joined.
class SpanTracer {
 public:
  static constexpr bool kEnabled = true;

  /// Opens a span whose parent is the innermost open span.
  uint32_t Begin(const char* name, uint64_t trace_id, const char* tag = "");
  void End(uint32_t id);

  /// Appends every span of `other`, re-numbering its ids.
  void Merge(const SpanTracer& other);

  /// Self time of each span in ns: its duration minus its children's.
  std::vector<int64_t> SelfTimes() const;

  /// p50 self time (us) of the spans named `name` (and tagged `tag` when
  /// non-null); 0 when there are none.
  double SelfP50Us(const std::string& name, const char* tag = nullptr) const;

  /// One line per (name, tag): count, p50 self time, p50 total time.
  std::vector<std::string> LayerTable() const;

  bool WriteCsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
  mutable std::vector<int64_t> self_cache_;
};

struct NullTracer {
  static constexpr bool kEnabled = false;
  uint32_t Begin(const char*, uint64_t, const char* = "") { return 0; }
  void End(uint32_t) {}
};

template <class Tracer>
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, uint64_t trace_id,
             const char* tag = "")
      : tracer_(tracer), id_(tracer.Begin(name, trace_id, tag)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  uint32_t id_;
};

// --- Workloads -----------------------------------------------------------------

template <class Tracer>
Outcome RunIngestRecover(const Args& args, Tracer& tracer);
template <class Tracer>
Outcome RunRangeVerify(const Args& args, Tracer& tracer);
template <class Tracer>
Outcome RunServedMixed(const Args& args, Tracer& tracer);
template <class Tracer>
Outcome RunBooleanMultiattr(const Args& args, Tracer& tracer);

}  // namespace repobench

#endif  // REPOBENCH_BENCH_H_
