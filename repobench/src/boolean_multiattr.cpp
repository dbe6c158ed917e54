// boolean_multiattr: a MultiAttrDb of 3-attribute records answering AND and
// OR two-predicate specs, the plain range spec of each conjunct, and COUNT
// and SUM aggregates, in-process. Without it multiattr/, spec composition
// and the aggregate protocol go unmeasured.
//
// Each group of six specs shares two predicates over distinct attributes, so
// the verified answers can be checked against each other as well as against
// the record table: AND within each conjunct within OR, and COUNT equal to
// the size of the conjunct's verified range answer.
#include <algorithm>
#include <optional>

#include "bench.h"
#include "calls.h"
#include "common/random.h"
#include "multiattr/multiattr_db.h"

namespace repobench {
namespace {

using gem2::core::AggregateKind;
using gem2::core::BoolOp;
using gem2::core::Predicate;
using gem2::core::QuerySpec;
using gem2::multiattr::MultiAttrRecord;

constexpr uint64_t kRecords = 20'000;
constexpr uint32_t kAttrs = 3;
constexpr Key kAttrMax = 1'000'000;  // attribute values in [0, kAttrMax)
constexpr Key kWidth = kAttrMax / 20;  // each predicate spans 5%
constexpr uint64_t kGroupsPerRound = 8;

enum Kind { kAnd, kOr, kRange0, kRange1, kCount, kSum, kKinds };
const char* const kKindTag[kKinds] = {"and",   "or",    "range",
                                      "range", "count", "sum"};

struct Group {
  QuerySpec specs[kKinds];
  std::vector<Object> expected[kKinds];  // boolean and range answers
  uint64_t expected_count = 0;
  long long expected_sum = 0;
};

std::vector<Object> Matching(const std::vector<MultiAttrRecord>& records,
                             const std::vector<Predicate>& preds, BoolOp op) {
  std::vector<Object> out;
  for (const MultiAttrRecord& r : records) {
    bool any = false, all = true;
    for (const Predicate& p : preds) {
      const bool in = r.attrs[p.attr] >= p.lb && r.attrs[p.attr] <= p.ub;
      any = any || in;
      all = all && in;
    }
    if (op == BoolOp::kAnd ? all : any) {
      out.push_back({r.id, gem2::multiattr::EncodeRecord(r)});
    }
  }
  return out;  // records are in ascending id order
}

bool Subset(const std::vector<Object>& a, const std::vector<Object>& b) {
  return std::includes(b.begin(), b.end(), a.begin(), a.end(),
                       [](const Object& x, const Object& y) {
                         return x.key < y.key;
                       });
}

}  // namespace

template <class Tracer>
Outcome RunBooleanMultiattr(const Args& args, Tracer& tracer) {
  Outcome out;
  Checker& check = out.check;
  out.settings["records"] = std::to_string(kRecords);
  out.settings["attributes"] = std::to_string(kAttrs);
  out.settings["attribute_values"] = "uniform in [0, 1e6)";
  out.settings["predicate_width"] = "5% of the attribute domain";
  out.settings["specs_per_round"] =
      std::to_string(kGroupsPerRound * kKinds) +
      " (AND, OR, two ranges, COUNT, SUM per group)";
  out.settings["threads"] = "1 (caller only)";

  // --- Set-up: the owner inserts every record (one transaction per
  // attribute index).
  gem2::multiattr::MultiAttrOptions options;
  options.base = PaperDbOptions();
  options.num_attrs = kAttrs;
  gem2::multiattr::MultiAttrDb db(options);
  gem2::Rng rng(args.seed);
  std::vector<MultiAttrRecord> records;
  records.reserve(kRecords);
  for (uint64_t i = 0; i < kRecords; ++i) {
    MultiAttrRecord r;
    r.id = static_cast<int64_t>(i);
    for (uint32_t k = 0; k < kAttrs; ++k) {
      r.attrs.push_back(rng.UniformInt(0, kAttrMax - 1));
    }
    r.value = "record-" + std::to_string(rng.Uniform(0, UINT32_MAX));
    records.push_back(std::move(r));
  }
  uint64_t trace_id = 0;
  const uint64_t gas_before = db.environment().total_gas_used();
  for (const MultiAttrRecord& r : records) {
    ScopedSpan<Tracer> span(tracer, "owner.write", ++trace_id);
    const gem2::chain::TxReceipt receipt = db.InsertRecord(r);
    if (!receipt.ok) throw std::runtime_error("load failed: " + receipt.error);
  }
  const uint64_t load_gas = db.environment().total_gas_used() - gas_before;

  std::vector<Group> groups(kGroupsPerRound);
  for (Group& g : groups) {
    const uint32_t a = static_cast<uint32_t>(rng.Uniform(0, kAttrs - 1));
    const uint32_t b = (a + 1 + static_cast<uint32_t>(rng.Uniform(0, 1))) % kAttrs;
    Predicate p0, p1;
    p0.attr = a;
    p0.lb = rng.UniformInt(0, kAttrMax - kWidth);
    p0.ub = p0.lb + kWidth;
    p1.attr = b;
    p1.lb = rng.UniformInt(0, kAttrMax - kWidth);
    p1.ub = p1.lb + kWidth;
    g.specs[kAnd] = QuerySpec{BoolOp::kAnd, {p0, p1}, AggregateKind::kNone};
    g.specs[kOr] = QuerySpec{BoolOp::kOr, {p0, p1}, AggregateKind::kNone};
    g.specs[kRange0] = QuerySpec::Range(p0.lb, p0.ub, p0.attr);
    g.specs[kRange1] = QuerySpec::Range(p1.lb, p1.ub, p1.attr);
    g.specs[kCount] = QuerySpec{BoolOp::kAnd, {p0}, AggregateKind::kCount};
    g.specs[kSum] = QuerySpec{BoolOp::kAnd, {p1}, AggregateKind::kSum};
    g.expected[kAnd] = Matching(records, {p0, p1}, BoolOp::kAnd);
    g.expected[kOr] = Matching(records, {p0, p1}, BoolOp::kOr);
    g.expected[kRange0] = Matching(records, {p0}, BoolOp::kAnd);
    g.expected[kRange1] = Matching(records, {p1}, BoolOp::kAnd);
    g.expected_count = g.expected[kRange0].size();
    for (const Object& o : g.expected[kRange1]) {
      g.expected_sum += records[static_cast<size_t>(o.key)].attrs[b];
    }
  }
  if (args.wrong_answer) ++groups[0].expected_count;

  BestOfRounds query_us, round_s;
  uint64_t bytes = 0, agg_bytes = 0, aggs = 0, vo_bytes = 0, results = 0,
           perms = 0, answered = 0;
  auto round = [&](auto& round_tracer, bool timed) {
    int64_t busy_ns = 0;
    for (size_t gi = 0; gi < groups.size(); ++gi) {
      const Group& g = groups[gi];
      std::optional<gem2::core::VerifiedSpecResult> got[kKinds];
      for (int k = 0; k < kKinds; ++k) {
        const std::string what =
            "group " + std::to_string(gi) + " " + kKindTag[k];
        if (timed) check.Attempt();
        Answer a = AskInProcess(db, g.specs[k], round_tracer, ++trace_id,
                                kKindTag[k]);
        if (!a.result.ok) {
          check.Fail(what + ": " + a.result.error);
          continue;
        }
        if (k == kCount || k == kSum) {
          check.Expect(a.result.aggregates.has_value(),
                       what + ": no aggregate");
        } else {
          check.Expect(a.result.objects == g.expected[k],
                       what + " differs from the model");
        }
        got[k] = std::move(a.result);
        if (!timed) continue;
        busy_ns += a.latency_ns;
        query_us.Observe(gi * kKinds + k,
                         static_cast<double>(a.latency_ns) * 1e-3);
        bytes += a.wire_bytes;
        vo_bytes += a.vo_bytes;
        results += a.results;
        perms += a.perms;
        ++answered;
        if (k == kCount || k == kSum) {
          agg_bytes += a.wire_bytes;
          ++aggs;
        }
      }
      const std::string where = "group " + std::to_string(gi);
      if (got[kCount] && got[kCount]->aggregates) {
        check.Expect(got[kCount]->aggregates->count == g.expected_count,
                     where + " COUNT differs from the model");
        if (got[kRange0]) {
          check.Expect(got[kCount]->aggregates->count ==
                           got[kRange0]->objects.size(),
                       where + " COUNT differs from its verified range");
        }
      }
      if (got[kSum] && got[kSum]->aggregates) {
        check.Expect(got[kSum]->aggregates->sum == g.expected_sum,
                     where + " SUM differs from the model");
      }
      for (int k : {kRange0, kRange1}) {
        if (!got[k]) continue;
        if (got[kAnd]) {
          check.Expect(Subset(got[kAnd]->objects, got[k]->objects),
                       where + " AND is not within a conjunct");
        }
        if (got[kOr]) {
          check.Expect(Subset(got[k]->objects, got[kOr]->objects),
                       where + " a conjunct is not within OR");
        }
      }
    }
    if (timed) round_s.Observe(0, static_cast<double>(busy_ns) * 1e-9);
  };
  NullTracer untraced;
  round(untraced, false);  // warm-up pass, never traced
  const double setup_s = SecondsBetween(ProcessStartNs(), NowNs());

  const int64_t deadline = NowNs() + int64_t{args.seconds} * 1'000'000'000;
  do {
    round(tracer, true);
  } while (NowNs() < deadline);

  check.Expect(AlteredImageRejected(db, groups[0].specs[kAnd]),
               "altered image accepted");

  const double n = answered > 0 ? static_cast<double>(answered) : 1.0;
  out.end_to_end["setup_s"] = setup_s;
  out.end_to_end["gas_per_write"] =
      static_cast<double>(load_gas) / static_cast<double>(kRecords);
  out.end_to_end["query_p50_us"] = query_us.Median();
  out.end_to_end["ops_per_s"] =
      static_cast<double>(groups.size() * kKinds) / round_s.Sum();
  out.end_to_end["bytes_per_query"] = static_cast<double>(bytes) / n;
  out.end_to_end["peak_rss_mb"] = PeakRssMb();

  if constexpr (Tracer::kEnabled) {
    out.per_layer["owner.write_us_p50"] = tracer.SelfP50Us("owner.write");
    SetQueryLayers(tracer, vo_bytes, results, perms, answered, &out.per_layer);
    for (const char* kind : {"and", "or", "count", "sum"}) {
      out.per_layer[std::string("multiattr.execute_us_p50.") + kind] =
          tracer.SelfP50Us("sp.execute", kind);
      out.per_layer[std::string("multiattr.verify_us_p50.") + kind] =
          tracer.SelfP50Us("client.verify", kind);
    }
    out.per_layer["multiattr.agg_bytes_per_query"] =
        static_cast<double>(agg_bytes) /
        static_cast<double>(aggs > 0 ? aggs : 1);
  }
  return out;
}

template Outcome RunBooleanMultiattr(const Args&, NullTracer&);
template Outcome RunBooleanMultiattr(const Args&, SpanTracer&);

}  // namespace repobench
