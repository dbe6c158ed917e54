// range_verify: the paper's Figs. 9-10 path in-process. A read-only
// single-contract GEM2-tree of 10^5 uniform keys answers one-predicate range
// specs at a fixed selectivity mix, SP then client, on one thread. No
// socket, shard or write runs while it is timed: the side a shard, net or
// write-path change should leave unchanged.
#include "bench.h"
#include "calls.h"
#include "workload/workload.h"

namespace repobench {
namespace {

constexpr uint64_t kKeys = 100'000;
constexpr uint64_t kQueriesPerRound = 48;
constexpr Key kDomainMax = 1'000'000'000;

}  // namespace

template <class Tracer>
Outcome RunRangeVerify(const Args& args, Tracer& tracer) {
  Outcome out;
  Checker& check = out.check;
  out.settings["keys"] = std::to_string(kKeys);
  out.settings["key_distribution"] = "uniform";
  out.settings["queries_per_round"] = std::to_string(kQueriesPerRound);
  out.settings["selectivity_mix"] = "0.01%,0.1%,1% of the keys (thirds)";
  out.settings["threads"] = "1 (caller only)";

  // --- Set-up: the owner loads the keys through metered transactions.
  gem2::workload::WorkloadOptions w;
  w.distribution = gem2::workload::KeyDistribution::kUniform;
  w.domain_max = kDomainMax;
  w.seed = args.seed;
  gem2::workload::WorkloadGenerator gen(w);
  gem2::core::AuthenticatedDb db(PaperDbOptions());
  Model model;
  gem2::gas::GasBreakdown gas;
  uint64_t trace_id = 0;
  const uint64_t perms_before_load = gem2::crypto::KeccakPermutationCount();
  for (uint64_t i = 0; i < kKeys; ++i) {
    const gem2::workload::Operation op = gen.Next();
    ScopedSpan<Tracer> span(tracer, "owner.write", ++trace_id);
    const gem2::chain::TxReceipt receipt = db.Insert(op.object);
    if (!receipt.ok) throw std::runtime_error("load failed: " + receipt.error);
    gas += receipt.breakdown;
    model[op.object.key] = op.object.value;
  }
  db.environment().blockchain();  // drains any pipelined seal
  const uint64_t load_perms =
      gem2::crypto::KeccakPermutationCount() - perms_before_load;

  const std::vector<gem2::core::QuerySpec> specs =
      MakeRangeSpecs(model, kQueriesPerRound, args.seed + 1);
  std::vector<std::vector<Object>> expected;
  for (const auto& spec : specs) {
    expected.push_back(
        ModelRange(model, spec.predicates[0].lb, spec.predicates[0].ub));
  }
  if (args.wrong_answer) expected[0].push_back({kDomainMax + 1, "absent"});

  BestOfRounds query_us, round_s;
  uint64_t bytes = 0, vo_bytes = 0, results = 0, perms = 0, answered = 0;
  auto round = [&](auto& round_tracer, bool timed) {
    int64_t busy_ns = 0;
    for (size_t i = 0; i < specs.size(); ++i) {
      if (timed) check.Attempt();
      const Answer a = AskInProcess(db, specs[i], round_tracer, ++trace_id);
      if (!a.result.ok) {
        check.Fail("query " + std::to_string(i) + ": " + a.result.error);
        continue;
      }
      check.Expect(a.result.objects == expected[i],
                   "query " + std::to_string(i) + " differs from the model");
      if (!timed) continue;
      busy_ns += a.latency_ns;
      query_us.Observe(i, static_cast<double>(a.latency_ns) * 1e-3);
      bytes += a.wire_bytes;
      vo_bytes += a.vo_bytes;
      results += a.results;
      perms += a.perms;
      ++answered;
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

  check.Expect(AlteredImageRejected(db, specs[0]), "altered image accepted");

  const double n = answered > 0 ? static_cast<double>(answered) : 1.0;
  out.end_to_end["setup_s"] = setup_s;
  out.end_to_end["gas_per_write"] =
      static_cast<double>(gas.total()) / static_cast<double>(kKeys);
  out.end_to_end["query_p50_us"] = query_us.Median();
  out.end_to_end["ops_per_s"] =
      static_cast<double>(specs.size()) / round_s.Sum();
  out.end_to_end["bytes_per_query"] = static_cast<double>(bytes) / n;
  out.end_to_end["peak_rss_mb"] = PeakRssMb();

  if constexpr (Tracer::kEnabled) {
    SetGasLayers(gas, kKeys, &out.per_layer);
    out.per_layer["crypto.perms_per_write"] =
        static_cast<double>(load_perms) / static_cast<double>(kKeys);
    out.per_layer["owner.write_us_p50"] = tracer.SelfP50Us("owner.write");
    SetQueryLayers(tracer, vo_bytes, results, perms, answered, &out.per_layer);
  }
  return out;
}

template Outcome RunRangeVerify(const Args&, NullTracer&);
template Outcome RunRangeVerify(const Args&, SpanTracer&);

}  // namespace repobench
