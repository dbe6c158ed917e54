// The benchmark's calls into the library's public API that several
// workloads share: the paper's store settings, the in-process verified spec
// query (untraced: SpecWire -> VerifySpecWire; traced: the same work split
// into one span per public call), and the gas layer metrics.
#ifndef REPOBENCH_CALLS_H_
#define REPOBENCH_CALLS_H_

#include <optional>

#include "bench.h"
#include "core/authenticated_db.h"
#include "core/range_store.h"
#include "core/wire.h"
#include "crypto/keccak.h"
#include "gas/meter.h"

namespace repobench {

/// The paper's Section VII-A parameters, as bench/bench_common.h sets them
/// (m = 8, smax = 2048, fanout 4, 1024 txs per block, gas limit lifted so gas
/// is measured rather than enforced). Everything else keeps the program's
/// defaults.
inline gem2::core::DbOptions PaperDbOptions() {
  gem2::core::DbOptions o;
  o.kind = gem2::core::AdsKind::kGem2;
  o.gem2.m = 8;
  o.gem2.smax = 2048;
  o.gem2.fanout = 4;
  o.env.gas_limit = 1'000'000'000'000'000ull;
  o.env.txs_per_block = 1024;
  return o;
}

/// Sets the gas.*_per_write layer metrics from the summed receipt
/// breakdowns of `writes` writes.
inline void SetGasLayers(const gem2::gas::GasBreakdown& sum, uint64_t writes,
                         std::map<std::string, double>* per_layer) {
  const double n = writes > 0 ? static_cast<double>(writes) : 1.0;
  (*per_layer)["gas.sstore_per_write"] = static_cast<double>(sum.sstore) / n;
  (*per_layer)["gas.supdate_per_write"] = static_cast<double>(sum.supdate) / n;
  (*per_layer)["gas.sload_per_write"] = static_cast<double>(sum.sload) / n;
  (*per_layer)["gas.hash_per_write"] = static_cast<double>(sum.hash) / n;
  (*per_layer)["gas.mem_per_write"] = static_cast<double>(sum.mem) / n;
}

/// Sets the query-path layer metrics shared by the in-process workloads:
/// p50 self time of each public call, and the per-query counts summed over
/// `queries` answers.
inline void SetQueryLayers(const SpanTracer& tracer, uint64_t vo_bytes,
                           uint64_t results, uint64_t perms, uint64_t queries,
                           std::map<std::string, double>* per_layer) {
  const double n = queries > 0 ? static_cast<double>(queries) : 1.0;
  (*per_layer)["crypto.perms_per_query"] = static_cast<double>(perms) / n;
  (*per_layer)["chain.read_state_us"] = tracer.SelfP50Us("chain.read_state");
  (*per_layer)["sp.execute_us_p50"] = tracer.SelfP50Us("sp.execute");
  (*per_layer)["sp.vo_bytes_per_query"] = static_cast<double>(vo_bytes) / n;
  (*per_layer)["sp.results_per_query"] = static_cast<double>(results) / n;
  (*per_layer)["wire.serialize_us_p50"] = tracer.SelfP50Us("wire.serialize");
  (*per_layer)["wire.parse_us_p50"] = tracer.SelfP50Us("wire.parse");
  (*per_layer)["client.verify_us_p50"] = tracer.SelfP50Us("client.verify");
}

/// One verified in-process spec query.
struct Answer {
  gem2::core::VerifiedSpecResult result;
  int64_t latency_ns = 0;  // spec issued -> verified result
  uint64_t wire_bytes = 0;
  // Traced run only:
  uint64_t vo_bytes = 0;
  uint64_t results = 0;
  uint64_t perms = 0;
};

/// Asks `store` for `spec` and verifies the answer as a client. The
/// untraced run makes exactly the two calls a client of the in-process API
/// makes; the traced run makes the public calls they consist of, one span
/// each, all under trace `trace_id`.
template <class Tracer>
Answer AskInProcess(gem2::core::RangeStore& store,
                    const gem2::core::QuerySpec& spec, Tracer& tracer,
                    uint64_t trace_id, const char* tag = "") {
  Answer answer;
  if constexpr (!Tracer::kEnabled) {
    const int64_t start = NowNs();
    const Bytes wire = store.SpecWire(spec);
    answer.result = store.VerifySpecWire(spec, wire);
    answer.latency_ns = NowNs() - start;
    answer.wire_bytes = wire.size();
  } else {
    const uint64_t perms_before = gem2::crypto::KeccakPermutationCount();
    const int64_t start = NowNs();
    {
      ScopedSpan<Tracer> root(tracer, "query", trace_id, tag);
      gem2::core::SpecResponse response;
      {
        ScopedSpan<Tracer> s(tracer, "sp.execute", trace_id, tag);
        response = store.ExecuteSpec(spec);
      }
      Bytes wire;
      {
        ScopedSpan<Tracer> s(tracer, "wire.serialize", trace_id, tag);
        gem2::core::WrapTracedWireHeaderInto(response.trace, &wire);
        gem2::core::SerializeSpecResponseInto(response, store.wire_version(),
                                              &wire);
      }
      std::optional<gem2::core::SpecResponse> parsed;
      {
        ScopedSpan<Tracer> s(tracer, "wire.parse", trace_id, tag);
        parsed = gem2::core::ParseSpecResponse(
            gem2::core::UnwrapTracedWire(wire).image);
      }
      std::vector<gem2::chain::AuthenticatedState> states;
      {
        ScopedSpan<Tracer> s(tracer, "chain.read_state", trace_id, tag);
        states = store.ReadChainState();
      }
      {
        ScopedSpan<Tracer> s(tracer, "client.verify", trace_id, tag);
        if (parsed.has_value()) {
          answer.result = store.VerifySpecAgainst(states, spec, *parsed);
        } else {
          answer.result.error = "malformed wire image";
        }
      }
      answer.wire_bytes = wire.size();
      answer.vo_bytes = gem2::core::VoSpBytes(response);
      for (const auto& conjunct : response.conjuncts) {
        for (const auto& tree : conjunct.trees) {
          answer.results += tree.objects.size();
        }
        for (const auto& slice : conjunct.slices) {
          for (const auto& tree : slice.response.trees) {
            answer.results += tree.objects.size();
          }
        }
      }
    }
    answer.latency_ns = NowNs() - start;
    answer.perms = gem2::crypto::KeccakPermutationCount() - perms_before;
  }
  return answer;
}

/// The altered-image probe: the bare image of a valid answer to `spec`, with
/// one byte changed, must not verify. Returns true when it was rejected.
inline bool AlteredImageRejected(gem2::core::RangeStore& store,
                                 const gem2::core::QuerySpec& spec) {
  const Bytes image =
      gem2::core::UnwrapTracedWire(store.SpecWire(spec)).image;
  return !store.VerifySpecWire(spec, AlterImage(image)).ok;
}

}  // namespace repobench

#endif  // REPOBENCH_CALLS_H_
