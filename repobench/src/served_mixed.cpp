// served_mixed: a 4-shard GEM2-tree (ShardedDb at quantile bounds) behind
// net::SpServer on loopback. Rounds alternate an owner write phase through
// SpQueryEngine with a phase of verified QUERY2 queries from a fixed number
// of connections, each a closed loop on its own thread. Exercises the
// reactor, the worker pool, scatter-gather, the engine lock and SP trees
// re-materialized after each write phase.
//
// The writes are updates of a fixed key set with same-length values, so
// every round sees the same tree shapes: per-write and per-query counts are
// the same in every round and every run of one seed.
#include <cstdio>
#include <optional>
#include <thread>

#include "bench.h"
#include "calls.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/query_engine.h"
#include "net/client.h"
#include "net/server.h"
#include "shard/sharded_db.h"
#include "telemetry/metrics.h"
#include "workload/workload.h"

namespace repobench {
namespace {

constexpr uint64_t kKeys = 40'000;
constexpr size_t kShards = 4;
constexpr uint64_t kWritesPerRound = 256;
constexpr uint64_t kQueriesPerRound = 48;
constexpr size_t kConnections = 2;
constexpr size_t kServerWorkers = 2;
constexpr size_t kEnginePoolThreads = 1;
constexpr int kReplyTimeoutMs = 10'000;
constexpr Key kDomainMax = 1'000'000'000;

/// A value of fixed length for write `i` of round `round`.
std::string RoundValue(uint64_t round, uint64_t i) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "round-%08llu-write-%06llu-",
                static_cast<unsigned long long>(round),
                static_cast<unsigned long long>(i));
  std::string value(buf);
  value.resize(100, 'v');
  return value;
}

/// What one connection's closed loop saw in one query phase.
template <class Tracer>
struct ConnResult {
  Tracer tracer;
  Checker check;
  std::vector<std::pair<size_t, double>> latency_us;  // (spec index, us)
  std::vector<double> rtt_us;
  uint64_t bytes = 0;
  uint64_t slices = 0;
  uint64_t results = 0;
};

}  // namespace

template <class Tracer>
Outcome RunServedMixed(const Args& args, Tracer& tracer) {
  Outcome out;
  Checker& check = out.check;
  out.settings["keys"] = std::to_string(kKeys);
  out.settings["shards"] = std::to_string(kShards);
  out.settings["writes_per_round"] =
      std::to_string(kWritesPerRound) + " updates through SpQueryEngine";
  out.settings["queries_per_round"] =
      std::to_string(kQueriesPerRound) + " QUERY2 range specs";
  out.settings["selectivity_mix"] = "0.01%,0.1%,1% of the keys (thirds)";
  out.settings["threads"] =
      std::to_string(kConnections) + " client connections (one thread each), " +
      "server reactor 1, server workers " + std::to_string(kServerWorkers) +
      ", engine pool " + std::to_string(kEnginePoolThreads) + " + caller";

  // --- Set-up: shards at the key distribution's quantiles, loaded by the
  // owner, then served.
  gem2::workload::WorkloadOptions w;
  w.distribution = gem2::workload::KeyDistribution::kUniform;
  w.domain_max = kDomainMax;
  w.seed = args.seed;
  gem2::workload::WorkloadGenerator gen(w);
  gem2::shard::ShardOptions shard_options;
  shard_options.base = PaperDbOptions();
  shard_options.bounds = gen.ShardBounds(kShards);
  gem2::shard::ShardedDb db(shard_options);
  Model model;
  for (uint64_t i = 0; i < kKeys; ++i) {
    const gem2::workload::Operation op = gen.Next();
    const gem2::chain::TxReceipt receipt = db.Insert(op.object);
    if (!receipt.ok) throw std::runtime_error("load failed: " + receipt.error);
    model[op.object.key] = op.object.value;
  }
  // The updated keys are one per equal stretch of insertion order (where a
  // key sits in the GEM2-tree, and so what its update costs, follows when it
  // was inserted), at a seeded offset within each stretch.
  gem2::Rng rng(args.seed + 1);
  std::vector<Key> update_keys;
  const std::vector<Key>& keys = gen.inserted_keys();
  const uint64_t stretch = keys.size() / kWritesPerRound;
  for (uint64_t i = 0; i < kWritesPerRound; ++i) {
    update_keys.push_back(keys[i * stretch + rng.Uniform(0, stretch - 1)]);
  }
  const std::vector<gem2::core::QuerySpec> specs =
      MakeRangeSpecs(model, kQueriesPerRound, args.seed + 2);

  gem2::common::ThreadPool pool(kEnginePoolThreads);
  gem2::core::SpQueryEngine engine(&db, &pool);
  gem2::net::ServerOptions server_options;
  server_options.worker_threads = kServerWorkers;
  gem2::net::SpServer server(engine, server_options);
  server.Start();
  std::vector<gem2::net::FrameClient> conns(kConnections);
  for (auto& conn : conns) {
    if (!conn.Connect(server.port())) {
      throw std::runtime_error("connect failed: " + conn.error());
    }
  }

  uint64_t trace_id = 0;
  uint64_t round_no = 0;
  BestOfRounds write_phase_s, query_phase_s, query_us;
  std::vector<double> first_after_writes_us, rtt_us;
  gem2::gas::GasBreakdown gas;
  uint64_t writes = 0, bytes = 0, slices = 0, results = 0, answered = 0;
  bool wrong_answer_pending = args.wrong_answer;

  auto round = [&](bool timed) {
    ++round_no;
    // Owner write phase.
    const int64_t write_start = NowNs();
    for (uint64_t i = 0; i < update_keys.size(); ++i) {
      if (timed) check.Attempt();
      const Object object{update_keys[i], RoundValue(round_no, i)};
      ++trace_id;
      gem2::chain::TxReceipt receipt;
      {
        ScopedSpan<Tracer> span(tracer, "engine.write", trace_id);
        receipt = engine.Update(object);
      }
      if (!receipt.ok) {
        check.Fail("write: " + receipt.error);
        continue;
      }
      model[object.key] = object.value;
      if (timed) {
        gas += receipt.breakdown;
        ++writes;
      }
    }
    const int64_t write_end = NowNs();

    std::vector<std::vector<Object>> expected;
    for (const auto& spec : specs) {
      expected.push_back(
          ModelRange(model, spec.predicates[0].lb, spec.predicates[0].ub));
    }
    if (wrong_answer_pending && timed) {
      expected[0].push_back({kDomainMax + 1, "absent"});
      wrong_answer_pending = false;
    }

    // Query phase: the client reads the chain once, then every connection
    // runs its share of the specs as a closed loop.
    const int64_t query_start = NowNs();
    std::vector<gem2::chain::AuthenticatedState> states;
    {
      ScopedSpan<Tracer> span(tracer, "chain.read_state", ++trace_id);
      states = db.ReadChainState();
    }
    const uint64_t first_trace = trace_id + 1;
    trace_id += specs.size();
    std::vector<ConnResult<Tracer>> conn_results(kConnections);
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        ConnResult<Tracer>& cr = conn_results[c];
        for (size_t j = c; j < specs.size(); j += kConnections) {
          const uint64_t id = first_trace + j;
          if (timed) cr.check.Attempt();
          const std::string what = "query " + std::to_string(j);
          const int64_t sent = NowNs();
          ScopedSpan<Tracer> root(cr.tracer, "query", id);
          std::optional<gem2::net::Frame> frame;
          {
            ScopedSpan<Tracer> span(cr.tracer, "net.rtt", id);
            if (conns[c].SendQuerySpec(id, specs[j], kReplyTimeoutMs)) {
              frame = conns[c].ReadFrame(kReplyTimeoutMs);
            }
          }
          const int64_t received = NowNs();
          if (!frame || frame->request_id != id ||
              frame->type != gem2::net::FrameType::kResponse) {
            cr.check.Fail(what + ": no response (" + conns[c].error() + ")");
            continue;
          }
          std::optional<gem2::core::SpecResponse> parsed;
          {
            ScopedSpan<Tracer> span(cr.tracer, "wire.parse", id);
            parsed = gem2::core::ParseSpecResponse(
                gem2::core::UnwrapTracedWire(frame->body).image);
          }
          gem2::core::VerifiedSpecResult result;
          {
            ScopedSpan<Tracer> span(cr.tracer, "client.verify", id);
            if (parsed) result = db.VerifySpecAgainst(states, specs[j], *parsed);
          }
          const int64_t verified = NowNs();
          if (!parsed || !result.ok) {
            cr.check.Fail(what + ": " +
                          (parsed ? result.error : "malformed wire image"));
            continue;
          }
          cr.check.Expect(result.objects == expected[j],
                          what + " differs from the model");
          cr.latency_us.emplace_back(
              j, static_cast<double>(verified - sent) * 1e-3);
          cr.rtt_us.push_back(static_cast<double>(received - sent) * 1e-3);
          cr.bytes += frame->body.size();
          for (const auto& conjunct : parsed->conjuncts) {
            cr.slices += conjunct.slices.size();
          }
          cr.results += result.objects.size();
        }
      });
    }
    for (std::thread& t : threads) t.join();
    const int64_t query_end = NowNs();

    for (ConnResult<Tracer>& cr : conn_results) {
      check.Merge(cr.check);
      if constexpr (Tracer::kEnabled) tracer.Merge(cr.tracer);
    }
    if (!timed) return;
    write_phase_s.Observe(0, SecondsBetween(write_start, write_end));
    query_phase_s.Observe(0, SecondsBetween(query_start, query_end));
    if (!conn_results[0].rtt_us.empty()) {
      first_after_writes_us.push_back(conn_results[0].rtt_us.front());
    }
    for (const ConnResult<Tracer>& cr : conn_results) {
      for (const auto& [spec, us] : cr.latency_us) query_us.Observe(spec, us);
      rtt_us.insert(rtt_us.end(), cr.rtt_us.begin(), cr.rtt_us.end());
      bytes += cr.bytes;
      slices += cr.slices;
      results += cr.results;
      answered += cr.latency_us.size();
    }
  };

  round(false);  // warm-up pass
  const double setup_s = SecondsBetween(ProcessStartNs(), NowNs());
  if constexpr (Tracer::kEnabled) tracer = Tracer();  // drop warm-up spans
  gem2::telemetry::Histogram& server_ns =
      gem2::telemetry::MetricsRegistry::Global().histogram(
          "service.request_ns.query");
  server_ns.Reset();
  const uint64_t shed_before = server.stats().shed;

  const int64_t deadline = NowNs() + int64_t{args.seconds} * 1'000'000'000;
  do {
    round(true);
  } while (NowNs() < deadline);

  const gem2::telemetry::QuantileSummary server_q = server_ns.Quantiles();
  const uint64_t sheds = server.stats().shed - shed_before;

  // The altered-image probe, over the socket.
  {
    const std::vector<gem2::chain::AuthenticatedState> states =
        db.ReadChainState();
    const uint64_t id = ++trace_id;
    std::optional<gem2::net::Frame> frame;
    if (conns[0].SendQuerySpec(id, specs[0], kReplyTimeoutMs)) {
      frame = conns[0].ReadFrame(kReplyTimeoutMs);
    }
    bool rejected = false;
    if (frame && frame->type == gem2::net::FrameType::kResponse) {
      const Bytes altered =
          AlterImage(gem2::core::UnwrapTracedWire(frame->body).image);
      const auto parsed = gem2::core::ParseSpecResponse(altered);
      rejected =
          !parsed || !db.VerifySpecAgainst(states, specs[0], *parsed).ok;
    } else {
      check.Fail("altered-image probe: no response");
    }
    check.Expect(rejected || !frame, "altered image accepted");
  }
  for (auto& conn : conns) conn.Close();
  server.Stop();

  const double n = answered > 0 ? static_cast<double>(answered) : 1.0;
  out.end_to_end["setup_s"] = setup_s;
  out.end_to_end["gas_per_write"] =
      static_cast<double>(gas.total()) /
      static_cast<double>(writes > 0 ? writes : 1);
  out.end_to_end["query_p50_us"] = query_us.Median();
  out.end_to_end["ops_per_s"] =
      static_cast<double>(update_keys.size() + specs.size()) /
      (write_phase_s.Sum() + query_phase_s.Sum());
  out.end_to_end["bytes_per_query"] = static_cast<double>(bytes) / n;
  out.end_to_end["peak_rss_mb"] = PeakRssMb();
  out.settings["rounds"] = std::to_string(round_no - 1);

  if constexpr (Tracer::kEnabled) {
    SetGasLayers(gas, writes, &out.per_layer);
    out.per_layer["engine.write_us_p50"] = tracer.SelfP50Us("engine.write");
    out.per_layer["chain.read_state_us"] = tracer.SelfP50Us("chain.read_state");
    out.per_layer["sp.first_query_after_writes_us"] =
        Median(first_after_writes_us);
    out.per_layer["sp.results_per_query"] = static_cast<double>(results) / n;
    out.per_layer["wire.parse_us_p50"] = tracer.SelfP50Us("wire.parse");
    out.per_layer["client.verify_us_p50"] = tracer.SelfP50Us("client.verify");
    out.per_layer["shard.slices_per_query"] = static_cast<double>(slices) / n;
    out.per_layer["net.rtt_us_p50"] = Quantile(rtt_us, 0.5);
    out.per_layer["net.rtt_us_p99"] = Quantile(rtt_us, 0.99);
    out.per_layer["net.server_request_us_p50"] = server_q.p50 * 1e-3;
    out.per_layer["net.server_request_us_p99"] = server_q.p99 * 1e-3;
    out.per_layer["net.busy_sheds"] = static_cast<double>(sheds);
  }
  return out;
}

template Outcome RunServedMixed(const Args&, NullTracer&);
template Outcome RunServedMixed(const Args&, SpanTracer&);

}  // namespace repobench
