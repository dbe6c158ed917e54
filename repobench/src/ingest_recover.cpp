// ingest_recover: a data owner writes a zipfian, 50%-update stream into a
// single-contract GEM2-tree whose journal_sink is a store::DurableJournal on
// the real filesystem, with syncing left to the OS. The serving SP is then rebuilt from that directory (RecoverJournal +
// AuthenticatedDb::Replay) up to its first verified answer, and answers the
// round's remaining range specs. All the gas, chain-sealing,
// state-commitment, journal and replay work, and little query work.
//
// Every round starts from an empty directory and replays the same inputs, so
// per-write counts are the same in every round and every run of one seed.
#include <unistd.h>

#include <filesystem>
#include <memory>

#include "bench.h"
#include "calls.h"
#include "store/durable_journal.h"
#include "store/vfs.h"
#include "workload/workload.h"

namespace repobench {
namespace {

namespace fs = std::filesystem;

constexpr uint64_t kPreload = 5'000;
constexpr uint64_t kStream = 10'000;
// The stream's rate is taken per chunk of this many writes: the fastest
// round of each chunk, summed (see BestOfRounds).
constexpr uint64_t kStreamChunk = 500;
constexpr uint64_t kQueries = 48;  // per round; the first is the first answer
constexpr Key kDomainMax = 1'000'000'000;

struct Inputs {
  std::vector<gem2::workload::Operation> preload;
  std::vector<gem2::workload::Operation> stream;
  std::vector<gem2::core::QuerySpec> specs;
  std::vector<std::vector<Object>> expected;  // model answer per spec
};

Inputs MakeInputs(uint64_t seed, uint64_t preload, uint64_t stream,
                  bool wrong_answer) {
  gem2::workload::WorkloadOptions w;
  w.distribution = gem2::workload::KeyDistribution::kZipfian;
  w.domain_max = kDomainMax;
  w.seed = seed;
  gem2::workload::WorkloadGenerator gen(w);
  Inputs in;
  in.preload = gen.Batch(preload);
  gen.set_update_ratio(0.5);
  in.stream = gen.Batch(stream);

  Model model;
  for (const auto* ops : {&in.preload, &in.stream}) {
    for (const auto& op : *ops) model[op.object.key] = op.object.value;
  }
  in.specs = MakeRangeSpecs(model, kQueries, seed + 1);
  for (const auto& spec : in.specs) {
    in.expected.push_back(
        ModelRange(model, spec.predicates[0].lb, spec.predicates[0].ub));
  }
  if (wrong_answer) in.expected[0].push_back({kDomainMax + 1, "absent"});
  return in;
}

/// The journal writes every record to its segment file on the real
/// filesystem but leaves syncing to the OS (the default syncs every record).
/// On the shared hosts this runs on, one fsync takes from ~60 us to several
/// ms for minutes at a time, with other tenants' I/O, so any fsync on the
/// write path makes the write rate a measure of the neighbours' disk use
/// rather than of the program.
gem2::store::JournalOptions JournalSettings() {
  gem2::store::JournalOptions options;
  options.fsync_policy = gem2::store::FsyncPolicy::kNever;
  return options;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

/// Times every append into the durable journal (traced run only).
template <class Tracer>
class TimedSink : public gem2::core::JournalSink {
 public:
  TimedSink(gem2::core::JournalSink& inner, Tracer& tracer,
            const uint64_t& trace_id)
      : inner_(inner), tracer_(tracer), trace_id_(trace_id) {}
  bool Append(const gem2::core::JournalEntry& entry) override {
    ScopedSpan<Tracer> span(tracer_, "store.append", trace_id_);
    return inner_.Append(entry);
  }
  bool Sync() override { return inner_.Sync(); }
  std::string last_error() const override { return inner_.last_error(); }

 private:
  gem2::core::JournalSink& inner_;
  Tracer& tracer_;
  const uint64_t& trace_id_;
};

/// What one round measured.
struct RoundResult {
  std::vector<double> chunk_s;  // stream time per kStreamChunk writes
  gem2::gas::GasBreakdown gas;
  uint64_t perms = 0;
  uint64_t journal_bytes = 0;
  double scan_s = 0;
  double replay_s = 0;
  double first_answer_s = 0;
  double recover_s = 0;
  std::vector<double> query_us;  // the recovered SP's answers after the first
  uint64_t query_bytes = 0, vo_bytes = 0, results = 0, query_perms = 0;
};

template <class Tracer>
RoundResult Round(const Inputs& in, const std::string& dir, Tracer& tracer,
                  uint64_t& trace_id, Checker& check, bool timed) {
  RoundResult r;
  fs::remove_all(dir);
  fs::create_directories(dir);
  gem2::store::PosixVfs vfs;
  std::string error;
  std::unique_ptr<gem2::store::DurableJournal> journal =
      gem2::store::DurableJournal::Open(&vfs, dir, 0, JournalSettings(), &error);
  if (!journal) throw std::runtime_error("journal open failed: " + error);
  TimedSink<Tracer> timed_sink(*journal, tracer, trace_id);
  gem2::core::DbOptions options = PaperDbOptions();
  options.journal_sink = Tracer::kEnabled
                             ? static_cast<gem2::core::JournalSink*>(&timed_sink)
                             : journal.get();
  auto db = std::make_unique<gem2::core::AuthenticatedDb>(options);

  for (const auto& op : in.preload) {
    const gem2::chain::TxReceipt receipt = db->Insert(op.object);
    if (!receipt.ok) throw std::runtime_error("preload failed: " + receipt.error);
  }

  const uint64_t perms_before = gem2::crypto::KeccakPermutationCount();
  int64_t chunk_start = NowNs();
  for (size_t i = 0; i < in.stream.size(); ++i) {
    if (i > 0 && i % kStreamChunk == 0) {
      const int64_t now = NowNs();
      r.chunk_s.push_back(SecondsBetween(chunk_start, now));
      chunk_start = now;
    }
    const gem2::workload::Operation& op = in.stream[i];
    if (timed) check.Attempt();
    ++trace_id;
    ScopedSpan<Tracer> span(tracer, "owner.write", trace_id);
    const gem2::chain::TxReceipt receipt =
        op.type == gem2::workload::Operation::Type::kInsert
            ? db->Insert(op.object)
            : db->Update(op.object);
    if (!receipt.ok) {
      check.Fail("write: " + receipt.error);
      continue;
    }
    r.gas += receipt.breakdown;
  }
  r.chunk_s.push_back(SecondsBetween(chunk_start, NowNs()));
  if (!journal->Sync()) check.Fail("journal sync: " + journal->last_error());
  const gem2::Hash live_root = db->environment().CurrentStateRoot();
  r.perms = gem2::crypto::KeccakPermutationCount() - perms_before;
  journal.reset();
  r.journal_bytes = DirBytes(dir);

  // --- Recovery: a fresh SP from the directory alone.
  const int64_t recover_start = NowNs();
  gem2::store::JournalRecovery recovered_log;
  {
    ScopedSpan<Tracer> span(tracer, "store.scan", ++trace_id);
    recovered_log = gem2::store::RecoverJournal(&vfs, dir);
  }
  const int64_t scanned = NowNs();
  if (!recovered_log.ok) {
    check.Fail("journal recovery: " + recovered_log.error);
    return r;
  }
  gem2::core::Journal log;
  for (auto& entry : recovered_log.entries) log.Record(std::move(entry));
  std::unique_ptr<gem2::core::AuthenticatedDb> sp;
  {
    ScopedSpan<Tracer> span(tracer, "recover.replay", trace_id);
    sp = gem2::core::AuthenticatedDb::Replay(PaperDbOptions(), log);
  }
  const int64_t replayed = NowNs();
  const Answer first = AskInProcess(*sp, in.specs[0], tracer, ++trace_id);
  const int64_t answered = NowNs();
  r.scan_s = SecondsBetween(recover_start, scanned);
  r.replay_s = SecondsBetween(scanned, replayed);
  r.first_answer_s = SecondsBetween(replayed, answered);
  r.recover_s = SecondsBetween(recover_start, answered);

  check.Expect(sp->environment().CurrentStateRoot() == live_root,
               "recovered state root differs from the live root");
  if (timed) check.Attempt();
  if (!first.result.ok) {
    check.Fail("first answer: " + first.result.error);
  } else {
    check.Expect(first.result.objects == in.expected[0],
                 "first answer differs from the model");
  }

  for (size_t i = 1; i < in.specs.size(); ++i) {
    if (timed) check.Attempt();
    const Answer a = AskInProcess(*sp, in.specs[i], tracer, ++trace_id);
    if (!a.result.ok) {
      check.Fail("query " + std::to_string(i) + ": " + a.result.error);
      continue;
    }
    check.Expect(a.result.objects == in.expected[i],
                 "query " + std::to_string(i) + " differs from the model");
    r.query_us.push_back(static_cast<double>(a.latency_ns) * 1e-3);
    r.query_bytes += a.wire_bytes;
    r.vo_bytes += a.vo_bytes;
    r.results += a.results;
    r.query_perms += a.perms;
  }
  if (timed) {
    check.Expect(AlteredImageRejected(*sp, in.specs[0]),
                 "altered image accepted");
  }
  return r;
}

}  // namespace

template <class Tracer>
Outcome RunIngestRecover(const Args& args, Tracer& tracer) {
  Outcome out;
  Checker& check = out.check;
  out.settings["preload_keys"] = std::to_string(kPreload);
  out.settings["stream_writes"] = std::to_string(kStream);
  out.settings["key_distribution"] = "zipfian(0.8), 50% updates in the stream";
  out.settings["queries_per_round"] = std::to_string(kQueries);
  out.settings["journal_fsync_policy"] =
      gem2::store::FsyncPolicyName(JournalSettings().fsync_policy);
  out.settings["threads"] = "1 caller + the library's global pool (sealing)";

  const Inputs warm = MakeInputs(args.seed + 7'919, kPreload, kStream, false);
  const Inputs in = MakeInputs(args.seed, kPreload, kStream, args.wrong_answer);
  const std::string dir =
      (fs::path(args.out_dir) / "journal" /
       ("ingest_recover-" + std::to_string(::getpid())))
          .string();
  uint64_t trace_id = 0;
  {
    NullTracer untraced;
    Checker warm_check;
    Round(warm, dir, untraced, trace_id, warm_check, false);
    check.Merge(warm_check);
  }
  const double setup_s = SecondsBetween(ProcessStartNs(), NowNs());

  std::vector<RoundResult> rounds;
  const int64_t deadline = NowNs() + int64_t{args.seconds} * 1'000'000'000;
  do {
    rounds.push_back(Round(in, dir, tracer, trace_id, check, true));
  } while (NowNs() < deadline);
  fs::remove_all(dir);

  BestOfRounds chunk_s, query_us;
  std::vector<double> recover_s, scan_s, replay_s, first_ms;
  gem2::gas::GasBreakdown gas;
  uint64_t query_bytes = 0, vo_bytes = 0, results = 0, query_perms = 0;
  uint64_t queries = 0;
  for (const RoundResult& r : rounds) {
    for (size_t c = 0; c < r.chunk_s.size(); ++c) chunk_s.Observe(c, r.chunk_s[c]);
    for (size_t q = 0; q < r.query_us.size(); ++q) query_us.Observe(q, r.query_us[q]);
    queries += r.query_us.size();
    recover_s.push_back(r.recover_s);
    scan_s.push_back(r.scan_s);
    replay_s.push_back(r.replay_s);
    first_ms.push_back(r.first_answer_s * 1e3);
    gas += r.gas;
    query_bytes += r.query_bytes;
    vo_bytes += r.vo_bytes;
    results += r.results;
    query_perms += r.query_perms;
  }
  const uint64_t writes = kStream * rounds.size();
  if (queries == 0) queries = 1;
  out.end_to_end["setup_s"] = setup_s;

  out.end_to_end["gas_per_write"] =
      static_cast<double>(gas.total()) / static_cast<double>(writes);
  out.end_to_end["query_p50_us"] = query_us.Median();
  out.end_to_end["ops_per_s"] =
      static_cast<double>(kStream + query_us.positions()) /
      (chunk_s.Sum() + query_us.Sum() * 1e-6);
  out.end_to_end["bytes_per_query"] =
      static_cast<double>(query_bytes) / static_cast<double>(queries);
  out.end_to_end["peak_rss_mb"] = PeakRssMb();
  out.settings["rounds"] = std::to_string(rounds.size());

  if constexpr (Tracer::kEnabled) {
    SetGasLayers(gas, writes, &out.per_layer);
    out.per_layer["crypto.perms_per_write"] =
        static_cast<double>(rounds.front().perms) / static_cast<double>(kStream);
    out.per_layer["owner.write_us_p50"] = tracer.SelfP50Us("owner.write");
    out.per_layer["store.append_us_p50"] = tracer.SelfP50Us("store.append");
    out.per_layer["store.journal_bytes_per_write"] =
        static_cast<double>(rounds.front().journal_bytes) /
        static_cast<double>(kPreload + kStream);
    out.per_layer["store.scan_s"] = Median(scan_s);
    out.per_layer["recover.total_s"] = Median(recover_s);
    out.per_layer["recover.replay_s"] = Median(replay_s);
    out.per_layer["recover.first_answer_ms"] = Median(first_ms);
    SetQueryLayers(tracer, vo_bytes, results, query_perms, queries,
                   &out.per_layer);
  }
  return out;
}

template Outcome RunIngestRecover(const Args&, NullTracer&);
template Outcome RunIngestRecover(const Args&, SpanTracer&);

}  // namespace repobench
