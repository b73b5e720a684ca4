// Continuous-ingest microbenchmark: online index maintenance (PR 9).
//
// Phase A — *delta speedup* at a static post-write epoch. The base UstTree
// is built, then --writes writes land (appended single-observation objects
// plus lifetime extensions of indexed ones), so the tree is stale by a
// known delta. The same Monte-Carlo P∀NNQ stream is then evaluated three
// ways over one snapshot:
//
//   reference : index-free session (alive-filter fallback) — ground truth;
//   delta     : stale base tree + per-epoch delta patch (the PR 9 path);
//   fallback  : delta patching disabled, so the session *drops* the stale
//               tree and degrades to the alive filter — the pre-PR-9
//               behavior of every post-write epoch.
//
// Both timed modes must reproduce the reference bit for bit (probability
// bytes; candidate/influencer *counts* legitimately differ between the
// indexed and index-free plans). delta_speedup = qps_delta / qps_fallback
// is the tentpole metric: what probing base ∪ delta buys over losing the
// index on every write. Timed region includes session construction, so the
// delta path pays its own UstDelta build: each rep gets a fresh base tree
// (built outside the timer) whose per-epoch delta memo starts empty.
//
// Phase B — *open-loop churn* through the serving tier. A QueryServer runs
// with the background compactor on (--compact_ms cadence) while a writer
// thread lands --writes more writes paced --write_interval_us apart and
// client threads submit a 3x query stream. qps_ingest / p99_ingest_ms
// measure serving under continuous ingest; the run must complete with zero
// rejects and zero stale-index drops (every session either rides the
// freshest compacted base or patches the gap with a delta). After the
// writer quiesces the bench waits for the compactor to fold the tail, then
// replays a check stream against an index-free reference session at the
// final epoch — bit-identical, through whatever base the compactor
// published mid-stream.
//
// Emits BENCH_ingest.json (qps_delta, qps_fallback, delta_speedup,
// qps_ingest, p99_ingest_ms, delta depth, compaction counts) — gated by
// tools/check_bench.py like the other harnesses.
//
// Flags (defaults sized for a single CI core; the object count and
// observation density are chosen so pruning has teeth — the fallback's
// sampling bill grows with the alive set, the delta path's with the
// influencer set, and the ≥2x acceptance ratio needs that gap visible at
// smoke scale):
//   --states=5000 --objects=64 --lifetime=96 --obs_interval=6
//   --horizon=120 --interval=8 --intervals=2 --worlds=500 --queries=30
//   --threads=2 --lanes=2 --clients=2 --batch=16 --delay_ms=1
//   --writes=12 --write_interval_us=400 --compact_ms=2
//   --min_speedup=1.0 --json_out=BENCH_ingest.json
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "bench_json.h"
#include "gen/synthetic.h"
#include "gen/workload.h"
#include "index/ust_tree.h"
#include "query/session.h"
#include "server/query_server.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace ust;
using namespace ust::bench;

namespace {

// Bitwise agreement on what the query *answers*: status, backend and the
// probability bytes. worlds_used is deliberately not compared here — the
// indexed and index-free plans see different candidate sets (that is the
// point of pruning), and a pruned-empty query skips sampling entirely.
void CheckSameResults(const QueryOutcome& a, const QueryOutcome& b) {
  UST_CHECK(a.status.ok() && b.status.ok());
  UST_CHECK(a.executor == b.executor);
  UST_CHECK(a.pnn.results.size() == b.pnn.results.size());
  for (size_t j = 0; j < a.pnn.results.size(); ++j) {
    UST_CHECK(a.pnn.results[j].object == b.pnn.results[j].object);
    UST_CHECK(a.pnn.results[j].prob == b.pnn.results[j].prob);
  }
}

// One pre-generated write: append a fresh single-observation object cloned
// from a donor (cheap, always contradiction-free), or extend the lifetime
// of an already-indexed object (exercises the delta's replace path).
struct PendingWrite {
  bool extend = false;
  ObjectId donor = 0;
  Observation obs;
  Tic end_tic = 0;
};

void ApplyWrite(TrajectoryDatabase& db, const PendingWrite& w) {
  if (w.extend) {
    UST_CHECK(db.ExtendLifetime(w.donor, w.end_tic).ok());
    return;
  }
  const TransitionMatrixPtr matrix = db.Snapshot().object(w.donor).matrix_ptr();
  auto obs = ObservationSeq::Create({w.obs});
  UST_CHECK(obs.ok());
  db.AddObject(obs.MoveValue(), matrix, w.end_tic);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  SyntheticConfig config;
  config.num_states = flags.GetInt("states", 5000);
  config.num_objects = flags.GetInt("objects", 64);
  config.lifetime = static_cast<Tic>(flags.GetInt("lifetime", 96));
  config.obs_interval = static_cast<Tic>(flags.GetInt("obs_interval", 6));
  config.horizon = static_cast<Tic>(flags.GetInt("horizon", 120));
  config.seed = 6;
  const size_t interval_length = flags.GetInt("interval", 8);
  const size_t num_intervals = std::max<size_t>(1, flags.GetInt("intervals", 2));
  const size_t num_worlds = flags.GetInt("worlds", 500);
  const size_t num_queries = flags.GetInt("queries", 30);
  const int threads = flags.GetInt("threads", 2);
  const int lanes = std::max(1, static_cast<int>(flags.GetInt("lanes", 2)));
  const int clients = std::max(1, static_cast<int>(flags.GetInt("clients", 2)));
  const size_t max_batch = flags.GetInt("batch", 16);
  const double delay_ms = flags.GetDouble("delay_ms", 1.0);
  const size_t num_writes = std::max<size_t>(1, flags.GetInt("writes", 12));
  const size_t write_interval_us = flags.GetInt("write_interval_us", 400);
  const double compact_ms = flags.GetDouble("compact_ms", 2.0);
  // In-binary floor on delta_speedup (sanity; the real >= 2x acceptance
  // gate is the committed baseline's ratio band in tools/check_bench.py).
  // Sanitizer smoke runs pass 0: instrumentation skews the ratio.
  const double min_speedup = flags.GetDouble("min_speedup", 1.0);
  const std::string json_out = flags.GetString("json_out", "BENCH_ingest.json");

  PrintConfig("micro_ingest: online index maintenance under ingest", flags,
              "states=" + std::to_string(config.num_states) +
                  " objects=" + std::to_string(config.num_objects) +
                  " worlds=" + std::to_string(num_worlds) +
                  " queries=" + std::to_string(num_queries) +
                  " writes=" + std::to_string(num_writes) +
                  " lanes=" + std::to_string(lanes) +
                  " clients=" + std::to_string(clients));

  auto world_result = GenerateSyntheticWorld(config);
  UST_CHECK(world_result.ok());
  SyntheticWorld world = world_result.MoveValue();
  TrajectoryDatabase& db = *world.db;
  const size_t seed_objects = db.Snapshot().size();
  // The base tree is built *before* any write lands: from here on it is
  // stale for every new epoch, and staying useful is the delta's job.
  const DbSnapshot base_snapshot = db.Snapshot();
  auto tree = UstTree::Build(base_snapshot);
  UST_CHECK(tree.ok());

  const TimeInterval T1 = BusiestInterval(db, interval_length);
  const Tic shift = std::max<Tic>(1, static_cast<Tic>(interval_length) / 2);
  std::vector<TimeInterval> intervals;
  intervals.reserve(num_intervals);
  for (size_t k = 0; k < num_intervals; ++k) {
    TimeInterval T = T1;
    const Tic offset = static_cast<Tic>(k) * shift;
    if (T.start >= offset) {
      T.start -= offset;
      T.end -= offset;
    } else {
      T.start += offset;
      T.end += offset;
    }
    intervals.push_back(T);
  }
  Tic union_start = intervals[0].start, union_end = intervals[0].end;
  for (const TimeInterval& T : intervals) {
    union_start = std::min(union_start, T.start);
    union_end = std::max(union_end, T.end);
  }

  // Pre-generate every write of both phases. Appended objects are observed
  // once at the query window's start and live past its end, so each one is
  // alive throughout every query interval — writes the queries cannot see
  // would make the delta look free. Every 4th write instead extends an
  // indexed object, forcing the delta to *replace* its base entries.
  const auto make_writes = [&](size_t count, size_t salt) {
    std::vector<PendingWrite> writes(count);
    for (size_t i = 0; i < count; ++i) {
      PendingWrite& w = writes[i];
      const size_t pick = (salt + i) % seed_objects;
      w.donor = static_cast<ObjectId>(pick);
      if (i % 4 == 3) {
        w.extend = true;
        // Target epoch-independent: strictly past both any seed lifetime
        // and any earlier extension of the same donor.
        w.end_tic = static_cast<Tic>(config.horizon) +
                    static_cast<Tic>(2 * (salt + i) + 2);
      } else {
        w.obs.time = union_start;
        w.obs.state = db.Snapshot().object(w.donor).observations().first().state;
        w.end_tic = union_end + 2;
      }
    }
    return writes;
  };
  const std::vector<PendingWrite> phase_a_writes = make_writes(num_writes, 0);
  const std::vector<PendingWrite> phase_b_writes =
      make_writes(num_writes, num_writes);

  const auto make_specs = [&](size_t count, size_t seed_base) {
    Rng qrng(3 + seed_base);
    std::vector<QuerySpec> specs;
    specs.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      QuerySpec spec;
      spec.kind = QueryKind::kForall;
      spec.q = RandomQueryState(db.space(), qrng);
      spec.T = intervals[i % num_intervals];
      // tau > 0 and a pinned backend: the indexed and index-free plans are
      // bit-identical only where pruning cannot change the reported set
      // (tau = 0 would surface zero-probability objects the index prunes)
      // and where the id-keyed Monte-Carlo streams are actually used.
      spec.tau = 0.05;
      spec.backend = ExecutorKind::kMonteCarlo;
      spec.mc.num_worlds = num_worlds;
      spec.mc.seed = seed_base + i;
      specs.push_back(spec);
    }
    return specs;
  };

  // ---- Phase A: delta vs stale-drop fallback at one post-write epoch. ----
  for (const PendingWrite& w : phase_a_writes) ApplyWrite(db, w);
  const DbSnapshot snapshot = db.Snapshot();
  const std::vector<QuerySpec> specs = make_specs(num_queries, 1000);

  SessionOptions session_options;
  session_options.threads = threads;

  // Ground truth + posterior warm-up (shared objects: the timed modes then
  // measure pruning + sampling, not one-time adaptation).
  std::vector<QueryOutcome> reference;
  {
    QuerySession session(snapshot, nullptr, session_options);
    UST_CHECK(session.Prepare().ok());
    reference = session.RunAll(specs);
  }

  size_t delta_depth_a = 0;
  const auto timed_run = [&](bool delta_enabled, bool expect_drop) {
    SessionOptions options = session_options;
    options.delta_index = delta_enabled;
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      // A fresh base per rep: the tree memoizes its per-epoch delta, so
      // reusing one would let reps 2-3 skip the build being measured.
      auto base = UstTree::Build(base_snapshot);
      UST_CHECK(base.ok());
      Timer t;
      QuerySession session(snapshot, &base.value(), options);
      UST_CHECK(session.Prepare().ok());
      const std::vector<QueryOutcome> results = session.RunAll(specs);
      const double seconds = t.Seconds();
      UST_CHECK(session.dropped_stale_index() == expect_drop);
      if (delta_enabled) {
        UST_CHECK(session.delta_depth() > 0);
        delta_depth_a = session.delta_depth();
      }
      for (size_t i = 0; i < results.size(); ++i) {
        CheckSameResults(results[i], reference[i]);
      }
      best = rep == 0 ? seconds : std::min(best, seconds);
    }
    return best;
  };
  const double delta_seconds = timed_run(true, false);
  const double fallback_seconds = timed_run(false, true);
  const double n = static_cast<double>(num_queries);
  const double qps_delta = n / delta_seconds;
  const double qps_fallback = n / fallback_seconds;
  const double delta_speedup =
      qps_fallback > 0.0 ? qps_delta / qps_fallback : 1.0;
  UST_CHECK(delta_speedup >= min_speedup);

  // ---- Phase B: open-loop churn through the serving tier. ----
  ServerOptions server_options;
  server_options.lanes = lanes;
  server_options.threads = threads;
  server_options.max_batch_size = max_batch;
  server_options.max_batch_delay_ms = delay_ms;
  server_options.delta_index = true;
  server_options.compaction = true;
  server_options.compaction_interval_ms = compact_ms;
  server_options.compaction_min_depth = 1;
  QueryServer server(db, &tree.value(), server_options);

  const size_t churn_queries = 3 * num_queries;
  const std::vector<QuerySpec> churn_specs = make_specs(churn_queries, 9000);
  std::vector<std::future<QueryOutcome>> futures(churn_queries);
  Timer churn_timer;
  std::thread writer([&] {
    for (const PendingWrite& w : phase_b_writes) {
      ApplyWrite(db, w);
      std::this_thread::sleep_for(std::chrono::microseconds(write_interval_us));
    }
  });
  std::vector<std::thread> client_threads;
  client_threads.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    client_threads.emplace_back([&, c] {
      for (size_t i = static_cast<size_t>(c); i < churn_queries;
           i += static_cast<size_t>(clients)) {
        futures[i] = server.Submit(churn_specs[i]);
      }
    });
  }
  for (auto& thread : client_threads) thread.join();
  for (size_t i = 0; i < churn_queries; ++i) {
    UST_CHECK(futures[i].get().status.ok());
  }
  writer.join();
  const double churn_seconds = churn_timer.Seconds();
  // Latency quantiles snapshotted *now*: the histogram holds exactly the
  // churn-phase requests, not the post-churn check stream below.
  const ServerStats churn_stats = server.Stats();
  UST_CHECK(churn_stats.rejected == 0);
  UST_CHECK(churn_stats.completed == churn_queries);
  // Every mid-churn session must have ridden a fresh base or a delta patch;
  // a single drop means the maintenance path failed under this schedule.
  UST_CHECK(churn_stats.cache.stale_index_drops == 0);

  // Let the compactor fold the writer's tail into a published base.
  for (int spin = 0; db.Snapshot().base_index() == nullptr ||
                     db.Snapshot().base_index()->built_version() < db.version();
       ++spin) {
    UST_CHECK(spin < 3000);  // ~15 s: the compactor is stuck
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const ServerStats settled_stats = server.Stats();
  UST_CHECK(settled_stats.compactions >= 1);
  UST_CHECK(settled_stats.compaction_failures == 0);

  // Post-churn determinism: at the (now static) final epoch the server —
  // serving through whatever base the compactor published mid-stream —
  // must reproduce an index-free reference bit for bit.
  const std::vector<QuerySpec> check_specs = make_specs(num_queries, 17000);
  std::vector<QueryOutcome> check_reference;
  {
    QuerySession session(db.Snapshot(), nullptr, session_options);
    UST_CHECK(session.Prepare().ok());
    check_reference = session.RunAll(check_specs);
  }
  std::vector<std::future<QueryOutcome>> check_futures(check_specs.size());
  for (size_t i = 0; i < check_specs.size(); ++i) {
    check_futures[i] = server.Submit(check_specs[i]);
  }
  for (size_t i = 0; i < check_specs.size(); ++i) {
    CheckSameResults(check_futures[i].get(), check_reference[i]);
  }
  server.Stop();

  const double qps_ingest = static_cast<double>(churn_queries) / churn_seconds;
  const double p50_ingest_ms =
      churn_stats.latency_micros.Quantile(0.50) / 1000.0;
  const double p99_ingest_ms =
      churn_stats.latency_micros.Quantile(0.99) / 1000.0;

  CsvTable table({"metric", "value"});
  table.AddRow({"qps_delta", std::to_string(qps_delta)});
  table.AddRow({"qps_fallback", std::to_string(qps_fallback)});
  table.AddRow({"delta_speedup", std::to_string(delta_speedup)});
  table.AddRow({"delta_depth_static", std::to_string(delta_depth_a)});
  table.AddRow({"qps_ingest", std::to_string(qps_ingest)});
  table.AddRow({"p50_ingest_ms", std::to_string(p50_ingest_ms)});
  table.AddRow({"p99_ingest_ms", std::to_string(p99_ingest_ms)});
  table.AddRow({"compactions", std::to_string(settled_stats.compactions)});
  table.AddRow(
      {"compaction_failures", std::to_string(settled_stats.compaction_failures)});
  table.AddRow({"delta_depth", std::to_string(settled_stats.delta_depth)});
  table.AddRow({"stale_index_drops",
                std::to_string(settled_stats.cache.stale_index_drops)});
  table.Print(std::cout, "micro_ingest results");
  std::printf("# server stats (lanes=%d clients=%d): %s\n", lanes, clients,
              settled_stats.ToJson().c_str());

  bench::JsonWriter json;
  json.Add("benchmark", std::string("micro_ingest"));
  json.AddHardwareShape();
  json.Add("num_states", static_cast<double>(config.num_states));
  json.Add("num_objects", static_cast<double>(config.num_objects));
  json.Add("num_worlds", static_cast<double>(num_worlds));
  json.Add("num_queries", static_cast<double>(num_queries));
  json.Add("num_intervals", static_cast<double>(num_intervals));
  json.Add("threads", static_cast<double>(threads));
  json.Add("lanes", static_cast<double>(lanes));
  json.Add("clients", static_cast<double>(clients));
  json.Add("max_batch_size", static_cast<double>(max_batch));
  json.Add("max_batch_delay_ms", delay_ms);
  json.Add("writes", static_cast<double>(num_writes));
  json.Add("write_interval_us", static_cast<double>(write_interval_us));
  json.Add("compaction_interval_ms", compact_ms);
  json.Add("qps_delta", qps_delta);
  json.Add("qps_fallback", qps_fallback);
  json.Add("delta_speedup", delta_speedup);
  json.Add("delta_depth_static", static_cast<double>(delta_depth_a));
  json.Add("qps_ingest", qps_ingest);
  json.Add("p50_ingest_ms", p50_ingest_ms);
  json.Add("p99_ingest_ms", p99_ingest_ms);
  json.Add("compactions", static_cast<double>(settled_stats.compactions));
  json.Add("compaction_failures",
           static_cast<double>(settled_stats.compaction_failures));
  json.Add("delta_depth", static_cast<double>(settled_stats.delta_depth));
  json.Add("stale_index_drops",
           static_cast<double>(settled_stats.cache.stale_index_drops));
  if (!json.WriteFile(json_out)) {
    std::fprintf(stderr, "failed to write %s\n", json_out.c_str());
    return 1;
  }
  std::printf("# wrote %s\n", json_out.c_str());
  return 0;
}
