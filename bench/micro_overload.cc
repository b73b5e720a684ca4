// Open-loop overload benchmark for the serving tier (DESIGN.md section 11):
// Poisson arrivals at a sweep of offered-load multiples of the server's
// measured saturation throughput, every request carrying a deadline. Unlike
// the closed-loop micro_server harness (clients wait for completions, so
// offered load self-throttles to capacity), an open-loop generator keeps
// submitting on schedule no matter how far behind the server falls — the
// regime where an unprotected server collapses: queues grow without bound,
// every request expires after consuming lane time, goodput goes to zero.
//
// The overload machinery under test keeps goodput flat instead:
//   - deadline propagation sheds already-expired work in the queue and at
//     morsel boundaries, before it wastes lane time;
//   - the overload controller degrades implicit-precision specs to the
//     server epsilon target (cheaper answers) and sheds the lowest priority
//     class at admission once utilization crosses the shed watermark;
//   - the hard admission bound backstops everything.
//
// The sweep emits a latency/goodput curve into BENCH_overload.json; the
// headline gate is goodput_saturated_ratio — goodput at the highest offered
// multiple (~2x saturation) over the peak across the sweep — which must stay
// >= --min_ratio (default 0.8: overload must cost at most 20% of peak
// goodput, not collapse it).
//
// --chaos=1 instead runs the fault-injection smoke (util/fault.h): arms all
// five serving-tier injection points (lane_stall, session_build, compaction,
// alloc_limit, deadline_skew), drives a concurrent burst + writes + Stop()
// through them, and asserts that every point fired, every future resolved,
// and the request ledger reconciles exactly:
//   submitted == admitted + rejected, rejected == sum of split reasons,
//   admitted == completed (every admitted request delivered one outcome).
// Writes the fire counts to --chaos_out for the CI artifact.
//
// Flags (defaults sized for a single CI core):
//   --states=8000 --objects=32 --lifetime=96 --obs_interval=12 --horizon=120
//   --interval=10 --intervals=2 --worlds=2000 --pool=48 --threads=1
//   --lanes=2 --batch=16 --delay_ms=1 --queue_capacity=64 --deadline_ms=80
//   --seconds_per_point=0.4 --multiples=0.5,1.0,1.5,2.0 --min_ratio=0.8
//   --chaos=0 --chaos_out=BENCH_overload_chaos.json
//   --json_out=BENCH_overload.json
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
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
#include "util/fault.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace ust;
using namespace ust::bench;

namespace {

std::vector<double> ParseMultiples(const std::string& csv) {
  std::vector<double> multiples;
  size_t pos = 0;
  while (pos < csv.size()) {
    size_t comma = csv.find(',', pos);
    if (comma == std::string::npos) comma = csv.size();
    multiples.push_back(std::stod(csv.substr(pos, comma - pos)));
    pos = comma + 1;
  }
  UST_CHECK(!multiples.empty());
  UST_CHECK(std::is_sorted(multiples.begin(), multiples.end()));
  return multiples;
}

/// One sweep point's observables.
struct PointResult {
  double offered_qps = 0.0;
  double goodput_qps = 0.0;   ///< OK outcomes per second of wall time
  double p99_ms = 0.0;        ///< server-side submit-to-completion p99
  uint64_t ok = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t rejected = 0;
  ServerStats stats;
};

}  // namespace

int main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  SyntheticConfig config;
  config.num_states = flags.GetInt("states", 8000);
  config.num_objects = flags.GetInt("objects", 32);
  config.lifetime = static_cast<Tic>(flags.GetInt("lifetime", 96));
  config.obs_interval = static_cast<Tic>(flags.GetInt("obs_interval", 12));
  config.horizon = static_cast<Tic>(flags.GetInt("horizon", 120));
  config.seed = 11;
  const size_t interval_length = flags.GetInt("interval", 10);
  const size_t num_intervals =
      std::max<size_t>(1, flags.GetInt("intervals", 2));
  const size_t num_worlds = flags.GetInt("worlds", 2000);
  const size_t pool_size = std::max<size_t>(1, flags.GetInt("pool", 48));
  const int threads = flags.GetInt("threads", 1);
  const int lanes = std::max(1, static_cast<int>(flags.GetInt("lanes", 2)));
  const size_t max_batch = flags.GetInt("batch", 16);
  const double delay_ms = flags.GetDouble("delay_ms", 1.0);
  const size_t queue_capacity = flags.GetInt("queue_capacity", 64);
  const double deadline_ms = flags.GetDouble("deadline_ms", 80.0);
  const double seconds_per_point = flags.GetDouble("seconds_per_point", 0.4);
  const std::vector<double> multiples =
      ParseMultiples(flags.GetString("multiples", "0.5,1.0,1.5,2.0"));
  const double min_ratio = flags.GetDouble("min_ratio", 0.8);
  const bool chaos = flags.GetInt("chaos", 0) != 0;
  const std::string chaos_out =
      flags.GetString("chaos_out", "BENCH_overload_chaos.json");
  const std::string json_out =
      flags.GetString("json_out", "BENCH_overload.json");

  PrintConfig(chaos ? "micro_overload: fault-injection chaos smoke"
                    : "micro_overload: open-loop overload sweep",
              flags,
              "states=" + std::to_string(config.num_states) +
                  " objects=" + std::to_string(config.num_objects) +
                  " worlds=" + std::to_string(num_worlds) +
                  " lanes=" + std::to_string(lanes) +
                  " queue_capacity=" + std::to_string(queue_capacity) +
                  " deadline_ms=" + std::to_string(deadline_ms));

  auto world_result = GenerateSyntheticWorld(config);
  UST_CHECK(world_result.ok());
  SyntheticWorld world = world_result.MoveValue();
  TrajectoryDatabase& db = *world.db;
  auto tree = UstTree::Build(db);
  UST_CHECK(tree.ok());

  // The request pool: P∀NN Monte-Carlo specs over a few intervals, pinned
  // to the sampling backend, on the *implicit* fixed-worlds default — the
  // degradable class. Seeds repeat per pool slot, so hot (interval, seed)
  // arena groups form exactly as they would in steady-state serving.
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
  Rng qrng(7);
  std::vector<QuerySpec> pool;
  pool.reserve(pool_size);
  for (size_t i = 0; i < pool_size; ++i) {
    QuerySpec spec;
    spec.kind = QueryKind::kForall;
    spec.q = RandomQueryState(db.space(), qrng);
    spec.T = intervals[i % num_intervals];
    spec.tau = 0.5;
    spec.mc.num_worlds = num_worlds;
    spec.mc.seed = 9000 + (i % 8);  // repeated seeds: arena-able groups
    spec.backend = ExecutorKind::kMonteCarlo;
    pool.push_back(spec);
  }

  const auto make_options = [&](bool compaction) {
    ServerOptions options;
    options.lanes = lanes;
    options.threads = threads;
    options.max_batch_size = max_batch;
    options.max_batch_delay_ms = delay_ms;
    options.queue_capacity = queue_capacity;
    options.arena_min_uses = 1;
    options.compaction = compaction;
    options.compaction_interval_ms = 5.0;
    options.compaction_min_depth = 1;
    return options;
  };

  // ------------------------------------------------------------- chaos mode
  if (chaos) {
    fault::ClearAll();
    fault::FaultSpec stall;
    stall.skip_first = 2;
    stall.max_fires = 4;
    stall.stall_ms = 2.0;
    fault::Arm("lane_stall", stall);
    fault::FaultSpec build_fail;
    build_fail.max_fires = 2;
    fault::Arm("session_build", build_fail);
    fault::FaultSpec compact_fail;
    compact_fail.max_fires = 1;
    fault::Arm("compaction", compact_fail);
    fault::FaultSpec alloc;
    alloc.max_fires = 2;
    fault::Arm("alloc_limit", alloc);
    fault::FaultSpec skew;
    skew.skip_first = 6;
    skew.max_fires = 8;
    skew.skew_ns = 3600LL * 1000 * 1000 * 1000;  // +1h: anything expires
    fault::Arm("deadline_skew", skew);

    uint64_t resolved = 0;
    ServerStats stats;
    {
      QueryServer server(db, &tree.value(), make_options(true));
      // Writes ahead of the burst give the compactor a depth to chase (its
      // first rebuild attempt eats the injected failure).
      for (size_t i = 0; i < 4 && i < db.size(); ++i) {
        const ObjectId id = static_cast<ObjectId>(i);
        UST_CHECK(db.ExtendLifetime(id, db.object(id).last_tic() + 2).ok());
      }
      // Concurrent burst: every request carries a (huge) deadline, so every
      // deadline_skew fire that lands on a batch or morsel expires real
      // work; session_build fires fail whole groups; alloc_limit fires on
      // the arena path; lane_stall delays lanes under the burst.
      const int chaos_clients = 4;
      const size_t per_client = 40;
      std::vector<std::future<QueryOutcome>> futures(chaos_clients *
                                                     per_client);
      std::vector<std::thread> clients;
      clients.reserve(chaos_clients);
      for (int c = 0; c < chaos_clients; ++c) {
        clients.emplace_back([&, c] {
          for (size_t i = 0; i < per_client; ++i) {
            QuerySpec spec = pool[(c * per_client + i) % pool.size()];
            spec.deadline_ms = 3.6e6;  // 1h: only injected skew expires it
            futures[c * per_client + i] = server.Submit(std::move(spec));
          }
        });
      }
      for (auto& client : clients) client.join();
      // Give the compactor a few poll periods to take the injected failure.
      const auto compact_deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (fault::FireCount("compaction") == 0 &&
             std::chrono::steady_clock::now() < compact_deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      // Stop mid-stream and race a few submits against the drain: they must
      // all resolve deterministically as rejected_draining.
      std::thread stopper([&] { server.Stop(); });
      std::vector<std::future<QueryOutcome>> late(8);
      for (auto& f : late) {
        QuerySpec spec = pool[0];
        spec.deadline_ms = 3.6e6;
        f = server.Submit(std::move(spec));
      }
      stopper.join();
      for (auto& f : futures) {
        f.get();
        ++resolved;
      }
      for (auto& f : late) {
        f.get();
        ++resolved;
      }
      stats = server.Stats();
    }

    // Every armed point must have fired at least once...
    const char* points[] = {"lane_stall", "session_build", "compaction",
                            "alloc_limit", "deadline_skew"};
    for (const char* point : points) {
      std::printf("# fault %-14s probes=%llu fires=%llu\n", point,
                  static_cast<unsigned long long>(fault::ProbeCount(point)),
                  static_cast<unsigned long long>(fault::FireCount(point)));
      UST_CHECK(fault::FireCount(point) >= 1);
    }
    fault::ClearAll();
    // ...no promise may leak (every submitted future resolved above), and
    // the request ledger must reconcile exactly.
    UST_CHECK(resolved == stats.submitted);
    UST_CHECK(stats.submitted == stats.admitted + stats.rejected);
    UST_CHECK(stats.rejected == stats.rejected_queue_full +
                                    stats.rejected_shed +
                                    stats.rejected_draining);
    UST_CHECK(stats.admitted == stats.completed);
    UST_CHECK(stats.expired_in_queue + stats.expired_on_lane >= 1);
    UST_CHECK(stats.cache.build_failures >= 1);
    UST_CHECK(stats.compaction_failures >= 1);

    bench::JsonWriter json;
    json.Add("benchmark", std::string("micro_overload_chaos"));
    json.Add("submitted", static_cast<double>(stats.submitted));
    json.Add("admitted", static_cast<double>(stats.admitted));
    json.Add("completed", static_cast<double>(stats.completed));
    json.Add("rejected_draining", static_cast<double>(stats.rejected_draining));
    json.Add("expired_in_queue", static_cast<double>(stats.expired_in_queue));
    json.Add("expired_on_lane", static_cast<double>(stats.expired_on_lane));
    json.Add("session_build_failures",
             static_cast<double>(stats.cache.build_failures));
    json.Add("compaction_failures",
             static_cast<double>(stats.compaction_failures));
    if (!json.WriteFile(chaos_out)) {
      std::fprintf(stderr, "failed to write %s\n", chaos_out.c_str());
      return 1;
    }
    std::printf("# chaos smoke passed; wrote %s\n", chaos_out.c_str());
    return 0;
  }

  // ------------------------------------------------------- saturation probe
  // Closed-loop warm throughput of this exact server shape: the sweep's
  // offered rates are multiples of it, so "2x" means 2x *this machine's*
  // capacity regardless of how fast it is.
  // A bounded-outstanding closed loop: the window stays under the degrade
  // watermark, so the probe (and each point's cache warm-up) runs at full
  // precision and never trips backpressure or shedding.
  const auto run_closed_loop = [&](QueryServer& server, size_t count,
                                   size_t window) {
    std::deque<std::future<QueryOutcome>> outstanding;
    Timer t;
    size_t next = 0;
    while (next < count || !outstanding.empty()) {
      while (next < count && outstanding.size() < window) {
        outstanding.push_back(server.Submit(pool[next % pool.size()]));
        ++next;
      }
      UST_CHECK(outstanding.front().get().status.ok());
      outstanding.pop_front();
    }
    return t.Seconds();
  };
  const size_t window =
      std::max<size_t>(1, std::min<size_t>(16, queue_capacity / 4));

  double saturation_qps = 0.0;
  {
    QueryServer server(db, &tree.value(), make_options(false));
    run_closed_loop(server, pool.size(), window);  // warm, untimed
    const size_t probe_n = 2 * pool.size();
    saturation_qps = static_cast<double>(probe_n) /
                     run_closed_loop(server, probe_n, window);
  }
  std::printf("# saturation estimate: %.1f qps\n", saturation_qps);
  UST_CHECK(saturation_qps > 0.0);

  // --------------------------------------------------------- open-loop sweep
  std::vector<PointResult> points;
  points.reserve(multiples.size());
  for (size_t point_idx = 0; point_idx < multiples.size(); ++point_idx) {
    const double rate = multiples[point_idx] * saturation_qps;
    const size_t n =
        std::max<size_t>(16, static_cast<size_t>(rate * seconds_per_point));
    // Pre-drawn Poisson schedule (absolute offsets, so submitter lag never
    // compresses later arrivals).
    Rng arrival_rng(101 + point_idx);
    std::vector<double> due_s(n);
    double t_offset = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double u = arrival_rng.Uniform();
      t_offset += -std::log(1.0 - std::min(u, 0.999999)) / rate;
      due_s[i] = t_offset;
    }

    PointResult point;
    point.offered_qps = rate;
    {
      QueryServer server(db, &tree.value(), make_options(false));
      // Warm the cache outside the measured window (steady-state serving).
      run_closed_loop(server, pool.size(), window);

      std::vector<std::future<QueryOutcome>> futures(n);
      Timer t;
      const auto start = std::chrono::steady_clock::now();
      for (size_t i = 0; i < n; ++i) {
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(due_s[i])));
        QuerySpec spec = pool[i % pool.size()];
        spec.deadline_ms = deadline_ms;
        futures[i] = server.Submit(std::move(spec));
      }
      for (auto& f : futures) {
        const QueryOutcome outcome = f.get();
        if (outcome.status.ok()) {
          ++point.ok;
        } else if (outcome.status.code() == StatusCode::kDeadlineExceeded) {
          ++point.deadline_exceeded;
        } else {
          ++point.rejected;
        }
      }
      const double elapsed = t.Seconds();
      point.goodput_qps = static_cast<double>(point.ok) / elapsed;
      server.Stop();
      point.stats = server.Stats();
      point.p99_ms = point.stats.latency_micros.Quantile(0.99) / 1000.0;
      // The warm-up rode through the same server: subtract it from nothing —
      // it completed before the window and only shifts counters, which the
      // ledger check below accounts for.
      UST_CHECK(point.stats.submitted ==
                point.stats.admitted + point.stats.rejected);
      UST_CHECK(point.stats.rejected == point.stats.rejected_queue_full +
                                            point.stats.rejected_shed +
                                            point.stats.rejected_draining);
      UST_CHECK(point.stats.admitted == point.stats.completed);
    }
    std::printf(
        "# x%.2f offered=%.1f qps -> goodput=%.1f qps ok=%llu expired=%llu "
        "rejected=%llu degraded=%llu p99=%.2fms regime=%zu\n",
        multiples[point_idx], point.offered_qps, point.goodput_qps,
        static_cast<unsigned long long>(point.ok),
        static_cast<unsigned long long>(point.deadline_exceeded),
        static_cast<unsigned long long>(point.rejected),
        static_cast<unsigned long long>(point.stats.degraded_requests),
        point.p99_ms, point.stats.overload_regime);
    points.push_back(std::move(point));
  }

  double peak_goodput = 0.0;
  for (const PointResult& point : points) {
    peak_goodput = std::max(peak_goodput, point.goodput_qps);
  }
  const PointResult& saturated = points.back();
  const double goodput_saturated_ratio =
      peak_goodput > 0.0 ? saturated.goodput_qps / peak_goodput : 0.0;

  CsvTable table({"multiple", "offered_qps", "goodput_qps", "ok", "expired",
                  "rejected", "degraded", "p99_ms"});
  for (size_t i = 0; i < points.size(); ++i) {
    const PointResult& point = points[i];
    table.AddRow({std::to_string(multiples[i]),
                  std::to_string(point.offered_qps),
                  std::to_string(point.goodput_qps), std::to_string(point.ok),
                  std::to_string(point.deadline_exceeded),
                  std::to_string(point.rejected),
                  std::to_string(point.stats.degraded_requests),
                  std::to_string(point.p99_ms)});
  }
  table.Print(std::cout, "micro_overload sweep");
  std::printf("# peak=%.1f qps saturated=%.1f qps ratio=%.3f\n", peak_goodput,
              saturated.goodput_qps, goodput_saturated_ratio);

  bench::JsonWriter json;
  json.Add("benchmark", std::string("micro_overload"));
  json.AddHardwareShape();
  json.Add("num_states", static_cast<double>(config.num_states));
  json.Add("num_objects", static_cast<double>(config.num_objects));
  json.Add("num_worlds", static_cast<double>(num_worlds));
  json.Add("pool", static_cast<double>(pool_size));
  json.Add("num_intervals", static_cast<double>(num_intervals));
  json.Add("threads", static_cast<double>(threads));
  json.Add("lanes", static_cast<double>(lanes));
  json.Add("max_batch_size", static_cast<double>(max_batch));
  json.Add("max_batch_delay_ms", delay_ms);
  json.Add("queue_capacity", static_cast<double>(queue_capacity));
  json.Add("deadline_ms", deadline_ms);
  json.Add("seconds_per_point", seconds_per_point);
  json.Add("num_multiples", static_cast<double>(multiples.size()));
  json.Add("max_multiple", multiples.back());
  json.Add("saturation_qps", saturation_qps);
  json.Add("peak_goodput_qps", peak_goodput);
  json.Add("goodput_saturated_qps", saturated.goodput_qps);
  json.Add("goodput_saturated_ratio", goodput_saturated_ratio);
  json.Add("p99_overload_ms", saturated.p99_ms);
  json.Add("expired_total",
           static_cast<double>(saturated.stats.expired_in_queue +
                               saturated.stats.expired_on_lane));
  json.Add("shed_total", static_cast<double>(saturated.stats.rejected_shed));
  json.Add("degraded_total",
           static_cast<double>(saturated.stats.degraded_requests));
  if (!json.WriteFile(json_out)) {
    std::fprintf(stderr, "failed to write %s\n", json_out.c_str());
    return 1;
  }
  std::printf("# wrote %s\n", json_out.c_str());

  // The headline robustness gate, in-binary so a collapse fails loudly even
  // without the check_bench band: goodput past saturation stays flat.
  UST_CHECK(goodput_saturated_ratio >= min_ratio);
  return 0;
}
