// Microbenchmark of the Monte-Carlo hot path: posterior adaptation,
// forward propagation, trajectory sampling and full possible-world drawing
// (the inner loops of ComputeNnTable / EstimatePnn).
//
// Standalone harness (no google-benchmark): prints a CSV summary and emits
// BENCH_sampling.json so the perf trajectory of this code is tracked
// machine-readably across PRs.
//
// Flags (defaults = the workload perf targets are quoted against):
//   --states=20000 --objects=64 --lifetime=96 --obs_interval=12
//   --horizon=120 --interval=10 --worlds=1000 --world_rounds=3
//   --threads=1 --json_out=BENCH_sampling.json
//
// --threads=N shards the adaptation over objects and the world loop over
// fixed 512-world chunks; results are bit-identical at any thread count
// (DESIGN.md section 4), so the metric stays comparable across N.
#include <cstdio>
#include <string>

#include "bench_common.h"
#include "bench_json.h"
#include "gen/synthetic.h"
#include "gen/workload.h"
#include "model/adaptation.h"
#include "query/monte_carlo.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace ust;
using namespace ust::bench;

int main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  SyntheticConfig config;
  config.num_states = flags.GetInt("states", 20000);
  config.num_objects = flags.GetInt("objects", 64);
  config.lifetime = static_cast<Tic>(flags.GetInt("lifetime", 96));
  config.obs_interval = static_cast<Tic>(flags.GetInt("obs_interval", 12));
  config.horizon = static_cast<Tic>(flags.GetInt("horizon", 120));
  config.seed = 6;
  const size_t interval_length = flags.GetInt("interval", 10);
  const size_t num_worlds = flags.GetInt("worlds", 1000);
  const size_t world_rounds = flags.GetInt("world_rounds", 3);
  const int threads = flags.GetInt("threads", 1);
  const std::string json_out =
      flags.GetString("json_out", "BENCH_sampling.json");
  ThreadPool pool(threads);

  PrintConfig("micro_sampling: Monte-Carlo hot path", flags,
              "states=" + std::to_string(config.num_states) +
                  " objects=" + std::to_string(config.num_objects) +
                  " worlds=" + std::to_string(num_worlds));

  auto world_result = GenerateSyntheticWorld(config);
  UST_CHECK(world_result.ok());
  SyntheticWorld world = world_result.MoveValue();
  TrajectoryDatabase& db = *world.db;

  // ---- Adaptation: posterior construction for the whole database. ----
  db.InvalidatePosteriors();
  Timer adapt_timer;
  UST_CHECK(db.EnsureAllPosteriors(&pool).ok());
  const double adapt_seconds = adapt_timer.Seconds();

  // ---- Propagation: forward-filter marginals (the per-tic propagate). ----
  double propagate_seconds = 0.0;
  {
    Timer t;
    for (ObjectId id = 0; id < db.size(); ++id) {
      const UncertainObject& obj = db.object(id);
      auto marginals = ForwardFilterMarginals(obj.matrix(), obj.observations());
      UST_CHECK(marginals.ok());
    }
    propagate_seconds = t.Seconds();
  }

  // ---- Trajectory sampling throughput (single object, full span). ----
  const TimeInterval T = BusiestInterval(db, interval_length);
  double trajectories_per_second = 0.0;
  {
    auto alive = db.AliveThroughout(T.start, T.end);
    UST_CHECK(!alive.empty());
    auto posterior = db.object(alive[0]).Posterior();
    UST_CHECK(posterior.ok());
    Rng rng(2);
    const size_t reps = 20000;
    Timer t;
    for (size_t i = 0; i < reps; ++i) {
      auto traj = posterior.value()->SampleWindow(T.start, T.end, rng);
      UST_CHECK(traj.ok());
    }
    trajectories_per_second = static_cast<double>(reps) / t.Seconds();
  }

  // ---- Worlds/sec: the ComputeNnTable inner loop. ----
  auto ids = db.AliveSometime(T.start, T.end);
  UST_CHECK(!ids.empty());
  Rng qrng(3);
  QueryTrajectory q = RandomQueryState(db.space(), qrng);
  MonteCarloOptions options;
  options.num_worlds = num_worlds;
  double worlds_per_second = 0.0;
  {
    // Warmup: builds the per-posterior alias tables (amortized across all
    // queries in real use, so kept outside the timed rounds).
    MonteCarloOptions warmup = options;
    warmup.num_worlds = 10;
    UST_CHECK(ComputeNnTable(db, ids, q, T, warmup).ok());
    Timer t;
    for (size_t round = 0; round < world_rounds; ++round) {
      options.seed = 42 + round;
      auto table = ComputeNnTable(db, ids, q, T, options, &pool);
      UST_CHECK(table.ok());
    }
    worlds_per_second =
        static_cast<double>(num_worlds * world_rounds) / t.Seconds();
  }

  CsvTable table({"metric", "value"});
  table.AddRow({"adapt_seconds", std::to_string(adapt_seconds)});
  table.AddRow({"propagate_seconds", std::to_string(propagate_seconds)});
  table.AddRow(
      {"trajectories_per_second", std::to_string(trajectories_per_second)});
  table.AddRow({"worlds_per_second", std::to_string(worlds_per_second)});
  table.Print(std::cout, "micro_sampling results");

  bench::JsonWriter json;
  json.Add("benchmark", std::string("micro_sampling"));
  json.AddHardwareShape();
  json.Add("num_states", static_cast<double>(config.num_states));
  json.Add("num_objects", static_cast<double>(config.num_objects));
  json.Add("num_worlds", static_cast<double>(num_worlds));
  json.Add("num_participants", static_cast<double>(ids.size()));
  json.Add("interval_length", static_cast<double>(interval_length));
  json.Add("threads", static_cast<double>(threads));
  json.Add("adapt_seconds", adapt_seconds);
  json.Add("propagate_seconds", propagate_seconds);
  json.Add("trajectories_per_second", trajectories_per_second);
  json.Add("worlds_per_second", worlds_per_second);
  if (!json.WriteFile(json_out)) {
    std::fprintf(stderr, "failed to write %s\n", json_out.c_str());
    return 1;
  }
  std::printf("# wrote %s\n", json_out.c_str());
  return 0;
}
