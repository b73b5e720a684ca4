// Shared pieces of the served-latency benchmark (perfbench/loadgen.cc):
// workload parameters, world and request-pool generation, the write
// schedule of the ingest workload, bitwise answer comparison, and the
// traced layer replay (perfbench/replay.cc).
//
// Every input is a pure function of the workload parameters and the
// workload seed: the world comes from the workload's fixed world seed, the
// request stream (query states, intervals, Monte-Carlo seeds, precision
// modes, arrival times) from --seed. The program under test only ever sees
// the generated QuerySpecs and writes.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gen/synthetic.h"
#include "index/ust_tree.h"
#include "query/session.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady_clock points.
inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- Constants shared by every workload. ----
// World: the defaults of the paper's synthetic experiments (Section 7) as
// bench/fig07_branching.cc encodes them (b = 8, |D| = 400 objects, lifetime
// 100, one observation every 10 tics, horizon 1000, world seed 7, query
// intervals of 10 tics, 1000 sampled worlds), except N = 10000 states, the
// first point of the Figure 6 sweep (bench/fig06_states.cc). At the figure
// default of 50000 states each write costs every stale session a ~45 ms
// UstDelta::Build, and ingest_churn saturates below 100 requests/s.
constexpr size_t kStates = 10000;
constexpr size_t kObjects = 400;
constexpr int kLifetime = 100;
constexpr int kObsInterval = 10;
constexpr ust::Tic kHorizon = 1000;
constexpr uint64_t kWorldSeed = 7;
constexpr ust::Tic kWindowLen = 10;
constexpr size_t kNumWorlds = 1000;  ///< also the cap of adaptive specs
// Thresholds: PCNN's tau is the Figure 13 default (bench/fig13_pcnn_objects.cc);
// the P-forall/P-exists tau is an assumption (the paper's PNN figures report
// every object), low enough that most queries return results.
constexpr double kTau = 0.1;
constexpr double kPcnnTau = 0.5;
constexpr double kPcnnShare = 0.05;  ///< assumption: "a small PCNN share"
// Serving: 3 lanes x 1 thread + the generator thread = 4 hardware threads
// (ingest_churn's compactor competes with them); the session cache keeps
// ServerOptions' default capacity.
constexpr int kLanes = 3;
constexpr int kThreads = 1;
constexpr size_t kCacheCapacity = 8;
// Capacity ladder: 32 geometric rungs 4% apart from the workload's lowest
// rate. Three bisection probes bracket capacity within four rungs; four
// staircase probes then locate it (a one-probe flip moves max_qps_at_slo
// by a quarter rung, 1%).
constexpr double kLadderRatio = 1.04;
constexpr size_t kLadderRungs = 32;
constexpr size_t kBracketProbes = 3;
constexpr size_t kStaircaseProbes = 4;
constexpr size_t kSetups = 3;  ///< set-ups timed per run (median reported)
/// Entries of the fixed request-mix catalog (see MakePool).
constexpr size_t kCatalog = 1000;
/// Traced runs fail unless the replayed layer spans sum to query.run_us, and
/// the serving stages to the client-observed latency, within this share.
constexpr double kAccountingTolerance = 0.1;

/// \brief What differs between workloads (the table is in workload.cc; the
/// reasons and each ROADMAP lever's predicted effect are in
/// perfbench/workloads.json).
struct Workload {
  std::string name;
  size_t windows = 0;        ///< distinct query intervals
  size_t short_windows = 0;  ///< of which this many are 2-4 tics long
  double adaptive_share = 0; ///< threshold or epsilon precision share
  /// 0: every request has its own Monte-Carlo seed and intervals are drawn
  /// uniformly. > 0: (interval, seed) keys are Zipf-skewed with this
  /// exponent over `seed_keys` seeds per interval, renewed every
  /// `key_period` requests.
  double zipf = 0;
  size_t seed_keys = 1;
  size_t key_period = 0;
  /// One write every write_ms on the generator thread (0: none), with
  /// server compaction on.
  double write_ms = 0;
  double nominal_qps = 0;     ///< rate of the latency window
  /// Share of the run in the latency window (the capacity probes get the
  /// rest): enough for several p99 segments of 1000 requests at the rate.
  double nominal_share = 0;
  double slo_p99_ms = 0;      ///< latency limit of the capacity search
  double ladder_min_qps = 0;  ///< lowest rung of the capacity ladder

  bool writes() const { return write_ms > 0; }
  /// Rate of ladder rung `k` (fractional between rungs).
  double rung(double k) const;

  /// The workload called `name`; exits with code 2 when there is none.
  static Workload Named(const std::string& name);
};

/// \brief A generated world with its index: what set-up produces.
struct World {
  ust::SyntheticWorld synthetic;
  std::unique_ptr<ust::UstTree> tree;
  /// Query intervals; under Zipf keys, popularity falls with the index.
  std::vector<ust::TimeInterval> windows;
  ust::Tic write_tic = 0;  ///< first tic after every window (ingest writes)
  // Timings of the set-up steps, seconds.
  double build_s = 0.0;
  double adapt_s = 0.0;
};

/// Generate the world, build the UST-tree and adapt every posterior on the
/// server's worker count. Aborts on failure (fixed inputs must build).
World BuildWorld(const Workload& w);

/// The first `n` requests of `w` under `seed`: the world's fixed request mix
/// in a seed-dependent order with seed-dependent Monte-Carlo seeds. Request
/// i does not depend on `n`, so a longer pool extends a shorter one.
std::vector<ust::QuerySpec> MakePool(const Workload& w, const World& world,
                                     uint64_t seed, size_t n);

/// Poisson arrival offsets (seconds from phase start) of `n` requests.
std::vector<double> PoissonArrivals(double rate, size_t n, uint64_t seed);

/// \brief The ingest workload's writes: appended objects and lifetime
/// extensions of earlier appended objects, all alive only after every query
/// window, so no answer changes at any epoch.
class WriteSchedule {
 public:
  WriteSchedule(const World& world, uint64_t seed);
  /// Apply write number `next()` to `db`; returns the call's duration in
  /// microseconds. Aborts if the database refuses it.
  double ApplyNext(ust::TrajectoryDatabase& db);
  size_t next() const { return next_; }

 private:
  const World* world_;
  uint64_t seed_;
  size_t next_ = 0;
  std::vector<ust::ObjectId> appended_;
  std::vector<ust::Tic> appended_end_;
};

/// Print `what` to stderr and exit with code 2 (invalid inputs or a failed
/// set-up step; never used for a wrong answer, which exits 1).
[[noreturn]] void Die(const std::string& what);

/// True when `a` and `b` carry the same answer bit for bit: status, kind,
/// backend, result objects and probabilities (PCNN: timestamp sets too).
bool SameAnswer(const ust::QueryOutcome& a, const ust::QueryOutcome& b);

/// Nearest-rank-interpolated quantile of `values` (sorted copy); 0 if empty.
double Quantile(std::vector<double> values, double q);

/// \brief One served request as the traced run replays it.
struct ServedRequest {
  size_t pool_index = 0;
  size_t writes_before = 0;  ///< writes applied when it was sent
  ust::QueryOutcome outcome;
};

/// Per-layer numbers of the replay: metric name -> (value, unit).
using LayerMetrics = std::map<std::string, std::pair<double, std::string>>;

/// Replay every served request through the public entry points of the
/// index and query layers, one span per call, on a fresh copy of the world
/// (writes re-applied at the epochs the requests saw). Aborts when a
/// replayed answer differs from the served one. Fills query.*, index.* and
/// model.* layer metrics plus bench.replay_accounting (span sum over
/// query.run_us).
LayerMetrics ReplayLayers(const Workload& w, uint64_t seed,
                          const std::vector<ust::QuerySpec>& pool,
                          const std::vector<ServedRequest>& served);

}  // namespace perfbench
