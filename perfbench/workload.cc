#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common.h"
#include "gen/workload.h"
#include "util/rng.h"

namespace perfbench {

using namespace ust;

void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

Workload Workload::Named(const std::string& name) {
  // Rates and latency limits are constants of this commit, never derived
  // from the run under test; perfbench/workloads.json gives their basis.
  Workload w;
  w.name = name;
  if (name == "hot_open") {
    w.windows = 4;  // fit the session cache
    w.adaptive_share = 0.5;
    w.zipf = 1.5;
    w.seed_keys = 2;
    w.key_period = 200;
    w.nominal_qps = 1900;
    w.nominal_share = 0.3;  // 25650 requests in a 45 s run
    w.slo_p99_ms = 200;
    w.ladder_min_qps = 2000;
  } else if (name == "ingest_churn") {
    w.windows = 24;  // 3x the session cache
    w.short_windows = 1;
    w.write_ms = 500;
    w.nominal_qps = 230;
    w.nominal_share = 0.6;  // 6200 requests in a 45 s run
    w.slo_p99_ms = 250;
    w.ladder_min_qps = 200;
  } else {
    Die("unknown workload '" + name +
        "' (have hot_open, ingest_churn)");
  }
  return w;
}

double Workload::rung(double k) const {
  return ladder_min_qps * std::pow(kLadderRatio, k);
}

World BuildWorld(const Workload& w) {
  SyntheticConfig config;
  config.num_states = kStates;
  config.num_objects = kObjects;
  config.lifetime = kLifetime;
  config.obs_interval = kObsInterval;
  config.horizon = kHorizon;
  config.seed = kWorldSeed;
  World world;
  auto synthetic = GenerateSyntheticWorld(config);
  if (!synthetic.ok()) Die("world generation failed");
  world.synthetic = synthetic.MoveValue();
  const Clock::time_point t1 = Clock::now();
  const DbSnapshot snapshot = world.synthetic.db->Snapshot();
  auto tree = UstTree::Build(snapshot);
  if (!tree.ok()) Die("UstTree::Build failed");
  world.tree = std::make_unique<UstTree>(tree.MoveValue());
  const Clock::time_point t2 = Clock::now();
  {
    // The paper's TS phase: adapt every posterior and warm every sampler,
    // so the served window measures serving, not first-touch adaptation.
    SessionOptions options;
    options.threads = kLanes * kThreads;
    QuerySession session(snapshot, world.tree.get(), options);
    if (!session.Prepare().ok()) Die("posterior adaptation failed");
  }
  const Clock::time_point t3 = Clock::now();
  world.build_s = SecondsBetween(t1, t2);
  world.adapt_s = SecondsBetween(t2, t3);

  // Windows sit in the populated middle of the horizon; the first
  // `short_windows` are 2-4 tics long (exact-enumeration territory).
  Rng rng(kWorldSeed * 7919 + 1);
  const Tic lo = kHorizon / 4;
  const Tic hi = 3 * kHorizon / 4;
  while (world.windows.size() < w.windows) {
    const size_t i = world.windows.size();
    const Tic len = i < w.short_windows
                        ? static_cast<Tic>(2 + rng.UniformInt(3))
                        : kWindowLen;
    const Tic start =
        lo + static_cast<Tic>(rng.UniformInt(static_cast<uint64_t>(hi - lo)));
    const TimeInterval T{start, start + len - 1};
    if (std::find(world.windows.begin(), world.windows.end(), T) ==
        world.windows.end()) {
      world.windows.push_back(T);
    }
  }
  for (size_t i = 0; i < snapshot.size(); ++i) {
    world.write_tic =
        std::max(world.write_tic, snapshot.object(static_cast<ObjectId>(i))
                                      .last_tic());
  }
  for (const TimeInterval& T : world.windows) {
    world.write_tic = std::max(world.write_tic, T.end);
  }
  world.write_tic += 1;
  return world;
}

std::vector<QuerySpec> MakePool(const Workload& w, const World& world,
                                uint64_t seed, size_t n) {
  const size_t num_windows = world.windows.size();
  // Zipf over (window, seed key) pairs, ranked so consecutive ranks cycle
  // through the windows: rank r -> window r % W, key r / W.
  std::vector<double> cdf;
  if (w.zipf > 0.0) {
    const size_t keys = num_windows * w.seed_keys;
    double total = 0.0;
    for (size_t r = 0; r < keys; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), w.zipf);
      cdf.push_back(total);
    }
    for (double& c : cdf) c /= total;
  }
  // The request mix is a catalog of (kind, query state, window rank,
  // precision) entries drawn once from the world seed. A few entries cost
  // ~100x the median (exact enumerations of up to ~0.2 s) and set the tail;
  // drawing the mix per request would put a seed-dependent number of them
  // into a window. --seed instead orders the catalog afresh every kCatalog
  // requests and picks every Monte-Carlo seed, so any kCatalog consecutive
  // requests of any seed carry the same mix.
  struct Entry {
    QueryKind kind;
    QueryTrajectory q;
    size_t rank;
    PrecisionMode mode;
  };
  Rng mix(kWorldSeed * 0x9e3779b97f4a7c15ULL + 3);
  std::vector<Entry> catalog;
  catalog.reserve(kCatalog);
  for (size_t c = 0; c < kCatalog; ++c) {
    Entry e{QueryKind::kForall, {}, 0, PrecisionMode::kFixedWorlds};
    const double kind = mix.Uniform();
    if (kind < kPcnnShare) {
      e.kind = QueryKind::kContinuous;
    } else if (kind >= kPcnnShare + (1.0 - kPcnnShare) / 2.0) {
      e.kind = QueryKind::kExists;
    }
    e.q = RandomQueryState(world.synthetic.db->space(), mix);
    e.rank = cdf.empty()
                 ? static_cast<size_t>(mix.UniformInt(num_windows))
                 : static_cast<size_t>(
                       std::lower_bound(cdf.begin(), cdf.end(), mix.Uniform()) -
                       cdf.begin());
    if (e.kind != QueryKind::kContinuous && mix.Uniform() < w.adaptive_share) {
      e.mode = mix.Bernoulli(0.5) ? PrecisionMode::kThreshold
                                  : PrecisionMode::kEpsilon;
    }
    catalog.push_back(std::move(e));
  }

  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 5);
  std::vector<size_t> order(kCatalog);
  std::vector<QuerySpec> pool;
  pool.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (i % kCatalog == 0) {
      for (size_t c = 0; c < kCatalog; ++c) order[c] = c;
      for (size_t c = kCatalog - 1; c > 0; --c) {
        std::swap(order[c], order[rng.UniformInt(c + 1)]);
      }
    }
    const Entry& e = catalog[order[i % kCatalog]];
    QuerySpec spec;
    spec.kind = e.kind;
    spec.q = e.q;
    spec.T = world.windows[e.rank % num_windows];
    if (cdf.empty()) {
      spec.mc.seed = (seed << 24) + i;  // unique per request
    } else {
      // Keys are renewed every key_period requests, so arena builds recur
      // at a steady rate instead of only at start-up.
      const size_t generation = w.key_period > 0 ? i / w.key_period : 0;
      spec.mc.seed = (seed << 24) + (1u << 20) + generation * 4096 +
                     e.rank / num_windows;
    }
    spec.tau = spec.kind == QueryKind::kContinuous ? kPcnnTau : kTau;
    spec.mc.num_worlds = kNumWorlds;
    if (e.mode != PrecisionMode::kFixedWorlds) {
      spec.precision.mode = e.mode;
      spec.precision.epsilon = 0.05;
      spec.precision.delta = 0.05;
    }
    pool.push_back(std::move(spec));
  }
  return pool;
}

std::vector<double> PoissonArrivals(double rate, size_t n, uint64_t seed) {
  Rng rng(seed * 0xbf58476d1ce4e5b9ULL + 11);
  std::vector<double> at(n);
  double t = 0.0;
  for (size_t i = 0; i < n; ++i) {
    t += -std::log(1.0 - rng.Uniform()) / rate;
    at[i] = t;
  }
  return at;
}

WriteSchedule::WriteSchedule(const World& world, uint64_t seed)
    : world_(&world), seed_(seed) {}

double WriteSchedule::ApplyNext(TrajectoryDatabase& db) {
  // Every third write extends an object this schedule appended earlier;
  // the others append a one-observation object past every query window.
  Rng rng(seed_ * 0x94d049bb133111ebULL + next_);
  const size_t k = next_++;
  const Clock::time_point start = Clock::now();
  if (k % 3 == 2 && !appended_.empty()) {
    const size_t pick = rng.UniformInt(appended_.size());
    appended_end_[pick] += 3;
    if (!db.ExtendLifetime(appended_[pick], appended_end_[pick]).ok()) {
      Die("ExtendLifetime refused");
    }
  } else {
    const Tic tic = world_->write_tic + static_cast<Tic>(k % 16);
    const StateId state = static_cast<StateId>(
        rng.UniformInt(world_->synthetic.space->size()));
    auto obs = ObservationSeq::Create({Observation{tic, state}});
    if (!obs.ok()) Die("observation rejected");
    const ObjectId id =
        db.AddObject(obs.MoveValue(), world_->synthetic.matrix, tic + 4);
    appended_.push_back(id);
    appended_end_.push_back(tic + 4);
  }
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

bool SameAnswer(const QueryOutcome& a, const QueryOutcome& b) {
  if (a.status.ok() != b.status.ok() || a.kind != b.kind ||
      a.executor != b.executor) {
    return false;
  }
  const auto& ra = a.pnn.results;
  const auto& rb = b.pnn.results;
  if (ra.size() != rb.size()) return false;
  for (size_t i = 0; i < ra.size(); ++i) {
    if (ra[i].object != rb[i].object || ra[i].prob != rb[i].prob) return false;
  }
  const auto& pa = a.pcnn.pcnn.entries;
  const auto& pb = b.pcnn.pcnn.entries;
  if (pa.size() != pb.size()) return false;
  for (size_t i = 0; i < pa.size(); ++i) {
    if (pa[i].object != pb[i].object || pa[i].tics != pb[i].tics ||
        pa[i].prob != pb[i].prob) {
      return false;
    }
  }
  return true;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t i = static_cast<size_t>(pos);
  if (i + 1 >= values.size()) return values.back();
  const double frac = pos - static_cast<double>(i);
  if (frac == 0.0 || values[i + 1] == values[i]) return values[i];
  if (std::isinf(values[i + 1])) return values[i + 1];  // failed requests
  return values[i] + frac * (values[i + 1] - values[i]);
}

}  // namespace perfbench
