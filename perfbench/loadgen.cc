// Open-loop served-latency benchmark of the serving tier.
//
//   loadgen --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The workloads are the table in perfbench/workload.cc; the constants they
// share are in perfbench/common.h.
//
// One generator thread drives a QueryServer on an absolute Poisson schedule
// derived from --seed, timing each request from when it was *due* (so a
// stall charges every request queued behind it), and checks every answer
// bit for bit against a serial QuerySession reference computed before the
// timed window. Threads: lanes x threads server workers plus the generator.
//
// --trace 0 (the measured run) reports the end-to-end metrics:
//   setup_s        median of kSetups set-ups (world generation, UstTree
//                  build, posterior adaptation, server start, session
//                  warm-up) before the first scheduled request;
//   p50_ms/p99_ms  latency at the workload's fixed nominal rate (p99: the
//                  median of the p99s of up to ten consecutive segments of
//                  >= 1000 requests, so one burst of interference from
//                  outside the process cannot set it);
//   max_qps_at_slo the rate on a fixed geometric ladder (rungs 4% apart)
//                  at which a probe passes half the time: p99 within the
//                  workload's latency limit, no failed request and no
//                  backlog growth (bracketed by bisection, then tracked by
//                  an up-down staircase);
//   error_frac     one-sided 95% upper confidence bound (Wilson) on the
//                  failed share at the nominal rate, so it reads > 0 even
//                  with no failure and rises with the first one;
//   peak_rss_mb    peak resident memory of this process.
// --trace 1 (the traced run) serves the same nominal phase, reads the
// server's own counters, serves it again with the server's tracer on to
// split latency into serving stages, and replays every request through the
// index and query layers one call at a time (perfbench/replay.cc).
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// A wrong answer or a broken request ledger prints correct=false and exits
// 1. A generator that fell behind its schedule invalidates the run: exit 3,
// no result line. Bad input, a failed set-up step, or a layer replay that
// no longer mirrors the program exits 2.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common.h"
#include "server/query_server.h"
#include "util/flags.h"
#include "util/simd.h"
#include "util/stats.h"
#include "util/trace.h"

using namespace ust;
using namespace perfbench;

namespace {

// A run whose generator sent its p99 request later than this after it was
// due did not deliver the schedule it reports on.
constexpr double kMaxGenLateP99Ms = 10.0;

/// Everything one open-loop phase observed.
struct Phase {
  size_t attempted = 0;
  size_t ok = 0;
  size_t rejected = 0;
  size_t expired = 0;
  size_t other_error = 0;
  size_t mismatched = 0;
  size_t degraded = 0;
  bool correct = true;    ///< answers and ledger check out
  bool aborted = false;   ///< stopped sending: backlog beyond any SLO
  std::vector<double> in_flight;   ///< outstanding requests at each send
  double send_s = 0.0;    ///< schedule length actually sent
  std::vector<double> latency_ms;  ///< due -> completion; inf when failed
  std::vector<double> late_ms;     ///< due -> Submit
  std::vector<double> sent_s;      ///< Submit, seconds from phase start
  std::vector<double> done_s;      ///< completion seen, same origin
  std::vector<double> write_us;
  std::vector<ServedRequest> served;  ///< recorded on request
  ServerStats before, after;

  size_t failed() const {
    return rejected + expired + other_error + std::max(mismatched, degraded);
  }
};

ServerOptions MakeServerOptions(const Workload& w, bool trace) {
  ServerOptions options;
  options.lanes = kLanes;
  options.threads = kThreads;
  options.session_cache_capacity = kCacheCapacity;
  options.compaction = w.writes();
  options.trace = trace;
  return options;
}

/// Start a server over `world` and warm one session per cached window.
std::unique_ptr<QueryServer> StartServer(const Workload& w, const World& world,
                                         bool trace) {
  auto server = std::make_unique<QueryServer>(
      *world.synthetic.db, world.tree.get(), MakeServerOptions(w, trace));
  std::vector<std::future<QueryOutcome>> warm;
  const size_t n = std::min(world.windows.size(), kCacheCapacity);
  for (size_t i = 0; i < n; ++i) {
    QuerySpec spec;
    spec.kind = QueryKind::kForall;
    spec.q = QueryTrajectory::FromPoint(
        world.synthetic.space->coord(static_cast<StateId>(i)));
    spec.T = world.windows[i];
    spec.mc.num_worlds = kNumWorlds;
    spec.mc.seed = (uint64_t{1} << 62) + i;  // outside every request's keys
    warm.push_back(server->Submit(spec));
  }
  for (auto& f : warm) {
    if (!f.get().status.ok()) Die("warm-up request failed");
  }
  return server;
}

/// Serial references: one single-threaded, arena-free QuerySession per
/// worker thread, each Run()ning its share of the pool.
std::vector<QueryOutcome> ComputeReference(const World& world,
                                           const std::vector<QuerySpec>& pool,
                                           int workers) {
  std::vector<QueryOutcome> refs(pool.size());
  const DbSnapshot snapshot = world.synthetic.db->Snapshot();
  SessionOptions options;
  options.threads = 1;
  options.arena_min_uses = 0;
  std::vector<std::unique_ptr<QuerySession>> sessions;
  for (int t = 0; t < workers; ++t) {
    sessions.push_back(std::make_unique<QuerySession>(
        snapshot, world.tree.get(), options));
    if (!sessions.back()->Prepare().ok()) Die("reference prepare failed");
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < workers; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = static_cast<size_t>(t); i < pool.size();
           i += static_cast<size_t>(workers)) {
        refs[i] = sessions[static_cast<size_t>(t)]->Run(pool[i]);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (const QueryOutcome& r : refs) {
    if (!r.status.ok()) Die("reference failed: " + r.status.ToString());
  }
  return refs;
}

/// Send pool[0, n) at Poisson rate `rate` for `duration_s` seconds (n is the
/// arrival count of the window) on the generator thread, polling
/// completions between sends; applies a write every w.write_ms when enabled.
/// `abort_in_flight` > 0 stops sending once that many requests are
/// outstanding (a probe that is certainly over capacity).
Phase RunPhase(QueryServer& server, const Workload& w, World& world,
               const std::vector<QuerySpec>& pool,
               const std::vector<QueryOutcome>& refs, double rate,
               double duration_s, uint64_t arrival_seed, double deadline_ms,
               size_t abort_in_flight, WriteSchedule* writes, bool record) {
  Phase phase;
  phase.before = server.Stats();
  // Every arrival of the window, each with its own pool entry.
  std::vector<double> arrivals =
      PoissonArrivals(rate, pool.size(), arrival_seed);
  const size_t n = static_cast<size_t>(
      std::lower_bound(arrivals.begin(), arrivals.end(), duration_s) -
      arrivals.begin());
  if (n == pool.size()) Die("request pool smaller than one window");
  arrivals.resize(n);
  struct Pending {
    size_t i;
    std::future<QueryOutcome> future;
  };
  std::vector<Pending> pending;
  phase.latency_ms.assign(n, 0.0);
  phase.late_ms.assign(n, 0.0);
  phase.sent_s.assign(n, 0.0);
  phase.done_s.assign(n, 0.0);
  if (record) phase.served.resize(n);
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  const auto due_at = [&](size_t i) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(arrivals[i]));
  };
  const bool writing = writes != nullptr && w.writes();
  size_t phase_writes = 0;
  const auto next_write_at = [&] {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(
                        w.write_ms * static_cast<double>(phase_writes + 1)));
  };
  const auto poll = [&] {
    for (size_t k = 0; k < pending.size();) {
      if (pending[k].future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++k;
        continue;
      }
      const Clock::time_point now = Clock::now();
      const size_t i = pending[k].i;
      QueryOutcome out = pending[k].future.get();
      phase.done_s[i] = SecondsBetween(t0, now);
      bool good = false;
      if (out.status.ok()) {
        if (SameAnswer(out, refs[i])) {
          good = true;
          ++phase.ok;
        } else {
          ++phase.mismatched;
        }
      } else if (out.status.code() == StatusCode::kResourceLimit) {
        ++phase.rejected;
      } else if (out.status.code() == StatusCode::kDeadlineExceeded) {
        ++phase.expired;
      } else {
        ++phase.other_error;
      }
      phase.latency_ms[i] =
          good ? SecondsBetween(due_at(i), now) * 1e3 : HUGE_VAL;
      if (record) phase.served[i].outcome = std::move(out);
      pending[k] = std::move(pending.back());
      pending.pop_back();
    }
  };
  const auto maybe_write = [&] {
    while (writing && Clock::now() >= next_write_at()) {
      phase.write_us.push_back(writes->ApplyNext(*world.synthetic.db));
      ++phase_writes;
    }
  };
  const auto wait_until = [&](Clock::time_point until) {
    for (;;) {
      maybe_write();
      poll();
      const Clock::time_point now = Clock::now();
      if (now >= until) return;
      Clock::time_point wake = now + std::chrono::microseconds(50);
      if (pending.empty()) wake = until;
      if (writing) wake = std::min(wake, next_write_at());
      std::this_thread::sleep_until(std::min(wake, until));
    }
  };
  size_t sent = 0;
  for (; sent < n; ++sent) {
    const Clock::time_point due = due_at(sent);
    wait_until(due);
    if (abort_in_flight > 0 && pending.size() >= abort_in_flight) {
      phase.aborted = true;
      break;
    }
    QuerySpec spec = pool[sent];
    spec.deadline_ms = deadline_ms;
    const Clock::time_point now = Clock::now();
    phase.late_ms[sent] = SecondsBetween(due, now) * 1e3;
    phase.sent_s[sent] = SecondsBetween(t0, now);
    if (record) {
      phase.served[sent].pool_index = sent;
      phase.served[sent].writes_before = writes ? writes->next() : 0;
    }
    pending.push_back({sent, server.Submit(std::move(spec))});
    phase.in_flight.push_back(static_cast<double>(pending.size()));
  }
  phase.attempted = sent;
  phase.send_s = sent > 0 ? phase.sent_s[sent - 1] : 0.0;
  const Clock::time_point drain_limit = Clock::now() + std::chrono::seconds(60);
  while (!pending.empty()) {
    if (Clock::now() > drain_limit) Die("requests never completed");
    wait_until(Clock::now() + std::chrono::microseconds(50));
  }
  phase.latency_ms.resize(sent);
  phase.late_ms.resize(sent);
  phase.sent_s.resize(sent);
  phase.done_s.resize(sent);
  if (record) phase.served.resize(sent);
  phase.after = server.Stats();
  const ServerStats& a = phase.after;
  const ServerStats& b = phase.before;
  phase.degraded = a.degraded_requests - b.degraded_requests;
  // The request ledger: every Submit admitted or rejected, every admitted
  // request completed, and the server saw exactly what was sent.
  const uint64_t submitted = a.submitted - b.submitted;
  const uint64_t admitted = a.admitted - b.admitted;
  const uint64_t rejected = a.rejected - b.rejected;
  const uint64_t completed = a.completed - b.completed;
  if (submitted != sent || submitted != admitted + rejected ||
      admitted != completed || rejected != phase.rejected) {
    std::fprintf(stderr,
                 "perfbench: ledger mismatch: sent=%zu submitted=%llu "
                 "admitted=%llu rejected=%llu completed=%llu\n",
                 sent, static_cast<unsigned long long>(submitted),
                 static_cast<unsigned long long>(admitted),
                 static_cast<unsigned long long>(rejected),
                 static_cast<unsigned long long>(completed));
    phase.correct = false;
  }
  // Degraded answers legitimately differ from the full-precision reference;
  // any mismatch beyond them is a wrong answer.
  if (phase.mismatched > phase.degraded) phase.correct = false;
  return phase;
}

double P(const std::vector<double>& v, double q) { return Quantile(v, q); }

/// Median over `parts` consecutive segments of the per-segment q-quantile:
/// a tail estimate that one burst of interference in one segment cannot
/// move. Falls back to the whole window when a segment would hold fewer
/// than `min_per_part` samples.
double SegmentedQuantile(const std::vector<double>& v, double q, size_t parts,
                         size_t min_per_part) {
  if (v.size() < parts * min_per_part) return Quantile(v, q);
  std::vector<double> per_part;
  for (size_t k = 0; k < parts; ++k) {
    const auto begin = v.begin() + static_cast<long>(k * v.size() / parts);
    const auto end = v.begin() + static_cast<long>((k + 1) * v.size() / parts);
    per_part.push_back(Quantile(std::vector<double>(begin, end), q));
  }
  return Quantile(per_part, 0.5);
}

/// Backlog growth over a probe: the median of the outstanding requests over
/// the last quarter of its sends minus the median over the first quarter. A
/// stable queue stays put; an overloaded one grows by (rate - capacity) x
/// time. Medians, so that the short pile-up behind one very expensive
/// request does not read as growth.
double BacklogGrowth(const std::vector<double>& in_flight) {
  const size_t q = in_flight.size() / 4;
  if (q == 0) return 0.0;
  const auto begin = in_flight.begin();
  const auto end = in_flight.end();
  return Quantile(std::vector<double>(end - static_cast<long>(q), end), 0.5) -
         Quantile(std::vector<double>(begin, begin + static_cast<long>(q)),
                  0.5);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The reported p99: median over up to ten equal segments of the window
/// holding >= 1000 requests each (the whole window below 2000 requests).
double NominalP99(const std::vector<double>& latency_ms) {
  const size_t parts = std::min<size_t>(10, latency_ms.size() / 1000);
  return SegmentedQuantile(latency_ms, 0.99, std::max<size_t>(1, parts), 1000);
}

/// Latencies over this many milliseconds stand for failed requests in the
/// JSON result (which cannot carry infinity).
double Finite(double ms) { return std::isinf(ms) ? 1e6 : ms; }

/// The serving-stage split of a traced phase, from the server's own spans:
/// per request, submit -> flush (queue), flush -> start of its own morsel
/// (lane wait: adoption, session checkout, earlier morsels), its morsel
/// (exec), and morsel end -> group finalized (sibling morsels, finalize).
/// Their sum against the client-observed Submit -> completion time is the
/// accounting ratio; the remainder is Submit before admission plus promise
/// delivery and the generator's completion polling.
struct StageSplit {
  double queue_us = 0, lane_wait_us = 0, exec_us = 0, tail_us = 0;
  double checkout_us = 0;  ///< mean session_checkout span per group
  double served_us = 0;    ///< mean client-observed Submit -> completion
  double accounting() const {
    const double stages = queue_us + lane_wait_us + exec_us + tail_us;
    return served_us > 0 ? stages / served_us : 0.0;
  }
};

StageSplit SplitStages(const std::vector<trace::TraceEvent>& events,
                       const Phase& phase, const std::vector<QuerySpec>& pool,
                       uint64_t first_id) {
  const size_t n = phase.attempted;
  std::vector<uint64_t> submit(n, 0), flush(n, 0);
  std::vector<bool> seen(n, false);
  std::map<uint64_t, std::pair<uint64_t, uint64_t>> morsels;  // by first id
  std::map<uint64_t, uint64_t> finalized;                     // by first id
  double checkout_us = 0.0;
  size_t checkouts = 0;
  for (const trace::TraceEvent& e : events) {
    if (e.name == nullptr) continue;
    const std::string name = e.name;
    if (name == "queue" && e.arg >= first_id && e.arg - first_id < n) {
      const size_t i = e.arg - first_id;
      submit[i] = e.ts_ns;
      flush[i] = e.ts_ns + e.dur_ns;
      seen[i] = true;
    } else if (name == "morsel_exec") {
      morsels[e.arg] = {e.ts_ns, e.ts_ns + e.dur_ns};
    } else if (name == "finalize") {
      finalized[e.arg] = e.ts_ns + e.dur_ns;
    } else if (name == "session_checkout") {
      checkout_us += static_cast<double>(e.dur_ns) / 1e3;
      ++checkouts;
    }
  }
  // A group is the requests of one flush sharing an interval, in id order;
  // a morsel covers its first request up to the next morsel's first.
  std::map<std::tuple<uint64_t, Tic, Tic>, std::vector<size_t>> groups;
  for (size_t i = 0; i < n; ++i) {
    if (!seen[i]) Die("traced request without a queue span");
    groups[{flush[i], pool[i].T.start, pool[i].T.end}].push_back(i);
  }
  StageSplit split;
  for (const auto& entry : groups) {
    const std::vector<size_t>& members = entry.second;
    const auto fin = finalized.find(first_id + members.front());
    if (fin == finalized.end()) Die("traced group without a finalize span");
    const std::pair<uint64_t, uint64_t>* morsel = nullptr;
    for (size_t i : members) {
      const auto m = morsels.find(first_id + i);
      if (m != morsels.end()) morsel = &m->second;
      if (morsel == nullptr) Die("traced request without a morsel span");
      split.queue_us += static_cast<double>(flush[i] - submit[i]) / 1e3;
      split.lane_wait_us +=
          static_cast<double>(morsel->first - flush[i]) / 1e3;
      split.exec_us += static_cast<double>(morsel->second - morsel->first) / 1e3;
      split.tail_us += static_cast<double>(fin->second - morsel->second) / 1e3;
      split.served_us += (phase.done_s[i] - phase.sent_s[i]) * 1e6;
    }
  }
  const double count = static_cast<double>(std::max<size_t>(1, n));
  split.queue_us /= count;
  split.lane_wait_us /= count;
  split.exec_us /= count;
  split.tail_us /= count;
  split.served_us /= count;
  split.checkout_us = checkouts > 0 ? checkout_us / checkouts : 0.0;
  return split;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  const Workload w = Workload::Named(flags.GetString("workload", ""));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const double seconds = flags.GetDouble("seconds", 10.0);
  const bool traced = flags.GetInt("trace", 0) != 0;
  if (seconds <= 0.0) Die("--seconds must be positive");
  const int hw_threads =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));

  // Hardware shape: a baseline from another shape is a configuration
  // mismatch, not a regression.
  std::printf(
      "# shape {\"workload\": \"%s\", \"hw_threads\": %d, \"simd\": \"%s\", "
      "\"build_type\": \"%s\", \"lanes\": %d, \"threads\": %d, "
      "\"generator_threads\": 1}\n",
      w.name.c_str(), hw_threads, SimdLevelName(ActiveSimdLevel()),
      UST_BENCH_BUILD_TYPE, kLanes, kThreads);
  if (kLanes * kThreads + 1 > hw_threads) {
    Die("lanes x threads + generator exceeds the hardware threads");
  }

  // ---- Set-up, timed `setups` times; the last one is served. ----
  std::vector<double> setup_s, build_s, adapt_s;
  World world;
  std::unique_ptr<QueryServer> server;
  std::vector<QuerySpec> pool;
  std::vector<QueryOutcome> refs;
  const double nominal_s = w.nominal_share * seconds;
  const double probe_s =
      (1.0 - w.nominal_share) * seconds /
      static_cast<double>(kBracketProbes + kStaircaseProbes);
  // Every phase sends a prefix of the pool: size it for the busiest one.
  const size_t pool_size = static_cast<size_t>(
      1.1 * std::max(w.nominal_qps * nominal_s,
                     w.rung(kLadderRungs - 1.0) * probe_s) +
      200);
  for (size_t s = 0; s < kSetups; ++s) {
    server.reset();
    world = World{};
    const Clock::time_point t0 = Clock::now();
    world = BuildWorld(w);
    const Clock::time_point t1 = Clock::now();
    if (s + 1 == kSetups) {
      // Inputs and references are the benchmark's own work: untimed.
      pool = MakePool(w, world, seed, pool_size);
      refs = ComputeReference(world, pool, hw_threads);
    }
    const Clock::time_point t2 = Clock::now();
    server = StartServer(w, world, /*trace=*/false);
    const Clock::time_point t3 = Clock::now();
    setup_s.push_back(SecondsBetween(t0, t1) + SecondsBetween(t2, t3));
    build_s.push_back(world.build_s);
    adapt_s.push_back(world.adapt_s);
  }
  WriteSchedule writes(world, seed);

  // ---- Nominal phase: the latency metrics. ----
  Phase nominal = RunPhase(*server, w, world, pool, refs, w.nominal_qps,
                           nominal_s, seed * 31 + 1, 0.0, 0, &writes, traced);
  bool correct = nominal.correct;
  const double gen_late_p99 = P(nominal.late_ms, 0.99);
  std::printf("# nominal: rate=%.1f/s sent=%zu ok=%zu failed=%zu "
              "p50=%.3fms p99=%.3fms (whole window %.3fms) "
              "gen_late_p99=%.3fms\n",
              w.nominal_qps, nominal.attempted, nominal.ok, nominal.failed(),
              P(nominal.latency_ms, 0.5), NominalP99(nominal.latency_ms),
              P(nominal.latency_ms, 0.99), gen_late_p99);
  if (gen_late_p99 > kMaxGenLateP99Ms) {
    std::fprintf(stderr,
                 "perfbench: invalid run: generator p99 lateness %.3f ms\n",
                 gen_late_p99);
    return 3;
  }

  std::map<std::string, std::pair<double, std::string>> metrics;
  const auto put = [&](const std::string& name, double value,
                       const std::string& unit) {
    metrics[name] = {value, unit};
  };

  if (!traced) {
    // ---- Capacity: bisect the fixed rate ladder. ----
    const double deadline_ms = 3.0 * w.slo_p99_ms;
    const auto probe = [&](size_t k) {
      const double rate = w.rung(static_cast<double>(k));
      const size_t abort_at =
          static_cast<size_t>(rate * 3.0 * w.slo_p99_ms / 1e3) + 64;
      server.reset();
      server = StartServer(w, world, /*trace=*/false);
      Phase p = RunPhase(*server, w, world, pool, refs, rate, probe_s,
                         seed * 31 + 2 + k, deadline_ms, abort_at, &writes,
                         false);
      correct = correct && p.correct;
      const double p99 = SegmentedQuantile(p.latency_ms, 0.99, 3, 1000);
      const double growth = BacklogGrowth(p.in_flight);
      // Growth worth half the latency limit of arrivals is a backlog.
      const bool backlog = growth > rate * w.slo_p99_ms / 1e3 / 2.0;
      const bool pass = !p.aborted && p.failed() == 0 && p.correct &&
                        p99 <= w.slo_p99_ms && !backlog;
      std::printf("# probe rung=%zu rate=%.1f/s sent=%zu failed=%zu "
                  "p99=%.3fms backlog_growth=%.1f -> %s\n",
                  k, rate, p.attempted, p.failed(), Finite(p99), growth,
                  pass ? "pass" : "fail");
      return pass;
    };
    // Near capacity one pile-up behind a very expensive request decides a
    // probe, so whether a rung passes is a matter of chance over several
    // rungs. Bisection brackets that zone; an up-down staircase (one rung
    // up after a pass, one down after a fail) then tracks the rung that
    // passes half the time, and its mean, each probe counted half a rung
    // above (pass) or below (fail) its own, is the capacity.
    long lo = -1;
    long hi = static_cast<long>(kLadderRungs);
    for (size_t b = 0; b < kBracketProbes; ++b) {
      const long mid = lo + (hi - lo) / 2;
      (probe(static_cast<size_t>(mid)) ? lo : hi) = mid;
    }
    const long top = static_cast<long>(kLadderRungs) - 1;
    long k = std::clamp(lo + (hi - lo) / 2, 0L, top);
    double sum = 0.0;
    for (size_t s = 0; s < kStaircaseProbes; ++s) {
      const bool pass = probe(static_cast<size_t>(k));
      sum += static_cast<double>(k) + (pass ? 0.5 : -0.5);
      k = std::clamp(k + (pass ? 1 : -1), 0L, top);
    }
    server.reset();
    const double max_qps =
        w.rung(sum / static_cast<double>(kStaircaseProbes));
    const double attempted = static_cast<double>(nominal.attempted);
    const Interval ci =
        WilsonInterval(nominal.failed(), nominal.attempted, 0.10);
    put("setup_s", P(setup_s, 0.5), "s");
    put("p50_ms", Finite(P(nominal.latency_ms, 0.5)), "ms");
    put("p99_ms", Finite(NominalP99(nominal.latency_ms)), "ms");
    put("max_qps_at_slo", max_qps, "1/s");
    put("error_frac", ci.hi, "share");
    put("peak_rss_mb", PeakRssMb(), "MB");
    std::printf("# error share %.6g (%zu of %.0f), upper bound %.6g\n",
                static_cast<double>(nominal.failed()) / attempted,
                nominal.failed(), attempted, ci.hi);
  } else {
    // Traced run: server counters from the untraced nominal phase above.
    const ServerStats& a = nominal.after;
    const ServerStats& b = nominal.before;
    const auto d = [](uint64_t x, uint64_t y) {
      return static_cast<double>(x - y);
    };
    LatencyHistogram exec;
    for (const LaneStats& l : a.lanes) exec.Merge(l.exec_micros);
    put("server.queue_us_p50", a.queue_micros.Quantile(0.5), "us");
    put("server.queue_us_p99", a.queue_micros.Quantile(0.99), "us");
    put("server.exec_us_p50", exec.Quantile(0.5), "us");
    put("server.exec_us_p99", exec.Quantile(0.99), "us");
    const double lane_time_us =
        static_cast<double>(kLanes) * nominal.send_s * 1e6;
    put("server.lane_idle_frac",
        lane_time_us > 0 ? d(a.lane_idle_micros(), b.lane_idle_micros()) /
                               lane_time_us
                         : 0.0,
        "share");
    const double batches = d(a.batches, b.batches);
    put("server.batch_size_mean",
        batches > 0 ? d(a.admitted, b.admitted) / batches : 0.0, "count");
    const double hits = d(a.cache.hits, b.cache.hits);
    const double misses = d(a.cache.misses, b.cache.misses);
    put("server.cache_hit_frac",
        hits + misses > 0 ? hits / (hits + misses) : 0.0, "share");
    put("server.session_builds", misses, "count");
    // Arena builds and reuse as the server paid them, over every lane and
    // session, against the Monte-Carlo specs it sampled.
    size_t sampled = 0;
    for (const ServedRequest& r : nominal.served) {
      if (r.outcome.executor == ExecutorKind::kMonteCarlo &&
          r.outcome.worlds_used > 0) {
        ++sampled;
      }
    }
    put("query.arena_builds", d(a.cache.arena_builds, b.cache.arena_builds),
        "count");
    put("query.arena_reuse_frac",
        sampled > 0 ? d(a.cache.arena_spec_reuses, b.cache.arena_spec_reuses) /
                          static_cast<double>(sampled)
                    : 0.0,
        "share");
    put("server.steals", d(a.lane_steals(), b.lane_steals()), "count");
    put("server.morsels", d(a.morsels_executed(), b.morsels_executed()),
        "count");
    put("server.rejected", d(a.rejected, b.rejected), "count");
    put("server.expired",
        d(a.expired_in_queue + a.expired_on_lane,
          b.expired_in_queue + b.expired_on_lane),
        "count");
    put("server.degraded", d(a.degraded_requests, b.degraded_requests),
        "count");
    put("server.compactions", d(a.compactions, b.compactions), "count");
    put("model.write_us_p50", P(nominal.write_us, 0.5), "us");
    put("model.write_us_p99", P(nominal.write_us, 0.99), "us");
    put("model.adapt_s", P(adapt_s, 0.5), "s");
    put("index.build_s", P(build_s, 0.5), "s");
    put("bench.gen_late_p99_ms", gen_late_p99, "ms");
    server.reset();

    // The same schedule again with the server's tracer on: the serving
    // stages per request, and what tracing costs end to end.
    server = StartServer(w, world, /*trace=*/true);
    const uint64_t first_id = server->Stats().admitted + 1;
    Phase traced_phase =
        RunPhase(*server, w, world, pool, refs, w.nominal_qps, nominal_s,
                 seed * 31 + 1, 0.0, 0, &writes, false);
    correct = correct && traced_phase.correct;
    server->Stop();
    const StageSplit split =
        SplitStages(trace::Snapshot(), traced_phase, pool, first_id);
    server.reset();
    trace::Reset();
    put("server.lane_wait_us_mean", split.lane_wait_us, "us");
    put("server.checkout_us_mean", split.checkout_us, "us");
    put("bench.serve_accounting", split.accounting(), "ratio");
    put("bench.trace_overhead",
        P(traced_phase.latency_ms, 0.5) / P(nominal.latency_ms, 0.5),
        "ratio");
    std::printf("# stages (mean us per request): queue=%.1f lane_wait=%.1f "
                "exec=%.1f group_tail=%.1f | served=%.1f accounting=%.3f\n",
                split.queue_us, split.lane_wait_us, split.exec_us,
                split.tail_us, split.served_us, split.accounting());

    // Layer replay of the untraced phase's requests.
    const LayerMetrics layers = ReplayLayers(w, seed, pool, nominal.served);
    for (const auto& [name, value] : layers) {
      put(name, value.first, value.second);
    }
    const double replay = layers.at("bench.replay_accounting").first;
    std::printf("# replay: spans/run_us=%.3f (tolerance %.2f)\n", replay,
                kAccountingTolerance);
    if (std::fabs(1.0 - replay) > kAccountingTolerance ||
        std::fabs(1.0 - split.accounting()) > kAccountingTolerance) {
      std::fprintf(stderr, "perfbench: layer accounting outside tolerance\n");
      correct = false;
    }
  }

  std::printf("# correct=%s\n", correct ? "true" : "false");
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(nominal.attempted);
  json += ", \"failed\": " + std::to_string(nominal.failed());
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%.17g", value.first);
    json += first ? "" : ", ";
    json += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            value.second + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
