// The traced run's layer replay: every served request is re-executed once
// through QuerySession::RunMorsel (the call a serving lane makes; its time
// is query.run_us) and once through the public entry points of the index
// and query layers in pipeline order, each call timed as its own span:
//
//   index  MakeTimeSlab (once per interval and epoch), PruneForall /
//          PruneExists (with the UstDelta of a post-write epoch),
//          UstDelta::Build, UstTree::Build (compaction);
//   query  PlanExecutor, WorldArena::Build, ComputeNnTableScratch (live or
//          against an arena), EstimatePnnAdaptive, NnTable::ForallProb /
//          ExistsProb, PcnnOnTable, GetExecutor(kExact).Estimate,
//          QuerySession construction + Prepare (once per epoch).
//
// The arena policy the session applies (build a (interval, seed) group's
// arena once it has seen arena_min_uses Monte-Carlo specs, sized to the
// largest num_worlds seen) is mirrored here on one serial session per
// epoch, so the arena spans time the same kind of work the server did; the
// server's own arena build and reuse counts come from its Stats()
// (loadgen.cc). RunMorsel must reproduce the served answer bit for bit (a
// wrong answer otherwise); the call-by-call replay must too, or it no
// longer mirrors the program and the run is invalid. The two alternate
// which runs first, so neither always finds the other's caches warm.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <tuple>

#include "common.h"
#include "query/adaptive.h"
#include "query/executor.h"
#include "query/pcnn.h"
#include "query/world_arena.h"
#include "server/query_server.h"

namespace perfbench {

using namespace ust;

namespace {

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

double MeanOf(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

double SumOf(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

/// Span totals of the replay, per layer call.
struct Spans {
  std::vector<double> slab_us, prune_us, delta_build_us, compaction_s,
      prepare_s, plan_us, arena_build_us, sample_us, arena_eval_us,
      reduce_us, apriori_us, exact_us, run_us, span_sum_us;
  std::vector<double> candidates, influencers, delta_depth, worlds;
  double sampled_worlds = 0.0, sampling_us = 0.0;
  size_t mc = 0, exact = 0, adaptive = 0, early_stops = 0;
};

/// The session's arena policy, replayed outside it.
class ArenaMirror {
 public:
  ArenaMirror(const DbSnapshot* db, int min_uses)
      : db_(db), min_uses_(min_uses) {}

  void Reset(const DbSnapshot* db) {
    db_ = db;
    slots_.clear();
  }

  std::shared_ptr<const WorldArena> For(const TimeInterval& T, uint64_t seed,
                                        size_t num_worlds, Spans* spans) {
    if (min_uses_ <= 0 || num_worlds == 0) return nullptr;
    Slot& slot = slots_[std::make_tuple(T.start, T.end, seed)];
    slot.uses += 1;
    slot.max_worlds = std::max(slot.max_worlds, num_worlds);
    if (slot.arena != nullptr) return slot.arena;
    if (slot.uses < static_cast<uint32_t>(min_uses_)) return nullptr;
    const Clock::time_point start = Clock::now();
    auto built = WorldArena::Build(*db_, db_->AliveSometime(T.start, T.end), T,
                                   seed, slot.max_worlds, nullptr);
    spans->arena_build_us.push_back(MicrosSince(start));
    if (!built.ok()) return nullptr;
    slot.arena = std::make_shared<const WorldArena>(built.MoveValue());
    return slot.arena;
  }

 private:
  struct Slot {
    uint32_t uses = 0;
    size_t max_worlds = 0;
    std::shared_ptr<const WorldArena> arena;
  };
  const DbSnapshot* db_;
  int min_uses_;
  std::map<std::tuple<Tic, Tic, uint64_t>, Slot> slots_;
};

/// Resources of one replayed epoch.
struct Epoch {
  DbSnapshot snapshot;
  const UstTree* base = nullptr;
  UstDelta delta;
  std::unique_ptr<QuerySession> session;
  std::map<std::pair<Tic, Tic>, UstTree::TimeSlab> slabs;
};

/// Monte-Carlo refinement of one P∀NN/P∃NN spec, as the executor runs it.
Result<std::vector<PnnEstimate>> ReplayMonteCarlo(
    const Epoch& e, const QuerySpec& spec,
    const std::vector<ObjectId>& participants,
    const std::vector<ObjectId>& targets, ArenaMirror* arenas,
    WorldSampler::Scratch* scratch, std::vector<uint8_t>* rows, Spans* spans,
    QueryOutcome* out, double* span_us) {
  const size_t builds = spans->arena_build_us.size();
  std::shared_ptr<const WorldArena> arena =
      arenas->For(spec.T, spec.mc.seed, spec.mc.num_worlds, spans);
  if (spans->arena_build_us.size() > builds) {
    *span_us += spans->arena_build_us.back();
  }
  bool used = false;
  ++spans->mc;
  if (spec.precision.mode != PrecisionMode::kFixedWorlds) {
    ++spans->adaptive;
    const Clock::time_point start = Clock::now();
    auto adaptive = EstimatePnnAdaptive(
        e.snapshot, participants, targets, spec.q, spec.T,
        spec.kind == QueryKind::kExists ? PnnSemantics::kExists
                                        : PnnSemantics::kForall,
        spec.tau, spec.mc, spec.precision, nullptr, scratch, rows, arena.get(),
        &used);
    const double us = MicrosSince(start);
    *span_us += us;
    (used ? spans->arena_eval_us : spans->sample_us).push_back(us);
    if (!adaptive.ok()) return adaptive.status();
    out->worlds_used = adaptive.value().worlds_used;
    out->early_stopped = adaptive.value().early_stopped;
    if (out->early_stopped) ++spans->early_stops;
    spans->sampled_worlds += static_cast<double>(out->worlds_used);
    spans->sampling_us += us;
    spans->worlds.push_back(static_cast<double>(out->worlds_used));
    out->used_arena = used;
    return std::move(adaptive.value().estimates);
  }
  Clock::time_point start = Clock::now();
  auto table = ComputeNnTableScratch(e.snapshot, participants, spec.q, spec.T,
                                     spec.mc, nullptr, scratch, rows,
                                     arena.get(), &used);
  double us = MicrosSince(start);
  *span_us += us;
  (used ? spans->arena_eval_us : spans->sample_us).push_back(us);
  if (!table.ok()) return table.status();
  out->worlds_used = spec.mc.num_worlds;
  spans->sampled_worlds += static_cast<double>(spec.mc.num_worlds);
  spans->sampling_us += us;
  spans->worlds.push_back(static_cast<double>(spec.mc.num_worlds));
  out->used_arena = used;
  start = Clock::now();
  std::vector<PnnEstimate> estimates;
  estimates.reserve(targets.size());
  for (ObjectId t : targets) {
    const size_t idx = table.value().IndexOf(t);
    if (idx == NnTable::npos) {
      return Status::InvalidArgument("target not among participants");
    }
    estimates.push_back({t, table.value().ForallProb(idx),
                         table.value().ExistsProb(idx)});
  }
  us = MicrosSince(start);
  *span_us += us;
  spans->reduce_us.push_back(us);
  return estimates;
}

/// Replay one spec call by call; returns the reassembled outcome and adds
/// the summed span time to `*span_us`.
QueryOutcome ReplayOne(const Epoch& e, const QuerySpec& spec,
                       ArenaMirror* arenas, WorldSampler::Scratch* scratch,
                       std::vector<uint8_t>* rows, Spans* spans,
                       double* span_us) {
  QueryOutcome out;
  out.kind = spec.kind;
  const bool forall = spec.kind == QueryKind::kForall;
  const bool continuous = spec.kind == QueryKind::kContinuous;
  const auto slab_it = e.slabs.find({spec.T.start, spec.T.end});
  const UstTree::TimeSlab* slab =
      slab_it == e.slabs.end() ? nullptr : &slab_it->second;
  const UstDelta* delta = e.delta.empty() ? nullptr : &e.delta;

  Clock::time_point start = Clock::now();
  PruneResult pruned =
      forall ? e.base->PruneForall(spec.q, spec.T, spec.mc.k, slab, delta)
             : e.base->PruneExists(spec.q, spec.T, spec.mc.k, slab, delta);
  double us = MicrosSince(start);
  *span_us += us;
  spans->prune_us.push_back(us);
  spans->candidates.push_back(static_cast<double>(pruned.candidates.size()));
  spans->influencers.push_back(static_cast<double>(pruned.influencers.size()));
  spans->delta_depth.push_back(static_cast<double>(e.delta.depth()));
  PnnQueryResult& pnn = out.pnn;
  PcnnQueryResult& pcnn = out.pcnn;
  (continuous ? pcnn.num_candidates : pnn.num_candidates) =
      pruned.candidates.size();
  (continuous ? pcnn.num_influencers : pnn.num_influencers) =
      pruned.influencers.size();
  if (pruned.candidates.empty()) return out;

  if (continuous) {
    out.executor = ExecutorKind::kMonteCarlo;
    ++spans->mc;
    const size_t builds = spans->arena_build_us.size();
    std::shared_ptr<const WorldArena> arena =
        arenas->For(spec.T, spec.mc.seed, spec.mc.num_worlds, spans);
    if (spans->arena_build_us.size() > builds) {
      *span_us += spans->arena_build_us.back();
    }
    bool used = false;
    start = Clock::now();
    auto table = ComputeNnTableScratch(e.snapshot, pruned.influencers, spec.q,
                                       spec.T, spec.mc, nullptr, scratch, rows,
                                       arena.get(), &used);
    us = MicrosSince(start);
    *span_us += us;
    (used ? spans->arena_eval_us : spans->sample_us).push_back(us);
    spans->sampled_worlds += static_cast<double>(spec.mc.num_worlds);
    spans->sampling_us += us;
    spans->worlds.push_back(static_cast<double>(spec.mc.num_worlds));
    if (!table.ok()) {
      out.status = table.status();
      return out;
    }
    out.used_arena = used;
    out.worlds_used = spec.mc.num_worlds;
    start = Clock::now();
    auto result = PcnnOnTable(table.value(), pruned.candidates, spec.tau);
    us = MicrosSince(start);
    *span_us += us;
    spans->apriori_us.push_back(us);
    if (!result.ok()) {
      out.status = result.status();
      return out;
    }
    pcnn.pcnn = result.MoveValue();
    return out;
  }

  start = Clock::now();
  std::vector<ObjectId> participants = pruned.influencers;
  if (forall) {
    participants.insert(participants.end(), pruned.candidates.begin(),
                        pruned.candidates.end());
    std::sort(participants.begin(), participants.end());
    participants.erase(std::unique(participants.begin(), participants.end()),
                       participants.end());
  }
  PnnTask task;
  task.db = &e.snapshot;
  task.participants = &participants;
  task.targets = &pruned.candidates;
  task.q = &spec.q;
  task.T = spec.T;
  task.mc = spec.mc;
  task.precision = spec.precision;
  task.kind = spec.kind;
  task.tau = spec.tau;
  // The serving tier plans adaptive specs at their full cap (its planner
  // fraction stays at the initial 1.0), so the cap is the planned count.
  ExecutorKind choice =
      PlanExecutor(spec.kind, pruned.candidates.size(), participants.size(),
                   spec.T.length(), spec.mc.num_worlds, spec.mc.k,
                   ServerOptions{}.planner);
  if (!GetExecutor(choice).Supports(spec.kind, task)) {
    choice = ExecutorKind::kMonteCarlo;
  }
  us = MicrosSince(start);
  *span_us += us;
  spans->plan_us.push_back(us);

  Result<std::vector<PnnEstimate>> estimates =
      Status::Internal("not refined");
  if (choice == ExecutorKind::kExact) {
    start = Clock::now();
    ExecContext ctx;
    ctx.sampler_scratch = scratch;
    ctx.row_buffer = rows;
    estimates = GetExecutor(ExecutorKind::kExact).Estimate(task, ctx);
    us = MicrosSince(start);
    *span_us += us;
    spans->exact_us.push_back(us);
    ++spans->exact;
    if (!estimates.ok() &&
        estimates.status().code() == StatusCode::kResourceLimit) {
      --spans->exact;
      choice = ExecutorKind::kMonteCarlo;
    }
  }
  if (choice == ExecutorKind::kMonteCarlo) {
    estimates = ReplayMonteCarlo(e, spec, participants, pruned.candidates,
                                 arenas, scratch, rows, spans, &out, span_us);
  }
  if (!estimates.ok()) {
    out.status = estimates.status();
    return out;
  }
  out.executor = choice;
  for (const PnnEstimate& est : estimates.value()) {
    const double p = forall ? est.forall_prob : est.exists_prob;
    if (p >= spec.tau) pnn.results.push_back({est.object, p});
  }
  return out;
}

}  // namespace

LayerMetrics ReplayLayers(const Workload& w, uint64_t seed,
                          const std::vector<QuerySpec>& pool,
                          const std::vector<ServedRequest>& served) {
  World world = BuildWorld(w);
  TrajectoryDatabase& db = *world.synthetic.db;
  WriteSchedule writes(world, seed);
  SessionOptions session_options;
  session_options.threads = 1;
  session_options.arena_min_uses = ServerOptions{}.arena_min_uses;
  Spans spans;
  Epoch e;
  std::vector<std::unique_ptr<UstTree>> compacted;
  ArenaMirror arenas(&e.snapshot, session_options.arena_min_uses);
  WorldSampler::Scratch scratch;
  std::vector<uint8_t> rows;
  QuerySession::ExecScratch exec_scratch;
  size_t epoch_writes = 0;
  for (size_t k = 0; k < served.size(); ++k) {
    const ServedRequest& request = served[k];
    if (e.session == nullptr || request.writes_before != epoch_writes) {
      if (e.session != nullptr && w.writes()) {
        // The compactor rebuilds the base at the epoch it observes; the
        // next epoch then probes it plus a one-write delta.
        const Clock::time_point start = Clock::now();
        auto tree = UstTree::Build(e.snapshot);
        spans.compaction_s.push_back(SecondsBetween(start, Clock::now()));
        if (!tree.ok()) Die("compaction rebuild failed");
        compacted.push_back(std::make_unique<UstTree>(tree.MoveValue()));
      }
      while (writes.next() < request.writes_before) writes.ApplyNext(db);
      epoch_writes = request.writes_before;
      e.session.reset();
      e.slabs.clear();
      e.snapshot = db.Snapshot();
      e.base = compacted.empty() ? world.tree.get() : compacted.back().get();
      e.delta = UstDelta();
      if (e.base->built_version() != e.snapshot.version()) {
        const Clock::time_point start = Clock::now();
        auto delta = UstDelta::Build(e.snapshot, e.base->built_version());
        spans.delta_build_us.push_back(MicrosSince(start));
        if (!delta.ok()) Die("delta build failed");
        e.delta = delta.MoveValue();
      }
      const Clock::time_point start = Clock::now();
      e.session = std::make_unique<QuerySession>(e.snapshot, e.base,
                                                 session_options);
      if (!e.session->Prepare().ok()) Die("replay prepare failed");
      spans.prepare_s.push_back(SecondsBetween(start, Clock::now()));
      arenas.Reset(&e.snapshot);
    }
    const QuerySpec& spec = pool[request.pool_index];
    if (e.slabs.count({spec.T.start, spec.T.end}) == 0) {
      // Sessions warm their interval's slab when built, outside Run.
      const Clock::time_point start = Clock::now();
      e.slabs.emplace(std::make_pair(spec.T.start, spec.T.end),
                      e.base->MakeTimeSlab(spec.T));
      spans.slab_us.push_back(MicrosSince(start));
      e.session->WarmInterval(spec.T);
    }
    const std::vector<QuerySpec> one{spec};
    QueryOutcome run_out;
    QueryOutcome replayed;
    double run_us = 0.0;
    double span_us = 0.0;
    const auto run = [&] {
      const Clock::time_point start = Clock::now();
      e.session->RunMorsel(one, 0, 1, &run_out, nullptr, &exec_scratch);
      run_us = MicrosSince(start);
    };
    if (k % 2 == 0) {
      run();
      replayed = ReplayOne(e, spec, &arenas, &scratch, &rows, &spans,
                           &span_us);
    } else {
      replayed = ReplayOne(e, spec, &arenas, &scratch, &rows, &spans,
                           &span_us);
      run();
    }
    if (!SameAnswer(run_out, request.outcome)) {
      std::fprintf(stderr,
                   "perfbench: RunMorsel's answer differs from the served "
                   "one (request %zu)\n",
                   k);
      std::exit(1);  // a wrong answer, like a reference mismatch
    }
    if (!SameAnswer(replayed, request.outcome)) {
      Die("the layer replay no longer mirrors the session pipeline (request " +
          std::to_string(k) + "): update perfbench/replay.cc");
    }
    spans.run_us.push_back(run_us);
    spans.span_sum_us.push_back(span_us);
  }

  const double refined = static_cast<double>(
      std::max<size_t>(1, spans.mc + spans.exact));
  const double run_total = SumOf(spans.run_us);
  LayerMetrics m;
  m["index.slab_us"] = {MeanOf(spans.slab_us), "us"};
  m["index.prune_us_p50"] = {Quantile(spans.prune_us, 0.5), "us"};
  m["index.prune_us_total"] = {SumOf(spans.prune_us), "us"};
  m["index.candidates_mean"] = {MeanOf(spans.candidates), "count"};
  m["index.influencers_mean"] = {MeanOf(spans.influencers), "count"};
  m["index.delta_build_us"] = {MeanOf(spans.delta_build_us), "us"};
  m["index.delta_depth_mean"] = {MeanOf(spans.delta_depth), "count"};
  m["index.compaction_s"] = {MeanOf(spans.compaction_s), "s"};
  m["query.prepare_s"] = {MeanOf(spans.prepare_s), "s"};
  m["query.sample_us"] = {MeanOf(spans.sample_us), "us"};
  m["query.worlds_mean"] = {MeanOf(spans.worlds), "count"};
  m["query.worlds_per_s"] = {
      spans.sampling_us > 0 ? spans.sampled_worlds / spans.sampling_us * 1e6
                            : 0.0,
      "1/s"};
  m["query.arena_build_us"] = {MeanOf(spans.arena_build_us), "us"};
  m["query.arena_eval_us"] = {MeanOf(spans.arena_eval_us), "us"};
  m["query.reduce_us"] = {MeanOf(spans.reduce_us), "us"};
  m["query.apriori_us"] = {MeanOf(spans.apriori_us), "us"};
  m["query.exact_us"] = {MeanOf(spans.exact_us), "us"};
  m["query.early_stop_frac"] = {
      spans.adaptive > 0 ? static_cast<double>(spans.early_stops) /
                               static_cast<double>(spans.adaptive)
                         : 0.0,
      "share"};
  m["query.backend_share.mc"] = {static_cast<double>(spans.mc) / refined,
                                 "share"};
  m["query.backend_share.exact"] = {
      static_cast<double>(spans.exact) / refined, "share"};
  m["query.run_us"] = {MeanOf(spans.run_us), "us"};
  m["bench.replay_accounting"] = {
      run_total > 0 ? SumOf(spans.span_sum_us) / run_total : 0.0, "ratio"};
  return m;
}

}  // namespace perfbench
