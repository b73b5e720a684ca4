// Tests of the serving tier (DESIGN.md section 5): epoch-based snapshot
// isolation of TrajectoryDatabase (online inserts and copy-on-write lifetime
// extension never perturb a pinned epoch), the stale-index guard, the
// (epoch, interval)-keyed LRU session cache, and the QueryServer front-end —
// whose outcomes must be bit-identical to serial QuerySession::RunAll on the
// same epoch even with concurrent client threads and a concurrent writer.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "gen/synthetic.h"
#include "gen/workload.h"
#include "index/ust_tree.h"
#include "query/session.h"
#include "server/query_server.h"
#include "server/session_cache.h"
#include "util/rng.h"
#include "util/trace.h"

namespace ust {
namespace {

bool SameOutcome(const QueryOutcome& a, const QueryOutcome& b) {
  if (a.status.code() != b.status.code()) return false;
  if (a.kind != b.kind || a.executor != b.executor) return false;
  if (a.pnn.results.size() != b.pnn.results.size()) return false;
  for (size_t i = 0; i < a.pnn.results.size(); ++i) {
    if (a.pnn.results[i].object != b.pnn.results[i].object) return false;
    if (a.pnn.results[i].prob != b.pnn.results[i].prob) return false;  // bitwise
  }
  if (a.pnn.num_candidates != b.pnn.num_candidates) return false;
  if (a.pnn.num_influencers != b.pnn.num_influencers) return false;
  if (a.pcnn.pcnn.entries.size() != b.pcnn.pcnn.entries.size()) return false;
  for (size_t i = 0; i < a.pcnn.pcnn.entries.size(); ++i) {
    const PcnnEntry& x = a.pcnn.pcnn.entries[i];
    const PcnnEntry& y = b.pcnn.pcnn.entries[i];
    if (x.object != y.object || x.tics != y.tics || x.prob != y.prob) {
      return false;
    }
  }
  return true;
}

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SyntheticConfig config;
    config.num_states = 600;
    config.num_objects = 18;
    config.lifetime = 24;
    config.obs_interval = 6;
    config.horizon = 40;
    config.seed = 77;
    auto world = GenerateSyntheticWorld(config);
    ASSERT_TRUE(world.ok());
    world_ = std::make_unique<SyntheticWorld>(world.MoveValue());
    auto tree = UstTree::Build(*world_->db);
    ASSERT_TRUE(tree.ok());
    index_ = std::make_unique<UstTree>(tree.MoveValue());
    T_ = BusiestInterval(*world_->db, 6);
  }

  TrajectoryDatabase& db() { return *world_->db; }

  /// A mixed request stream: several query points, two intervals, all three
  /// semantics. Backends stay kAuto — the planner is part of the pipeline
  /// under test and is deterministic per spec.
  std::vector<QuerySpec> MakeSpecs(size_t n) const {
    Rng rng(5);
    std::vector<QuerySpec> specs;
    for (size_t i = 0; i < n; ++i) {
      QuerySpec spec;
      spec.kind = i % 3 == 0   ? QueryKind::kForall
                  : i % 3 == 1 ? QueryKind::kExists
                               : QueryKind::kContinuous;
      spec.q = RandomQueryState(*world_->space, rng);
      spec.T = i % 2 == 0 ? T_ : TimeInterval{T_.start, T_.end - 2};
      spec.tau = spec.kind == QueryKind::kContinuous ? 0.3 : 0.05;
      spec.mc.num_worlds = 300;
      spec.mc.seed = 21 + i;
      specs.push_back(spec);
    }
    return specs;
  }

  /// Append an object observed at `tic` (reusing object 0's motion model and
  /// first observed state, which are valid by construction).
  ObjectId AddObjectAt(Tic tic, Tic end_tic) {
    const UncertainObject& donor = db().object(0);
    auto obs = ObservationSeq::Create(
        {{tic, donor.observations().items()[0].state}});
    EXPECT_TRUE(obs.ok());
    return db().AddObject(obs.MoveValue(), donor.matrix_ptr(), end_tic);
  }

  std::unique_ptr<SyntheticWorld> world_;
  std::unique_ptr<UstTree> index_;
  TimeInterval T_{0, 0};
};

TEST_F(ServerTest, VersionCountsWritesAndValidatesThem) {
  const uint64_t v0 = db().version();
  EXPECT_GT(v0, 0u);  // one bump per seeded object
  AddObjectAt(T_.start, T_.end);
  EXPECT_EQ(db().version(), v0 + 1);

  const ObjectId last = static_cast<ObjectId>(db().size() - 1);
  const Tic end = db().object(last).last_tic();
  EXPECT_TRUE(db().ExtendLifetime(last, end + 4).ok());
  EXPECT_EQ(db().version(), v0 + 2);
  EXPECT_EQ(db().object(last).last_tic(), end + 4);

  // A no-op extension is not a write.
  EXPECT_TRUE(db().ExtendLifetime(last, end + 4).ok());
  EXPECT_EQ(db().version(), v0 + 2);

  // Shrinking and unknown ids are rejected without bumping the epoch.
  EXPECT_EQ(db().ExtendLifetime(last, end).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db().ExtendLifetime(static_cast<ObjectId>(db().size()), end + 9)
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(db().version(), v0 + 2);
}

TEST_F(ServerTest, SnapshotPinsItsEpochAcrossConcurrentInserts) {
  const std::vector<QuerySpec> specs = MakeSpecs(6);
  DbSnapshot snap0 = db().Snapshot();
  // No index: both epochs then prune by alive-time filtering, which keeps
  // the influencer counts directly comparable across the insert.
  QuerySession session(snap0, nullptr);
  const std::vector<QueryOutcome> baseline = session.RunAll(specs);

  // An object alive throughout T_ lands in epoch k+1...
  AddObjectAt(T_.start, T_.end);
  EXPECT_EQ(snap0.version() + 1, db().version());
  EXPECT_EQ(db().Snapshot().size(), snap0.size() + 1);

  // ...and the epoch-k session keeps returning epoch-k bits.
  const std::vector<QueryOutcome> after = session.RunAll(specs);
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_TRUE(SameOutcome(baseline[i], after[i])) << "spec " << i;
  }

  // A session over the new epoch sees the insert: the new object is alive
  // throughout every queried interval, so it joins the influencer sets.
  QuerySession fresh(db().Snapshot(), nullptr);
  const std::vector<QueryOutcome> next_epoch = fresh.RunAll(specs);
  for (size_t i = 0; i < specs.size(); ++i) {
    const size_t before_count = specs[i].kind == QueryKind::kContinuous
                                    ? baseline[i].pcnn.num_influencers
                                    : baseline[i].pnn.num_influencers;
    const size_t after_count = specs[i].kind == QueryKind::kContinuous
                                   ? next_epoch[i].pcnn.num_influencers
                                   : next_epoch[i].pnn.num_influencers;
    EXPECT_EQ(after_count, before_count + 1) << "spec " << i;
  }
}

TEST_F(ServerTest, ExtendLifetimeIsCopyOnWrite) {
  const ObjectId id = 0;
  const Tic old_end = db().object(id).last_tic();
  DbSnapshot snap0 = db().Snapshot();
  ASSERT_TRUE(db().ExtendLifetime(id, old_end + 6).ok());
  // The pinned epoch still holds the shorter object; the live one extended.
  EXPECT_EQ(snap0.object(id).last_tic(), old_end);
  EXPECT_EQ(db().object(id).last_tic(), old_end + 6);
  // The replacement starts with a cold posterior cache (its propagation
  // horizon changed), while the old object's stays warm for old snapshots.
  EXPECT_TRUE(snap0.object(id).EnsurePosterior().ok());
  EXPECT_TRUE(db().object(id).EnsurePosterior().ok());
}

TEST_F(ServerTest, StaleIndexIsDroppedNotTrusted) {
  const std::vector<QuerySpec> specs = MakeSpecs(4);
  AddObjectAt(T_.start, T_.end);  // index_ is now one epoch behind
  // Pin the legacy drop path: with the delta layer disabled, a stale index
  // must be discarded (and the drop counted), never trusted.
  SessionOptions no_delta;
  no_delta.delta_index = false;
  Counter drops;
  no_delta.stale_index_drops = &drops;
  QuerySession with_stale_index(db().Snapshot(), index_.get(), no_delta);
  QuerySession without_index(db().Snapshot(), nullptr);
  EXPECT_TRUE(with_stale_index.dropped_stale_index());
  EXPECT_EQ(drops.value(), 1u);
  const auto a = with_stale_index.RunAll(specs);
  const auto b = without_index.RunAll(specs);
  for (size_t i = 0; i < specs.size(); ++i) {
    // Identical — including the influencer counts, which a trusted stale
    // index would understate by the inserted object.
    EXPECT_TRUE(SameOutcome(a[i], b[i])) << "spec " << i;
  }
}

TEST_F(ServerTest, SessionCacheKeysOnEpochAndInterval) {
  SessionCache cache(2, SessionOptions{});
  DbSnapshot snap = db().Snapshot();
  const TimeInterval t1 = T_;
  const TimeInterval t2{T_.start, T_.end - 2};
  const TimeInterval t3{T_.start + 1, T_.end};

  const QuerySession* s1;
  {
    auto lease = cache.Checkout(snap, t1, index_.get());
    s1 = lease.get();
    EXPECT_EQ(lease->db().version(), snap.version());
  }
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.size(), 1u);  // returned to the cache by the lease
  {
    auto lease = cache.Checkout(snap, t1, index_.get());  // hit, same session
    EXPECT_EQ(lease.get(), s1);
  }
  EXPECT_EQ(cache.stats().hits, 1u);

  // Capacity 2: t3 evicts the least recently used entry (t1 after t2 ran).
  cache.Checkout(snap, t2, index_.get());
  cache.Checkout(snap, t3, index_.get());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions_lru, 1u);
  cache.Checkout(snap, t1, index_.get());  // rebuilt: its entry was evicted
  EXPECT_EQ(cache.stats().misses, 4u);

  // A write opens a new epoch: lookups with the new snapshot miss, and
  // EvictStale drops every session pinned behind the live version.
  AddObjectAt(T_.start, T_.end);
  DbSnapshot snap2 = db().Snapshot();
  {
    auto lease = cache.Checkout(snap2, t1, index_.get());
    EXPECT_EQ(lease->db().version(), snap2.version());
  }
  EXPECT_EQ(cache.stats().misses, 5u);
  cache.EvictStale(snap2.version());
  EXPECT_EQ(cache.size(), 1u);  // only the epoch-current session survives
  EXPECT_GE(cache.stats().evictions_stale, 1u);
}

TEST_F(ServerTest, SessionCacheCheckoutIsExclusive) {
  SessionCache cache(2, SessionOptions{});
  DbSnapshot snap = db().Snapshot();

  // Two concurrent leases on one key: the second caller must get its own
  // session (scratch is single-lane), built as a counted duplicate.
  auto lease1 = cache.Checkout(snap, T_, index_.get());
  auto lease2 = cache.Checkout(snap, T_, index_.get());
  ASSERT_TRUE(lease1);
  ASSERT_TRUE(lease2);
  EXPECT_NE(lease1.get(), lease2.get());
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().busy_misses, 1u);
  EXPECT_EQ(cache.size(), 0u);  // both leased out, nothing idle

  const QuerySession* first = lease1.get();
  lease1.Release();
  EXPECT_FALSE(lease1);  // the lease handle is dead after release
  EXPECT_EQ(cache.size(), 1u);
  {
    auto lease3 = cache.Checkout(snap, T_, index_.get());  // hit on returned
    EXPECT_EQ(lease3.get(), first);
    EXPECT_EQ(cache.stats().hits, 1u);
  }
  lease2.Release();
  EXPECT_EQ(cache.size(), 2u);  // the duplicate is cached too (capacity 2)

  // A lease outstanding across EvictStale is dropped on return, not cached:
  // its epoch has passed.
  auto stale = cache.Checkout(snap, T_, index_.get());
  const uint64_t stale_before = cache.stats().evictions_stale;
  cache.EvictStale(snap.version() + 1);
  EXPECT_EQ(cache.size(), 0u);
  stale.Release();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_GT(cache.stats().evictions_stale, stale_before);
}

TEST_F(ServerTest, SharedLeaseJoinsInsteadOfDuplicating) {
  SessionCache cache(2, SessionOptions{});
  DbSnapshot snap = db().Snapshot();

  // Two shared checkouts on one key: the second *joins* the first — same
  // session, one build, no busy miss. This is the protocol that lets hot
  // groups stop paying duplicate builds.
  auto lease1 = cache.CheckoutShared(snap, T_, index_.get());
  ASSERT_TRUE(lease1);
  EXPECT_EQ(cache.stats().misses, 1u);
  auto lease2 = cache.CheckoutShared(snap, T_, index_.get());
  ASSERT_TRUE(lease2);
  EXPECT_EQ(lease1.get(), lease2.get());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().shared_joins, 1u);
  EXPECT_EQ(cache.stats().busy_misses, 0u);
  EXPECT_EQ(cache.size(), 0u);  // out on lease, not idle

  // An exclusive checkout cannot join a shared lease: duplicate, busy miss.
  {
    auto exclusive = cache.Checkout(snap, T_, index_.get());
    EXPECT_NE(exclusive.get(), lease1.get());
    EXPECT_EQ(cache.stats().busy_misses, 1u);
  }

  // Refcounted return: the first release keeps the session out, the last
  // one reinserts it at MRU — where a later shared checkout finds it idle.
  const QuerySession* session = lease1.get();
  lease1.Release();
  EXPECT_EQ(cache.stats().shared_joins, 1u);
  {
    auto lease3 = cache.CheckoutShared(snap, T_, index_.get());  // joins
    EXPECT_EQ(lease3.get(), session);
    EXPECT_EQ(cache.stats().shared_joins, 2u);
    lease2.Release();  // two holders left -> one
  }  // lease3 released: last holder, session goes idle
  EXPECT_EQ(cache.size(), 2u);  // the shared session + the exclusive dup
  {
    auto lease4 = cache.CheckoutShared(snap, T_, index_.get());
    EXPECT_EQ(lease4.get(), session);  // idle promotion, not a join
    EXPECT_EQ(cache.stats().shared_joins, 2u);
  }

  // A shared session whose epoch passes mid-lease is dropped on the last
  // release, exactly like the exclusive path.
  auto stale = cache.CheckoutShared(snap, T_, index_.get());
  cache.EvictStale(snap.version() + 1);
  const uint64_t stale_before = cache.stats().evictions_stale;
  stale.Release();
  EXPECT_GT(cache.stats().evictions_stale, stale_before);
}

TEST_F(ServerTest, HotGroupMorselsMatchSerialRunAllBitwise) {
  // One dominant (epoch, interval) group split into 1-spec morsels over 2
  // lanes with stealing forced on: whatever the claim/steal schedule, the
  // reassembled outcomes must equal the serial RunAll bytes. Submits are
  // paused into one admission queue so the whole stream flushes as full
  // batches of one hot group each.
  std::vector<QuerySpec> specs = MakeSpecs(18);
  for (QuerySpec& spec : specs) spec.T = T_;  // one hot interval
  QuerySession reference(db().Snapshot(), index_.get());
  const std::vector<QueryOutcome> expected = reference.RunAll(specs);

  ServerOptions options;
  options.lanes = 2;
  options.steal = true;
  options.morsel_specs = 1;
  options.max_batch_size = 6;
  options.max_batch_delay_ms = 0.5;
  QueryServer server(db(), index_.get(), options);
  server.Pause();
  std::vector<std::future<QueryOutcome>> futures;
  for (const QuerySpec& spec : specs) futures.push_back(server.Submit(spec));
  server.Resume();
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_TRUE(SameOutcome(futures[i].get(), expected[i])) << "spec " << i;
  }
  server.Stop();
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.completed, specs.size());
  // 1-spec morsels: exactly one morsel per request, across all lanes.
  EXPECT_EQ(stats.morsels_executed(), specs.size());
  uint64_t lane_requests = 0;
  for (const LaneStats& lane : stats.lanes) lane_requests += lane.requests;
  EXPECT_EQ(lane_requests, specs.size());
}

TEST_F(ServerTest, IdleLaneStealsFromDominantGroup) {
  // The tail-latency regression test for the group-granularity scheduler:
  // one dominant group of heavy specs next to a tiny one. At group
  // granularity the dominant group pins ONE lane while the other goes idle
  // after its tiny group (steals == 0, one lane owns every heavy request);
  // with morsel stealing the idle lane must take half-ranges of the hot
  // group (steals >= 1 and both lanes execute requests). The heavy specs
  // are hundreds of milliseconds each, the idle lane wakes in microseconds
  // — the margin is ~5 orders of magnitude, so this is timing-robust.
  std::vector<QuerySpec> heavy = MakeSpecs(6);
  for (QuerySpec& spec : heavy) {
    spec.kind = QueryKind::kForall;
    spec.T = T_;
    spec.backend = ExecutorKind::kMonteCarlo;
    spec.mc.num_worlds = 6000;
  }
  QuerySpec tiny = MakeSpecs(1)[0];
  tiny.kind = QueryKind::kForall;
  tiny.T = TimeInterval{T_.start, T_.end - 2};
  tiny.backend = ExecutorKind::kMonteCarlo;
  tiny.mc.num_worlds = 50;

  const auto run = [&](bool steal) {
    ServerOptions options;
    options.lanes = 2;
    options.steal = steal;
    options.morsel_specs = 1;
    options.max_batch_size = 7;
    options.max_batch_delay_ms = 1.0;
    QueryServer server(db(), index_.get(), options);
    server.Pause();  // everything flushes as one batch: 2 groups
    std::vector<std::future<QueryOutcome>> futures;
    for (const QuerySpec& spec : heavy) futures.push_back(server.Submit(spec));
    futures.push_back(server.Submit(tiny));
    server.Resume();
    for (auto& f : futures) EXPECT_TRUE(f.get().status.ok());
    server.Stop();
    return server.Stats();
  };

  const ServerStats nosteal = run(false);
  // Group granularity: whole groups stick to their adopting lane — the six
  // heavy requests all executed where the dominant group landed.
  EXPECT_EQ(nosteal.lane_steals(), 0u);
  uint64_t max_lane_requests = 0;
  for (const LaneStats& lane : nosteal.lanes) {
    max_lane_requests = std::max(max_lane_requests, lane.requests);
  }
  EXPECT_GE(max_lane_requests, heavy.size());

  const ServerStats steal = run(true);
  // Morsel scheduling: the lane that finished the tiny group steals from
  // the dominant one instead of idling.
  EXPECT_GE(steal.lane_steals(), 1u);
  for (const LaneStats& lane : steal.lanes) {
    EXPECT_GE(lane.requests, 1u) << "a lane sat idle beside a hot group";
  }
}

TEST_F(ServerTest, ServerMatchesSerialRunAllAtTwoLanesFourClients) {
  const std::vector<QuerySpec> specs = MakeSpecs(16);
  // Reference: strictly serial session over the same epoch (threads = 1).
  QuerySession reference(db().Snapshot(), index_.get());
  const std::vector<QueryOutcome> expected = reference.RunAll(specs);

  ServerOptions options;
  options.lanes = 2;
  options.threads = 2;
  options.max_batch_size = 4;
  options.max_batch_delay_ms = 2.0;
  QueryServer server(db(), index_.get(), options);
  std::vector<std::future<QueryOutcome>> futures(specs.size());
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = static_cast<size_t>(c); i < specs.size(); i += 4) {
        futures[i] = server.Submit(specs[i]);
      }
    });
  }
  for (auto& t : clients) t.join();
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_TRUE(SameOutcome(futures[i].get(), expected[i])) << "spec " << i;
  }
  server.Stop();
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.submitted, specs.size());
  EXPECT_EQ(stats.admitted, specs.size());
  EXPECT_EQ(stats.completed, specs.size());
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_GE(stats.batches, 1u);
  EXPECT_EQ(stats.latency_micros.count(), specs.size());
  EXPECT_EQ(stats.queue_micros.count(), specs.size());
  // Per-lane accounting covers every executed morsel and every request.
  ASSERT_EQ(stats.lanes.size(), 2u);
  uint64_t lane_batches = 0, lane_requests = 0, lane_morsels = 0;
  for (const LaneStats& lane : stats.lanes) {
    lane_batches += lane.batches;
    lane_requests += lane.requests;
    lane_morsels += lane.morsels;
    EXPECT_EQ(lane.exec_micros.count(), lane.morsels);
  }
  EXPECT_GE(lane_batches, stats.batches);  // >=: batches split per interval
  EXPECT_GE(lane_morsels, lane_batches);   // every group is >= one morsel
  EXPECT_EQ(lane_requests, specs.size());
  EXPECT_EQ(stats.lane_queue_depth, 0u);  // drained by Stop
  EXPECT_GE(stats.lane_queue_peak, 1u);
}

TEST_F(ServerTest, StopDrainsEveryAdmittedRequest) {
  const std::vector<QuerySpec> specs = MakeSpecs(10);
  ServerOptions options;
  options.lanes = 2;
  options.max_batch_size = 4;
  options.max_batch_delay_ms = 50.0;  // Stop must not wait out the window
  QueryServer server(db(), index_.get(), options);
  server.Pause();  // requests pile up: the drain below is deterministic
  std::vector<std::future<QueryOutcome>> futures;
  for (const QuerySpec& spec : specs) futures.push_back(server.Submit(spec));
  server.Stop();
  for (size_t i = 0; i < futures.size(); ++i) {
    EXPECT_TRUE(futures[i].get().status.ok()) << "request " << i;
  }
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.admitted, specs.size());
  EXPECT_EQ(stats.completed, specs.size());
  EXPECT_GE(stats.flush_drain, 1u);
  EXPECT_EQ(stats.lane_queue_depth, 0u);
  uint64_t lane_requests = 0;
  for (const LaneStats& lane : stats.lanes) lane_requests += lane.requests;
  EXPECT_EQ(lane_requests, specs.size());
}

TEST_F(ServerTest, OversizedBatchDoesNotStallSmallBatchFlush) {
  // Regression test for the pre-lane inline dispatcher: there, the thread
  // that flushed a batch also executed it, so one oversized batch blocked
  // the admission window and every batch behind it until it finished. With
  // execution lanes, the flush cadence is independent of execution time:
  // the small batch below must flush at once to the parked lane and
  // complete while the oversized batch is still running on the other lane.
  // The oversized batch is one morsel, so at most one lane runs it and the
  // other always parks. The long window makes that park, not the timer,
  // the only way the small batch can flush in time: on an oversubscribed
  // runner a 1 ms window could expire before the lane gets to park.
  ServerOptions options;
  options.lanes = 2;
  options.max_batch_size = 4;
  options.max_batch_delay_ms = 1000.0;
  QueryServer server(db(), index_.get(), options);

  // One oversized batch: heavy Monte-Carlo work, hundreds of milliseconds.
  std::vector<QuerySpec> big = MakeSpecs(4);
  for (QuerySpec& spec : big) {
    spec.kind = QueryKind::kForall;
    spec.T = T_;
    spec.backend = ExecutorKind::kMonteCarlo;
    spec.mc.num_worlds = 50000;
  }
  // One small, fast request over a different interval (its own group).
  QuerySpec small = MakeSpecs(1)[0];
  small.kind = QueryKind::kForall;
  small.T = TimeInterval{T_.start, T_.end - 2};
  small.backend = ExecutorKind::kMonteCarlo;
  small.mc.num_worlds = 50;

  // Pause so all four oversized specs flush as exactly one full batch.
  server.Pause();
  std::vector<std::future<QueryOutcome>> big_futures;
  for (const QuerySpec& spec : big) big_futures.push_back(server.Submit(spec));
  server.Resume();
  std::future<QueryOutcome> small_future = server.Submit(small);

  EXPECT_TRUE(small_future.get().status.ok());
  for (auto& f : big_futures) EXPECT_TRUE(f.get().status.ok());

  server.Stop();
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.completed, 5u);
  EXPECT_EQ(stats.flush_full, 1u);  // the oversized batch
  EXPECT_GE(stats.flush_idle, 1u);  // the small one, at once to the idle lane
  // The regression is asserted through the server's own clocks, not through
  // instantaneous future polling — robust against the thread scheduling of
  // an oversubscribed sanitizer CI runner. On the pre-lane inline
  // dispatcher both checks fail: the small request's flush (and hence its
  // whole life) would sit behind the oversized batch's execution, pushing
  // queue_micros.max() and latency_micros.min() up to max_exec.
  double max_exec = 0.0;
  for (const LaneStats& lane : stats.lanes) {
    max_exec = std::max(max_exec, lane.exec_micros.max());
  }
  // Admission-to-flush latency stayed decoupled from execution: even the
  // slowest flush was far quicker than the oversized batch's execution.
  EXPECT_LT(stats.queue_micros.max(), max_exec / 2.0);
  // And the small request (the fastest end-to-end, hence min()) completed
  // well inside the oversized batch's execution window.
  EXPECT_LT(stats.latency_micros.min(), max_exec / 2.0);
}

TEST_F(ServerTest, IdleLanesFlushAtOnce) {
  // Work-conserving batching: while a lane is parked, a request flushes the
  // moment it arrives instead of waiting out the batch window. Each spec is
  // submitted only after the previous one resolved, so a lane is always
  // parked: every batch flushes as "idle", none by the 500 ms window.
  const std::vector<QuerySpec> specs = MakeSpecs(6);
  QuerySession reference(db().Snapshot(), index_.get());
  const std::vector<QueryOutcome> expected = reference.RunAll(specs);

  ServerOptions options;
  options.lanes = 2;
  options.max_batch_delay_ms = 500.0;
  QueryServer server(db(), index_.get(), options);
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_TRUE(SameOutcome(server.Submit(specs[i]).get(), expected[i]))
        << "spec " << i;
  }
  server.Stop();
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.batches, specs.size());
  EXPECT_EQ(stats.flush_idle, specs.size());
  EXPECT_EQ(stats.flush_deadline, 0u);
  // Holding every batch for the window would put each queue stage, and so
  // each latency, at >= 500 ms. The queue stage is microseconds here; the
  // latency bound leaves room for the session build of a sanitizer build.
  EXPECT_LT(stats.queue_micros.max(), 50e3);
  EXPECT_LT(stats.latency_micros.max(), 500e3);
}

TEST_F(ServerTest, BusyLanesStillCoalesce) {
  // The other half of the rule: while every lane is busy the batch is held,
  // so requests arriving meanwhile coalesce. The single lane runs one heavy
  // spec (hundreds of milliseconds); the small specs submitted while it
  // runs must flush together as one batch.
  QuerySpec heavy = MakeSpecs(1)[0];
  heavy.kind = QueryKind::kForall;
  heavy.T = T_;
  heavy.backend = ExecutorKind::kMonteCarlo;
  heavy.mc.num_worlds = 50000;
  std::vector<QuerySpec> specs = {heavy};
  for (const QuerySpec& spec : MakeSpecs(5)) specs.push_back(spec);
  QuerySession reference(db().Snapshot(), index_.get());
  const std::vector<QueryOutcome> expected = reference.RunAll(specs);

  ServerOptions options;
  options.lanes = 1;
  options.max_batch_size = 64;
  options.max_batch_delay_ms = 1000.0;
  QueryServer server(db(), index_.get(), options);
  std::vector<std::future<QueryOutcome>> futures;
  futures.push_back(server.Submit(specs[0]));
  // The lane counts a group as adopted under the server mutex, after it
  // stopped being parked: from then on it is busy with the heavy spec.
  while (server.Stats().lanes[0].batches == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (size_t i = 1; i < specs.size(); ++i) {
    futures.push_back(server.Submit(specs[i]));
  }
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_TRUE(SameOutcome(futures[i].get(), expected[i])) << "spec " << i;
  }
  server.Stop();
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.completed, specs.size());
  EXPECT_EQ(stats.batches, 2u);  // the heavy spec, then all small ones
  EXPECT_EQ(stats.batches, stats.flush_full + stats.flush_deadline +
                               stats.flush_idle + stats.flush_drain);
}

TEST_F(ServerTest, ServerRejectsWhenAdmissionQueueIsFull) {
  const std::vector<QuerySpec> specs = MakeSpecs(8);
  ServerOptions options;
  options.queue_capacity = 3;
  options.max_batch_size = 64;
  options.max_batch_delay_ms = 5.0;
  QueryServer server(db(), index_.get(), options);
  server.Pause();  // queue fills deterministically while dispatch holds

  std::vector<std::future<QueryOutcome>> futures;
  for (const QuerySpec& spec : specs) futures.push_back(server.Submit(spec));
  // First 3 admitted, the rest bounced immediately with kResourceLimit.
  for (size_t i = 3; i < futures.size(); ++i) {
    ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(futures[i].get().status.code(), StatusCode::kResourceLimit);
  }
  server.Resume();
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(futures[i].get().status.ok()) << "request " << i;
  }
  server.Stop();
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.submitted, 8u);
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_EQ(stats.rejected, 5u);
  // Every rejection lands in exactly one split bucket (none were draining —
  // the server was live throughout the burst).
  EXPECT_EQ(stats.rejected,
            stats.rejected_queue_full + stats.rejected_shed);
  EXPECT_EQ(stats.rejected_draining, 0u);
  EXPECT_EQ(stats.completed, 3u);

  // After Stop, submits bounce with kResourceLimit — the same backpressure
  // code clients already retry on, not a client-bug code like
  // kInvalidArgument (a draining server is an operational condition).
  auto late = server.Submit(specs[0]);
  ASSERT_EQ(late.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(late.get().status.code(), StatusCode::kResourceLimit);
  const ServerStats after = server.Stats();
  EXPECT_EQ(after.rejected_draining, 1u);
  EXPECT_EQ(after.rejected, 6u);
}

TEST_F(ServerTest, ConcurrentWritesNeverTearServedQueries) {
  // The writer only touches lifetimes/objects *outside* every queried
  // interval, so all epochs agree on the correct answer — any deviation in
  // a served outcome would mean a torn read of the live database.
  const std::vector<QuerySpec> specs = MakeSpecs(6);
  // No index on either side: sessions over post-write epochs would drop a
  // pre-write index, and pruning sets must match for bitwise comparison.
  QuerySession reference(db().Snapshot(), nullptr);
  const std::vector<QueryOutcome> expected = reference.RunAll(specs);

  ServerOptions options;
  options.max_batch_size = 4;
  options.max_batch_delay_ms = 0.5;
  QueryServer server(db(), nullptr, options);

  std::thread writer([&] {
    for (int i = 0; i < 12; ++i) {
      AddObjectAt(T_.end + 8, T_.end + 12);  // never alive inside T_ or sub-T
    }
  });
  std::vector<std::future<QueryOutcome>> futures;
  for (int round = 0; round < 4; ++round) {
    for (const QuerySpec& spec : specs) futures.push_back(server.Submit(spec));
  }
  writer.join();
  for (size_t i = 0; i < futures.size(); ++i) {
    EXPECT_TRUE(SameOutcome(futures[i].get(), expected[i % specs.size()]))
        << "request " << i;
  }

  // Epoch-keyed invalidation, pinned deterministically: all in-flight work
  // is drained, so the cache holds sessions at epochs <= the current one;
  // one more write then forces the next batch to miss on the new version
  // and to reap at least one stale-epoch session.
  const SessionCacheStats before = server.Stats().cache;
  AddObjectAt(T_.end + 8, T_.end + 12);
  std::vector<std::future<QueryOutcome>> late;
  for (const QuerySpec& spec : specs) late.push_back(server.Submit(spec));
  for (size_t i = 0; i < late.size(); ++i) {
    EXPECT_TRUE(SameOutcome(late[i].get(), expected[i])) << "late " << i;
  }
  server.Stop();
  const SessionCacheStats after = server.Stats().cache;
  EXPECT_GT(after.misses, before.misses);
  EXPECT_GT(after.evictions_stale, before.evictions_stale);
}

TEST_F(ServerTest, ZeroBatchSizeIsClampedNotStarved) {
  ServerOptions options;
  options.max_batch_size = 0;  // misconfiguration must not starve requests
  options.max_batch_delay_ms = 0.1;
  QueryServer server(db(), index_.get(), options);
  auto future = server.Submit(MakeSpecs(1)[0]);
  EXPECT_TRUE(future.get().status.ok());
}

// With ServerOptions::trace on, one request must be followable
// admission-to-finalize: at least six distinct span names carry its id
// (the ISSUE acceptance bar, checked here without the bench harness).
TEST_F(ServerTest, TraceFollowsRequestAcrossLifecycle) {
  const std::vector<QuerySpec> specs = MakeSpecs(6);
  ServerOptions options;
  options.trace = true;
  {
    QueryServer server(db(), index_.get(), options);
    std::vector<std::future<QueryOutcome>> futures;
    for (const QuerySpec& spec : specs) futures.push_back(server.Submit(spec));
    for (auto& f : futures) EXPECT_TRUE(f.get().status.ok());
    server.Stop();  // joins lanes and disables tracing
  }
  const std::vector<trace::TraceEvent> events = trace::Snapshot();
  ASSERT_FALSE(events.empty());
  std::vector<std::string> names_for_req1;
  for (const trace::TraceEvent& event : events) {
    if (event.arg_name == nullptr || std::string(event.arg_name) != "req") {
      continue;
    }
    if (event.arg != 1) continue;
    const std::string name = event.name;
    if (std::find(names_for_req1.begin(), names_for_req1.end(), name) ==
        names_for_req1.end()) {
      names_for_req1.push_back(name);
    }
  }
  EXPECT_GE(names_for_req1.size(), 6u)
      << "request 1 spans: " << names_for_req1.size();
  for (const char* required : {"admit", "queue", "finalize"}) {
    EXPECT_NE(std::find(names_for_req1.begin(), names_for_req1.end(),
                        std::string(required)),
              names_for_req1.end())
        << "missing span " << required;
  }
  trace::Reset();
}

TEST_F(ServerTest, StatsRenderAsJson) {
  const std::vector<QuerySpec> specs = MakeSpecs(5);
  QueryServer server(db(), index_.get(), ServerOptions{});
  std::vector<std::future<QueryOutcome>> futures;
  for (const QuerySpec& spec : specs) futures.push_back(server.Submit(spec));
  for (auto& f : futures) EXPECT_TRUE(f.get().status.ok());
  server.Stop();
  const std::string json = server.Stats().ToJson();
  for (const char* key :
       {"\"submitted\":5", "\"completed\":5", "\"rejected\":0",
        "\"rejected_queue_full\":0", "\"rejected_shed\":0",
        "\"rejected_draining\":0", "\"expired_in_queue\":0",
        "\"expired_on_lane\":0", "\"degraded_requests\":0",
        "\"flush_idle\":",
        "\"overload_regime\":", "\"session_build_failures\":0", "\"batches\":",
        "\"cache_misses\":", "\"cache_busy_misses\":",
        "\"cache_shared_joins\":", "\"latency_us\":",
        "\"queue_us\":", "\"p50\":", "\"p99\":", "\"lane_queue_depth\":",
        "\"lane_queue_peak\":", "\"lane_steals\":", "\"morsels_executed\":",
        "\"arena_builds\":", "\"arena_spec_reuses\":", "\"arena_bytes\":",
        "\"early_stops\":", "\"worlds_saved\":", "\"worlds_sampled\":",
        "\"trace_dropped\":", "\"lane_idle_us\":",
        "\"lanes\":[{", "\"exec_us\":", "\"morsels\":", "\"steals\":",
        "\"arena_hits\":", "\"idle_us\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << json << "\nmissing " << key;
  }
}

}  // namespace
}  // namespace ust
