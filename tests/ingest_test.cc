// Tests of online index maintenance (DESIGN.md section 10): the per-epoch
// UstDelta patched alongside a stale base UstTree, the stale-drop fallback
// it replaces, and background compaction publishing a fresh base through
// the snapshot machinery *without* bumping the epoch.
//
// The contract under test everywhere: query outcomes are a pure function
// of (epoch, spec). Base-only, base ∪ delta, dropped-index fallback, and
// any interleaving of writers and compactors must reproduce the index-free
// reference bit for bit (probability bytes; candidate/influencer *counts*
// legitimately differ between indexed and index-free plans, so they are
// deliberately not compared here — unlike server_test's SameOutcome).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gen/synthetic.h"
#include "gen/workload.h"
#include "index/ust_delta.h"
#include "index/ust_tree.h"
#include "query/session.h"
#include "server/query_server.h"
#include "util/rng.h"
#include "util/trace.h"

namespace ust {
namespace {

// Bitwise agreement on the *answers* (not the plan-shape counters).
::testing::AssertionResult SameResults(const QueryOutcome& a,
                                       const QueryOutcome& b) {
  if (!a.status.ok() || !b.status.ok()) {
    return ::testing::AssertionFailure()
           << "status a=" << a.status.ToString()
           << " b=" << b.status.ToString();
  }
  if (a.kind != b.kind || a.executor != b.executor) {
    return ::testing::AssertionFailure() << "kind/executor mismatch";
  }
  if (a.pnn.results.size() != b.pnn.results.size()) {
    return ::testing::AssertionFailure()
           << "pnn sizes " << a.pnn.results.size() << " vs "
           << b.pnn.results.size();
  }
  for (size_t i = 0; i < a.pnn.results.size(); ++i) {
    if (a.pnn.results[i].object != b.pnn.results[i].object ||
        a.pnn.results[i].prob != b.pnn.results[i].prob) {  // bitwise
      return ::testing::AssertionFailure() << "pnn result " << i;
    }
  }
  if (a.pcnn.pcnn.entries.size() != b.pcnn.pcnn.entries.size()) {
    return ::testing::AssertionFailure() << "pcnn sizes";
  }
  for (size_t i = 0; i < a.pcnn.pcnn.entries.size(); ++i) {
    const PcnnEntry& x = a.pcnn.pcnn.entries[i];
    const PcnnEntry& y = b.pcnn.pcnn.entries[i];
    if (x.object != y.object || x.tics != y.tics || x.prob != y.prob) {
      return ::testing::AssertionFailure() << "pcnn entry " << i;
    }
  }
  return ::testing::AssertionSuccess();
}

class IngestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SyntheticConfig config;
    config.num_states = 600;
    config.num_objects = 18;
    config.lifetime = 24;
    config.obs_interval = 6;
    config.horizon = 40;
    config.seed = 91;
    auto world = GenerateSyntheticWorld(config);
    ASSERT_TRUE(world.ok());
    world_ = std::make_unique<SyntheticWorld>(world.MoveValue());
    auto tree = UstTree::Build(*world_->db);
    ASSERT_TRUE(tree.ok());
    index_ = std::make_unique<UstTree>(tree.MoveValue());
    T_ = BusiestInterval(*world_->db, 6);
  }

  TrajectoryDatabase& db() { return *world_->db; }

  /// Monte-Carlo-pinned specs with tau > 0: the regime where indexed and
  /// index-free plans are bit-identical (tau = 0 would surface the
  /// zero-probability objects pruning removes; kAuto could route the two
  /// plans — whose candidate counts differ — to different backends).
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
      spec.backend = ExecutorKind::kMonteCarlo;
      spec.mc.num_worlds = 200;
      spec.mc.seed = 31 + i;
      specs.push_back(spec);
    }
    return specs;
  }

  ObjectId AddObjectAt(Tic tic, Tic end_tic) {
    const UncertainObject& donor = db().object(0);
    auto obs = ObservationSeq::Create(
        {{tic, donor.observations().items()[0].state}});
    EXPECT_TRUE(obs.ok());
    return db().AddObject(obs.MoveValue(), donor.matrix_ptr(), end_tic);
  }

  /// Some writes the queries can see: appended objects alive throughout T_
  /// plus a lifetime extension of an indexed object (the delta's replace
  /// path — its base entries go stale, not just missing).
  void ApplyWrites() {
    AddObjectAt(T_.start, T_.end);
    AddObjectAt(T_.start > 0 ? T_.start - 1 : T_.start, T_.end + 2);
    const Tic end = db().object(1).last_tic();
    ASSERT_TRUE(db().ExtendLifetime(1, end + 4).ok());
  }

  std::unique_ptr<SyntheticWorld> world_;
  std::unique_ptr<UstTree> index_;
  TimeInterval T_{0, 0};
};

TEST_F(IngestTest, DeltaProbeMatchesIndexFreeFallbackBitwise) {
  ApplyWrites();
  const DbSnapshot snapshot = db().Snapshot();
  const std::vector<QuerySpec> specs = MakeSpecs(12);

  QuerySession reference(snapshot, nullptr);
  const std::vector<QueryOutcome> expected = reference.RunAll(specs);

  // The delta path: stale base + per-epoch patch, no drop.
  QuerySession patched(snapshot, index_.get());
  EXPECT_FALSE(patched.dropped_stale_index());
  EXPECT_EQ(patched.delta_depth(), 3u);  // two inserts + one extension
  const std::vector<QueryOutcome> via_delta = patched.RunAll(specs);

  // The pre-delta behavior, now opt-out: drop the stale index entirely.
  SessionOptions no_delta;
  no_delta.delta_index = false;
  Counter drops;
  no_delta.stale_index_drops = &drops;
  QuerySession dropped(snapshot, index_.get(), no_delta);
  EXPECT_TRUE(dropped.dropped_stale_index());
  EXPECT_EQ(drops.value(), 1u);
  EXPECT_EQ(dropped.delta_depth(), 0u);
  const std::vector<QueryOutcome> via_drop = dropped.RunAll(specs);

  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_TRUE(SameResults(via_delta[i], expected[i])) << "delta spec " << i;
    EXPECT_TRUE(SameResults(via_drop[i], expected[i])) << "drop spec " << i;
  }
}

TEST_F(IngestTest, FreshIndexNeedsNoDeltaAndOldIndexIsDroppedPastFloor) {
  // A fresh tree at the current epoch: no patch, no drop.
  QuerySession fresh(db().Snapshot(), index_.get());
  EXPECT_FALSE(fresh.dropped_stale_index());
  EXPECT_EQ(fresh.delta_depth(), 0u);

  ApplyWrites();
  auto rebuilt = UstTree::Build(db());
  ASSERT_TRUE(rebuilt.ok());
  db().PublishIndex(std::make_shared<const UstTree>(rebuilt.MoveValue()));

  // PublishIndex trimmed the change log up to the new base: the records the
  // old pre-write tree would need are gone, so it must be dropped — a
  // half-patched probe would silently miss the trimmed writes.
  Counter drops;
  SessionOptions options;
  options.stale_index_drops = &drops;
  QuerySession old_base(db().Snapshot(), index_.get(), options);
  EXPECT_TRUE(old_base.dropped_stale_index());
  EXPECT_EQ(drops.value(), 1u);

  // The published base itself rides for free at its own epoch.
  const DbSnapshot snapshot = db().Snapshot();
  ASSERT_NE(snapshot.base_index(), nullptr);
  QuerySession published(snapshot, snapshot.base_index().get());
  EXPECT_FALSE(published.dropped_stale_index());
  EXPECT_EQ(published.delta_depth(), 0u);

  const std::vector<QuerySpec> specs = MakeSpecs(9);
  QuerySession reference(snapshot, nullptr);
  const std::vector<QueryOutcome> expected = reference.RunAll(specs);
  const std::vector<QueryOutcome> results = published.RunAll(specs);
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_TRUE(SameResults(results[i], expected[i])) << "spec " << i;
  }
}

TEST_F(IngestTest, PublishIndexIsEpochInvisibleAndIgnoresOlderBases) {
  const DbSnapshot seed_snapshot = db().Snapshot();
  ApplyWrites();
  const uint64_t version = db().version();
  const DbSnapshot before = db().Snapshot();

  auto rebuilt = UstTree::Build(db());
  ASSERT_TRUE(rebuilt.ok());
  auto base = std::make_shared<const UstTree>(rebuilt.MoveValue());
  db().PublishIndex(base);

  // The index is a cache, not state: publication must not move the epoch,
  // and a snapshot pinned before publication stays valid.
  EXPECT_EQ(db().version(), version);
  EXPECT_EQ(db().Snapshot().version(), version);
  EXPECT_EQ(db().Snapshot().base_index().get(), base.get());

  // Same epoch, before vs after publication: bit-identical answers — the
  // atomicity claim, observable through the query path.
  const std::vector<QuerySpec> specs = MakeSpecs(6);
  QuerySession pre(before, index_.get());
  QuerySession post(db().Snapshot(), db().Snapshot().base_index().get());
  const std::vector<QueryOutcome> a = pre.RunAll(specs);
  const std::vector<QueryOutcome> b = post.RunAll(specs);
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_TRUE(SameResults(a[i], b[i])) << "spec " << i;
  }

  // Re-publishing an older base is a no-op: freshest wins (a slow
  // compactor finishing after a fast one must not roll the cache back).
  auto stale_rebuild = UstTree::Build(seed_snapshot);
  ASSERT_TRUE(stale_rebuild.ok());
  db().PublishIndex(
      std::make_shared<const UstTree>(stale_rebuild.MoveValue()));
  EXPECT_EQ(db().Snapshot().base_index().get(), base.get());
}

TEST_F(IngestTest, DeltaDepthCountsDistinctObjectsAndDrainsOnPublish) {
  const uint64_t v0 = db().version();
  const ObjectId extended = 2;
  const Tic end = db().object(extended).last_tic();
  ASSERT_TRUE(db().ExtendLifetime(extended, end + 2).ok());
  ASSERT_TRUE(db().ExtendLifetime(extended, end + 4).ok());
  const ObjectId added = AddObjectAt(T_.start, T_.end);

  // Two distinct rewritten objects, not three log records.
  DbSnapshot snapshot = db().Snapshot();
  EXPECT_EQ(snapshot.DeltaDepth(v0), 2u);
  const std::vector<ObjectId> changed = snapshot.ChangedSince(v0);
  ASSERT_EQ(changed.size(), 2u);
  EXPECT_EQ(changed[0], extended);
  EXPECT_EQ(changed[1], added);

  auto rebuilt = UstTree::Build(db());
  ASSERT_TRUE(rebuilt.ok());
  db().PublishIndex(std::make_shared<const UstTree>(rebuilt.MoveValue()));

  // Drained: nothing is stale relative to the published base...
  snapshot = db().Snapshot();
  ASSERT_NE(snapshot.base_index(), nullptr);
  const uint64_t built = snapshot.base_index()->built_version();
  EXPECT_EQ(built, db().version());
  EXPECT_EQ(snapshot.DeltaDepth(built), 0u);
  EXPECT_TRUE(snapshot.ChangedSince(built).empty());
  // ...and a base from *before* the trimmed log reads as "rebuild
  // everything" rather than pretending the gap is empty.
  EXPECT_EQ(snapshot.DeltaDepth(v0), snapshot.size());
}

TEST_F(IngestTest, ConcurrentWriterAndCompactorKeepEveryEpochBitIdentical) {
  // A writer lands objects while a compactor loop rebuilds and publishes as
  // fast as it can. After each write the main thread pins that epoch and
  // checks: whatever base ∪ delta combination the session picks up at that
  // instant must match the index-free fallback bit for bit.
  const std::vector<QuerySpec> specs = MakeSpecs(4);
  std::atomic<bool> stop{false};
  std::thread compactor([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      DbSnapshot snapshot = db().Snapshot();
      const UstTree* base = snapshot.base_index() != nullptr
                                ? snapshot.base_index().get()
                                : index_.get();
      if (base->built_version() == snapshot.version()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      auto tree = UstTree::Build(snapshot);
      ASSERT_TRUE(tree.ok());
      db().PublishIndex(std::make_shared<const UstTree>(tree.MoveValue()));
    }
  });

  for (int round = 0; round < 6; ++round) {
    AddObjectAt(T_.start, T_.end + round);
    const DbSnapshot snapshot = db().Snapshot();
    const UstTree* base = snapshot.base_index() != nullptr
                              ? snapshot.base_index().get()
                              : index_.get();
    Counter drops;
    SessionOptions options;
    options.stale_index_drops = &drops;
    QuerySession indexed(snapshot, base, options);
    QuerySession reference(snapshot, nullptr);
    // The base was read from this very snapshot (or is the seed tree over
    // an untrimmed log), so the delta patch can never be blocked by the
    // floor: no drops, whatever the compactor did in between.
    EXPECT_FALSE(indexed.dropped_stale_index());
    EXPECT_EQ(drops.value(), 0u);
    const std::vector<QueryOutcome> a = indexed.RunAll(specs);
    const std::vector<QueryOutcome> b = reference.RunAll(specs);
    for (size_t i = 0; i < specs.size(); ++i) {
      EXPECT_TRUE(SameResults(a[i], b[i]))
          << "round " << round << " spec " << i;
    }
  }
  stop.store(true, std::memory_order_relaxed);
  compactor.join();
}

TEST_F(IngestTest, ServerCompactsInBackgroundAndMatchesSerialReference) {
  ApplyWrites();
  const std::vector<QuerySpec> specs = MakeSpecs(12);
  QuerySession reference(db().Snapshot(), nullptr);
  ASSERT_TRUE(reference.Prepare().ok());
  const std::vector<QueryOutcome> expected = reference.RunAll(specs);

  ServerOptions options;
  options.lanes = 2;
  options.max_batch_size = 4;
  options.max_batch_delay_ms = 1.0;
  options.compaction = true;
  options.compaction_interval_ms = 1.0;
  options.compaction_min_depth = 1;
  QueryServer server(db(), index_.get(), options);

  // Queries racing the compactor on the stale post-write epoch: every
  // outcome must match the serial index-free reference regardless of
  // whether its session rode the seed tree + delta or an already-published
  // compacted base.
  std::vector<std::future<QueryOutcome>> futures(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    futures[i] = server.Submit(specs[i]);
  }
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_TRUE(SameResults(futures[i].get(), expected[i])) << "spec " << i;
  }

  // The compactor folds the writes into a published base...
  for (int spin = 0; db().Snapshot().base_index() == nullptr ||
                     db().Snapshot().base_index()->built_version() <
                         db().version();
       ++spin) {
    ASSERT_LT(spin, 2000) << "compactor never caught up";
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // ...after which the same stream still returns the same bits.
  for (size_t i = 0; i < specs.size(); ++i) {
    futures[i] = server.Submit(specs[i]);
  }
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_TRUE(SameResults(futures[i].get(), expected[i]))
        << "post-compaction spec " << i;
  }
  server.Stop();

  const ServerStats stats = server.Stats();
  EXPECT_GE(stats.compactions, 1u);
  EXPECT_EQ(stats.compaction_failures, 0u);
  EXPECT_EQ(stats.delta_depth, 0u);
  EXPECT_EQ(stats.cache.stale_index_drops, 0u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.completed, 2 * specs.size());

  // The maintenance instruments ride the self-enumerating metrics dump.
  const std::string json = stats.ToJson();
  EXPECT_NE(json.find("\"compactions\""), std::string::npos);
  EXPECT_NE(json.find("\"compaction_failures\""), std::string::npos);
  EXPECT_NE(json.find("\"delta_depth\""), std::string::npos);
  EXPECT_NE(json.find("\"stale_index_drops\""), std::string::npos);
}

TEST_F(IngestTest, UstDeltaBuildRecordsChangedObjectsInIdOrder) {
  const uint64_t v0 = db().version();
  const ObjectId added = AddObjectAt(T_.start, T_.end);
  const Tic end = db().object(0).last_tic();
  ASSERT_TRUE(db().ExtendLifetime(0, end + 3).ok());

  auto delta = UstDelta::Build(db().Snapshot(), v0);
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(delta.value().depth(), 2u);
  EXPECT_FALSE(delta.value().empty());
  EXPECT_TRUE(delta.value().Contains(0));
  EXPECT_TRUE(delta.value().Contains(added));
  EXPECT_FALSE(delta.value().Contains(1));
  ASSERT_EQ(delta.value().objects().size(), 2u);
  // Ascending by id — the merge in BuildProfiles depends on it.
  EXPECT_EQ(delta.value().objects()[0].object, 0u);
  EXPECT_EQ(delta.value().objects()[1].object, added);
  // The extension's delta entries tile the object's *entire* (extended)
  // lifetime, replacing its stale base entries outright.
  EXPECT_EQ(delta.value().objects()[0].first_tic,
            db().object(0).first_tic());
  EXPECT_EQ(delta.value().objects()[0].last_tic, end + 3);
  EXPECT_FALSE(delta.value().objects()[0].entries.empty());
}

TEST_F(IngestTest, DeltaToBuildsOneSharedDeltaPerEpoch) {
  // The base's own epoch needs no patch: an empty delta.
  auto own = index_->DeltaTo(db().Snapshot());
  ASSERT_TRUE(own.ok());
  EXPECT_TRUE(own.value()->empty());

  const uint64_t v0 = index_->built_version();
  AddObjectAt(T_.start, T_.end);
  const DbSnapshot first = db().Snapshot();
  const DbSnapshot second = db().Snapshot();  // same epoch, another handle
  auto a = index_->DeltaTo(first);
  auto b = index_->DeltaTo(second);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().get(), b.value().get());
  EXPECT_EQ(a.value()->base_version(), v0);
  EXPECT_EQ(a.value()->version(), first.version());

  // Sessions over that epoch hold the memoized delta instead of their own.
  QuerySession session(first, index_.get());
  EXPECT_FALSE(session.dropped_stale_index());
  EXPECT_EQ(session.delta_depth(), a.value()->depth());
  EXPECT_EQ(index_->DeltaTo(first).value().get(), a.value().get());

  // A later epoch gets a new delta, equal to an uncached build.
  const Tic end = db().object(2).last_tic();
  ASSERT_TRUE(db().ExtendLifetime(2, end + 5).ok());
  const DbSnapshot later = db().Snapshot();
  auto c = index_->DeltaTo(later);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(c.value().get(), a.value().get());
  auto fresh = UstDelta::Build(later, v0);
  ASSERT_TRUE(fresh.ok());
  const auto& memo_objects = c.value()->objects();
  const auto& fresh_objects = fresh.value().objects();
  ASSERT_EQ(memo_objects.size(), fresh_objects.size());
  EXPECT_EQ(memo_objects.size(), 2u);
  for (size_t i = 0; i < memo_objects.size(); ++i) {
    EXPECT_EQ(memo_objects[i].object, fresh_objects[i].object);
    EXPECT_EQ(memo_objects[i].first_tic, fresh_objects[i].first_tic);
    EXPECT_EQ(memo_objects[i].last_tic, fresh_objects[i].last_tic);
    ASSERT_EQ(memo_objects[i].entries.size(), fresh_objects[i].entries.size());
    for (size_t j = 0; j < memo_objects[i].entries.size(); ++j) {
      const UstTree::SegmentEntry& x = memo_objects[i].entries[j];
      const UstTree::SegmentEntry& y = fresh_objects[i].entries[j];
      EXPECT_EQ(x.object, y.object);
      EXPECT_EQ(x.t_lo, y.t_lo);
      EXPECT_EQ(x.t_hi, y.t_hi);
      EXPECT_EQ(x.mbr.lo, y.mbr.lo);  // bitwise
      EXPECT_EQ(x.mbr.hi, y.mbr.hi);
    }
  }
  // The earlier epoch's delta is still served from the memo.
  EXPECT_EQ(index_->DeltaTo(first).value().get(), a.value().get());
}

TEST_F(IngestTest, DeltaToRefusesEpochsItCannotPatch) {
  // A tree built at a later epoch cannot patch an earlier snapshot.
  const DbSnapshot before = db().Snapshot();
  AddObjectAt(T_.start, T_.end);
  auto newer = UstTree::Build(db());
  ASSERT_TRUE(newer.ok());
  EXPECT_FALSE(newer.value().DeltaTo(before).ok());

  // Once the change log is trimmed past the old base, its deltas are gone.
  db().PublishIndex(std::make_shared<const UstTree>(newer.MoveValue()));
  AddObjectAt(T_.start, T_.end);
  EXPECT_FALSE(index_->DeltaTo(db().Snapshot()).ok());
  QuerySession session(db(), index_.get());
  EXPECT_TRUE(session.dropped_stale_index());
}

TEST_F(IngestTest, DeltaToRacingThreadsShareOneBuild) {
  ApplyWrites();
  const DbSnapshot snapshot = db().Snapshot();
  trace::Disable();
  trace::Enable(1 << 10);
  constexpr int kThreads = 4;
  std::vector<const UstDelta*> got(kThreads, nullptr);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      auto delta = index_->DeltaTo(snapshot);
      if (delta.ok()) got[i] = delta.value().get();
    });
  }
  for (std::thread& t : threads) t.join();
  trace::Disable();
  ASSERT_NE(got[0], nullptr);
  for (int i = 1; i < kThreads; ++i) EXPECT_EQ(got[i], got[0]);
  EXPECT_EQ(got[0]->depth(), 3u);  // two inserts + one extension

  // The trace shows the one build, tagged with its epoch.
  size_t builds = 0;
  for (const trace::TraceEvent& e : trace::Snapshot()) {
    if (e.name != nullptr && std::string(e.name) == "delta_build") {
      ++builds;
      EXPECT_EQ(e.arg, snapshot.version());
    }
  }
  EXPECT_EQ(builds, 1u);
  trace::Reset();
}

}  // namespace
}  // namespace ust
