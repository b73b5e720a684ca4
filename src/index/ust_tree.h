// UST-tree (Emrich et al., CIKM 2012 [25]) as used for spatial pruning in
// Section 6: for every pair of consecutive observations of an object, the
// set of possibly visited (location, time) pairs — the reachability
// "diamond" — is bounded by a minimum bounding rectangle over the time
// interval, and all such rectangles are indexed in an R*-tree.
//
// Query-time pruning computes, per query tic t, each object's dmin/dmax to
// q(t) from its covering rectangles and derives:
//   C∀(q) = {o alive throughout T : ∀t ∈ T, dmin_o(t) <= min_o' dmax_o'(t)}
//   I∀(q) = {o : ∃t ∈ T, dmin_o(t) <= min_o' dmax_o'(t)}
// For P∃NNQ no candidate/influence distinction exists: every object in I may
// be a result. The pruning distance generalizes to the k-th smallest dmax
// for kNN queries (Section 8).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "graph/csr_graph.h"
#include "index/rstar_tree.h"
#include "model/trajectory_database.h"
#include "query/query.h"
#include "util/status.h"

namespace ust {

class UstDelta;

/// \brief Pruning output: result candidates and influence objects.
struct PruneResult {
  std::vector<ObjectId> candidates;   ///< may satisfy the query predicate
  std::vector<ObjectId> influencers;  ///< may affect others' probabilities
};

/// \brief Forward/reversed support-graph pair per transition matrix, shared
/// between objects using the same matrix while building segment entries
/// (computing the pair dominates build cost for shared-matrix databases).
struct SupportGraphCache {
  const std::pair<CsrGraph, CsrGraph>& For(const TransitionMatrix& matrix);

 private:
  std::map<const TransitionMatrix*, std::pair<CsrGraph, CsrGraph>> graphs_;
};

/// \brief The UST-tree index over an uncertain trajectory database.
class UstTree {
 public:
  /// One leaf rectangle: an object's conservative (space x time) bound
  /// between two consecutive observations.
  struct SegmentEntry {
    ObjectId object;
    Tic t_lo, t_hi;
    Rect2 mbr;
  };

  /// Build diamonds for every observation segment of every object.
  /// Reachability is computed on the support of each object's a-priori
  /// matrix, so the bound is conservative (independent of probabilities).
  /// The tree pins the snapshot it was built over (a live database converts
  /// to its current epoch); built_version() identifies that epoch so serving
  /// code can detect a stale index after online writes.
  static Result<UstTree> Build(const DbSnapshot& db);
  static Result<UstTree> Build(const DbSnapshot& db,
                               RStarTree::Options options);

  /// Epoch of the snapshot this tree indexes. Pruning against a database at
  /// a different version may miss objects — callers must not pass this tree
  /// to sessions over other epochs (QuerySession drops a mismatched index).
  uint64_t built_version() const { return db_.version(); }

  /// The UstDelta patching this tree up to `db`'s epoch (empty when `db` is
  /// this tree's own epoch). A delta is a pure function of (db epoch, base
  /// epoch), so it is built once per epoch and shared by every caller: the
  /// tree memoizes the last few epochs' deltas, keyed by db.version(), and
  /// builds under the memo's lock so callers racing on a fresh epoch wait
  /// for one build. Failed builds are memoized too. `db` must be a snapshot
  /// of the database this tree indexes, at an epoch >= built_version() whose
  /// change log reaches back to it (db.delta_floor() <= built_version());
  /// otherwise InvalidArgument. Thread-safe.
  Result<std::shared_ptr<const UstDelta>> DeltaTo(const DbSnapshot& db) const;

  /// \brief Reusable index-traversal state for one query time interval: the
  /// segment rectangles overlapping T, grouped per object (sorted by id).
  /// Pruning only depends on the query trajectory beyond this, so a batch of
  /// queries sharing T walks the R*-tree once and prunes from the slab.
  struct TimeSlab {
    TimeInterval T{0, 0};
    std::vector<std::pair<ObjectId, std::vector<const SegmentEntry*>>>
        per_object;
  };

  /// Collect the slab of `T` (one R*-tree traversal).
  TimeSlab MakeTimeSlab(const TimeInterval& T) const;

  /// Candidates and influencers for P∀(k)NN queries. When `slab` is given it
  /// must have been built for the same T; the traversal is then skipped.
  /// When `delta` is given (an UstDelta over this tree's epoch), its objects
  /// are probed alongside the base slab — delta segment entries replace the
  /// base entries of rewritten objects, so the result is bit-identical to
  /// pruning with a tree rebuilt at the delta's epoch.
  PruneResult PruneForall(const QueryTrajectory& q, const TimeInterval& T,
                          int k = 1, const TimeSlab* slab = nullptr,
                          const UstDelta* delta = nullptr) const;

  /// Candidates (== influencers) for P∃(k)NN queries.
  PruneResult PruneExists(const QueryTrajectory& q, const TimeInterval& T,
                          int k = 1, const TimeSlab* slab = nullptr,
                          const UstDelta* delta = nullptr) const;

  const std::vector<SegmentEntry>& entries() const { return entries_; }
  const RStarTree& rtree() const { return rtree_; }

  /// Per-object dmin/dmax profile over T, +inf where the object is not
  /// alive. Exposed for white-box tests; not part of the stable API.
  struct DistanceProfile {
    ObjectId object;
    Tic first_tic, last_tic;  // object alive span
    std::vector<double> dmin, dmax;  // indexed by t - T.start
  };

 private:
  UstTree(RStarTree::Options options) : rtree_(options) {}

  std::vector<DistanceProfile> BuildProfiles(const QueryTrajectory& q,
                                             const TimeInterval& T,
                                             const TimeSlab* slab,
                                             const UstDelta* delta) const;

  std::vector<SegmentEntry> entries_;
  RStarTree rtree_;
  Rect2 space_bounds_;
  /// The indexed epoch (snapshots are cheap: two shared_ptrs + a version).
  /// Stored WithoutIndex(): a compacted tree must not transitively pin the
  /// base tree (and change log) of the snapshot it was built from.
  DbSnapshot db_;

  /// DeltaTo's memo: the most recent epochs' deltas, oldest first. Behind a
  /// pointer so the tree stays movable; dies with the tree, so compaction
  /// publishing a new base retires the old base's deltas with it.
  struct DeltaMemo {
    std::mutex mu;
    std::vector<std::pair<uint64_t, Result<std::shared_ptr<const UstDelta>>>>
        recent;
  };
  std::unique_ptr<DeltaMemo> deltas_ = std::make_unique<DeltaMemo>();
};

/// \brief Append the segment entries (diamond MBRs, plus the forward cone for
/// a lifetime extension) of one object to `out`, in the same order
/// UstTree::Build produces them. Shared between full builds and the delta
/// layer so a delta's rectangles are bit-identical to a rebuilt tree's.
Status AppendObjectSegments(const DbSnapshot& db, const UncertainObject& obj,
                            SupportGraphCache* graphs,
                            std::vector<UstTree::SegmentEntry>* out);

}  // namespace ust
