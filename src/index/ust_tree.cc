#include "index/ust_tree.h"

#include <algorithm>
#include <limits>

#include "graph/reachability.h"
#include "index/ust_delta.h"
#include "util/check.h"
#include "util/trace.h"

namespace ust {

const std::pair<CsrGraph, CsrGraph>& SupportGraphCache::For(
    const TransitionMatrix& matrix) {
  auto it = graphs_.find(&matrix);
  if (it == graphs_.end()) {
    CsrGraph forward = matrix.SupportGraph();
    CsrGraph reversed = forward.Reversed();
    it = graphs_
             .emplace(&matrix,
                      std::make_pair(std::move(forward), std::move(reversed)))
             .first;
  }
  return it->second;
}

Status AppendObjectSegments(const DbSnapshot& db, const UncertainObject& obj,
                            SupportGraphCache* graphs,
                            std::vector<UstTree::SegmentEntry>* out) {
  const auto& [forward, reversed] = graphs->For(obj.matrix());
  const auto& items = obj.observations().items();
  if (items.size() == 1 && obj.last_tic() == items[0].time) {
    UstTree::SegmentEntry entry;
    entry.object = obj.id();
    entry.t_lo = entry.t_hi = items[0].time;
    const Point2& p = db.space().coord(items[0].state);
    entry.mbr = MakeRect2(p.x, p.y, p.x, p.y);
    out->push_back(entry);
    return Status::OK();
  }
  for (size_t i = 0; i + 1 < items.size(); ++i) {
    const int steps = static_cast<int>(items[i + 1].time - items[i].time);
    auto diamond = DiamondReachability(forward, reversed, items[i].state,
                                       items[i + 1].state, steps);
    Rect2 mbr;
    bool contradiction = false;
    for (const auto& slice : diamond) {
      if (slice.empty()) {
        contradiction = true;
        break;
      }
      for (StateId s : slice) {
        const Point2& p = db.space().coord(s);
        mbr.Extend({p.x, p.y});
      }
    }
    if (contradiction) {
      return Status::Contradiction(
          "object " + std::to_string(obj.id()) +
          " has contradicting observations in segment " + std::to_string(i));
    }
    UstTree::SegmentEntry entry;
    entry.object = obj.id();
    entry.t_lo = items[i].time;
    entry.t_hi = items[i + 1].time;
    entry.mbr = mbr;
    out->push_back(entry);
  }
  // Lifetime extension past the last observation: the bound is the plain
  // forward-reachable cone (no later observation caps it).
  if (obj.last_tic() > items.back().time) {
    const int steps = static_cast<int>(obj.last_tic() - items.back().time);
    auto cone = ForwardReachability(forward, items.back().state, steps);
    Rect2 mbr;
    for (const auto& slice : cone) {
      for (StateId s : slice) {
        const Point2& p = db.space().coord(s);
        mbr.Extend({p.x, p.y});
      }
    }
    UstTree::SegmentEntry entry;
    entry.object = obj.id();
    entry.t_lo = items.back().time;
    entry.t_hi = obj.last_tic();
    entry.mbr = mbr;
    out->push_back(entry);
  }
  return Status::OK();
}

Result<UstTree> UstTree::Build(const DbSnapshot& db) {
  return Build(db, RStarTree::Options());
}

Result<UstTree> UstTree::Build(const DbSnapshot& db,
                               RStarTree::Options options) {
  UstTree tree(options);
  tree.db_ = db.WithoutIndex();
  tree.space_bounds_ = db.space().BoundingBox();
  // Support graphs are shared between objects using the same matrix.
  SupportGraphCache graphs;
  std::vector<SegmentEntry> segments;
  for (size_t obj_index = 0; obj_index < db.size(); ++obj_index) {
    const UncertainObject& obj = db.object(static_cast<ObjectId>(obj_index));
    segments.clear();
    UST_RETURN_NOT_OK(AppendObjectSegments(db, obj, &graphs, &segments));
    for (const SegmentEntry& entry : segments) {
      tree.rtree_.Insert(WithTimeInterval(entry.mbr, entry.t_lo, entry.t_hi),
                         tree.entries_.size());
      tree.entries_.push_back(entry);
    }
  }
  return tree;
}

Result<std::shared_ptr<const UstDelta>> UstTree::DeltaTo(
    const DbSnapshot& db) const {
  if (db.version() < built_version() || db.delta_floor() > built_version()) {
    return Status::InvalidArgument(
        "no delta from base epoch " + std::to_string(built_version()) +
        " to epoch " + std::to_string(db.version()));
  }
  // A handful of epochs covers every session a lane can still be building
  // over this base: writes advance the epoch, and older epochs' sessions
  // are already cached.
  constexpr size_t kMaxMemoDeltas = 4;
  std::lock_guard<std::mutex> lock(deltas_->mu);
  auto& recent = deltas_->recent;
  for (const auto& [version, delta] : recent) {
    if (version == db.version()) return delta;
  }
  auto delta = [&]() -> Result<std::shared_ptr<const UstDelta>> {
    UST_TRACE_SCOPE("delta_build", db.version(), "epoch");
    auto built = UstDelta::Build(db, built_version());
    if (!built.ok()) return built.status();
    return std::shared_ptr<const UstDelta>(
        std::make_shared<UstDelta>(built.MoveValue()));
  }();
  if (recent.size() >= kMaxMemoDeltas) recent.erase(recent.begin());
  recent.emplace_back(db.version(), delta);
  return delta;
}

UstTree::TimeSlab UstTree::MakeTimeSlab(const TimeInterval& T) const {
  // Fetch all segment rectangles overlapping the query time slab through the
  // R*-tree (prunes by time; space is left open since dmax bounds require
  // every alive object).
  Rect3 slab_box = WithTimeInterval(space_bounds_, static_cast<double>(T.start),
                                    static_cast<double>(T.end));
  std::vector<uint64_t> hits = rtree_.Query(slab_box);
  std::map<ObjectId, std::vector<const SegmentEntry*>> per_object;
  for (uint64_t idx : hits) {
    const SegmentEntry& e = entries_[idx];
    per_object[e.object].push_back(&e);
  }
  TimeSlab slab;
  slab.T = T;
  slab.per_object.reserve(per_object.size());
  for (auto& [object, segments] : per_object) {
    slab.per_object.emplace_back(object, std::move(segments));
  }
  return slab;
}

std::vector<UstTree::DistanceProfile> UstTree::BuildProfiles(
    const QueryTrajectory& q, const TimeInterval& T, const TimeSlab* slab,
    const UstDelta* delta) const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const size_t len = T.length();
  TimeSlab local;
  if (slab == nullptr) {
    local = MakeTimeSlab(T);
    slab = &local;
  }
  UST_DCHECK(slab->T == T);

  // Accumulate one covering rectangle into a profile (tighter bound wins
  // where rectangles overlap a tic).
  auto accumulate = [&](DistanceProfile* profile, const SegmentEntry& seg) {
    Tic lo = std::max(T.start, seg.t_lo);
    Tic hi = std::min(T.end, seg.t_hi);
    for (Tic t = lo; t <= hi; ++t) {
      const size_t rel = static_cast<size_t>(t - T.start);
      double dmin = MinDistance(q.At(t), seg.mbr);
      double dmax = MaxDistance(q.At(t), seg.mbr);
      // Multiple rectangles can cover an observation tic; both bounds hold,
      // so keep the tighter of each.
      if (profile->dmin[rel] == kInf) {
        profile->dmin[rel] = dmin;
        profile->dmax[rel] = dmax;
      } else {
        profile->dmin[rel] = std::max(profile->dmin[rel], dmin);
        profile->dmax[rel] = std::min(profile->dmax[rel], dmax);
      }
    }
  };

  std::vector<DistanceProfile> profiles;
  profiles.reserve(slab->per_object.size() +
                   (delta == nullptr ? 0 : delta->objects().size()));

  // Emit the profile of one delta object if its lifetime overlaps T. Delta
  // entries tile the whole lifetime, so the overlap test matches exactly the
  // set of objects a rebuilt tree's slab traversal would surface.
  auto emit_delta = [&](const UstDelta::DeltaObject& d) {
    if (d.first_tic > T.end || d.last_tic < T.start) return;
    DistanceProfile profile;
    profile.object = d.object;
    profile.first_tic = d.first_tic;
    profile.last_tic = d.last_tic;
    profile.dmin.assign(len, kInf);
    profile.dmax.assign(len, kInf);
    for (const SegmentEntry& seg : d.entries) {
      if (seg.t_lo > T.end || seg.t_hi < T.start) continue;
      accumulate(&profile, seg);
    }
    profiles.push_back(std::move(profile));
  };

  // Merge the (id-sorted) base slab with the (id-sorted) delta objects.
  // Delta objects replace their base counterparts outright: a rewritten
  // object's base rectangles describe its pre-write lifetime and are stale.
  size_t di = 0;
  const size_t dn = delta == nullptr ? 0 : delta->objects().size();
  for (const auto& [object, segments] : slab->per_object) {
    while (di < dn && delta->objects()[di].object < object) {
      emit_delta(delta->objects()[di++]);
    }
    if (di < dn && delta->objects()[di].object == object) {
      emit_delta(delta->objects()[di++]);
      continue;
    }
    DistanceProfile profile;
    profile.object = object;
    const UncertainObject& obj = db_.object(object);
    profile.first_tic = obj.first_tic();
    profile.last_tic = obj.last_tic();
    profile.dmin.assign(len, kInf);
    profile.dmax.assign(len, kInf);
    for (const SegmentEntry* seg : segments) accumulate(&profile, *seg);
    profiles.push_back(std::move(profile));
  }
  while (di < dn) emit_delta(delta->objects()[di++]);
  return profiles;
}

namespace {

// k-th smallest finite dmax at each tic; +inf where fewer than k objects are
// alive (then nothing can be pruned at that tic).
std::vector<double> PruningDistances(
    const std::vector<UstTree::DistanceProfile>& profiles, size_t len, int k) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> prune(len, kInf);
  std::vector<double> values;
  for (size_t rel = 0; rel < len; ++rel) {
    values.clear();
    for (const auto& p : profiles) {
      if (p.dmax[rel] != kInf) values.push_back(p.dmax[rel]);
    }
    if (values.size() >= static_cast<size_t>(k)) {
      std::nth_element(values.begin(), values.begin() + (k - 1), values.end());
      prune[rel] = values[k - 1];
    }
  }
  return prune;
}

}  // namespace

PruneResult UstTree::PruneForall(const QueryTrajectory& q,
                                 const TimeInterval& T, int k,
                                 const TimeSlab* slab,
                                 const UstDelta* delta) const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  auto profiles = BuildProfiles(q, T, slab, delta);
  const size_t len = T.length();
  auto prune = PruningDistances(profiles, len, k);
  PruneResult result;
  for (const auto& p : profiles) {
    bool influencer = false;
    bool candidate = p.first_tic <= T.start && p.last_tic >= T.end;
    for (size_t rel = 0; rel < len; ++rel) {
      if (p.dmin[rel] == kInf) continue;  // not alive at this tic
      if (p.dmin[rel] <= prune[rel]) {
        influencer = true;
      } else {
        candidate = false;  // beaten for sure at this tic
      }
    }
    if (candidate && influencer) result.candidates.push_back(p.object);
    if (influencer) result.influencers.push_back(p.object);
  }
  return result;
}

PruneResult UstTree::PruneExists(const QueryTrajectory& q,
                                 const TimeInterval& T, int k,
                                 const TimeSlab* slab,
                                 const UstDelta* delta) const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  auto profiles = BuildProfiles(q, T, slab, delta);
  const size_t len = T.length();
  auto prune = PruningDistances(profiles, len, k);
  PruneResult result;
  for (const auto& p : profiles) {
    for (size_t rel = 0; rel < len; ++rel) {
      if (p.dmin[rel] != kInf && p.dmin[rel] <= prune[rel]) {
        result.candidates.push_back(p.object);
        result.influencers.push_back(p.object);
        break;
      }
    }
  }
  return result;
}

}  // namespace ust
