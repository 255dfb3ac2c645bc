#ifndef MODB_PERFBENCH_CHECK_H_
#define MODB_PERFBENCH_CHECK_H_

// Answer checks computed apart from the store under test:
//  - against the simulator's ground truth at the current tick (Theorems 5/6
//    for range answers, Props 2-4 for position answers, distance brackets
//    for nearest answers), with the tick-discretisation tolerance the
//    fleet simulator itself uses (2 * V * tick);
//  - against a brute-force reference: a flat copy of each object's latest
//    attribute, built from the benchmark's own inputs and scanned without
//    any index.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/position_attribute.h"
#include "core/uncertainty.h"
#include "db/query.h"
#include "db/subscription_engine.h"
#include "geo/route_network.h"
#include "inputs.h"

namespace modb::perfbench {

class Reference {
 public:
  Reference(const geo::RouteNetwork* network,
            std::vector<core::PositionAttribute> initial, double horizon);

  /// Mirrors what the store does with an accepted update.
  void Apply(const core::PositionUpdate& update);
  /// Drops the per-time caches of the previous round.
  void NextRound() { cache_.clear(); }
  const std::vector<core::PositionAttribute>& attrs() const { return attrs_; }

  struct RangeIds {
    std::vector<core::ObjectId> must;
    std::vector<core::ObjectId> may;
  };
  RangeIds Range(const Rect& rect, core::Time t);
  RangeIds Interval(const Rect& rect, core::Time t1, core::Time t2);
  /// The `k` visible objects whose database positions are nearest to
  /// `point` at `t`, ascending by distance, with ids.
  std::vector<std::pair<double, core::ObjectId>> Nearest(
      const geo::Point2& point, core::Time t, std::size_t k);
  /// Database-position distance of `id` to `point` at `t` (negative when
  /// the object is not visible at `t`).
  double DbDistance(const geo::Point2& point, core::Time t, core::ObjectId id);
  /// The relation the subscription engine must hold for (`spec`, `id`).
  core::RegionRelation SubscriptionRelation(const db::SubscriptionSpec& spec,
                                            core::ObjectId id) const;

 private:
  struct AtTime {
    std::vector<core::UncertaintyInterval> iv;
    std::vector<geo::Box2> cover;  // box covering the interval on the route
    std::vector<geo::Point2> db_position;
    std::vector<char> visible;
  };
  struct Window {
    core::Time t1 = 0.0, t2 = -1.0;
    std::uint64_t version = 0;
    std::vector<core::UncertaintyInterval> span;
    std::vector<geo::Box2> cover;
    std::vector<char> visible;
  };
  const AtTime& Prepare(core::Time t);
  const Window& PrepareWindow(core::Time t1, core::Time t2);
  bool Visible(const core::PositionAttribute& a, core::Time t1,
               core::Time t2) const {
    return t2 >= a.start_time && t1 <= a.start_time + horizon_;
  }
  geo::Box2 Cover(const geo::Route& route,
                  const core::UncertaintyInterval& iv) const;

  const geo::RouteNetwork* network_;
  std::vector<core::PositionAttribute> attrs_;
  double horizon_;
  std::uint64_t version_ = 0;  // bumped by Apply; invalidates the caches
  std::map<core::Time, std::pair<std::uint64_t, AtTime>> cache_;
  Window window_;
};

/// Collects check outcomes; the first few failures are logged to stderr.
class Checker {
 public:
  Checker(const geo::RouteNetwork* network,
          const std::vector<std::unique_ptr<sim::VehicleBase>>* vehicles,
          double tolerance)
      : network_(network), vehicles_(vehicles), tolerance_(tolerance) {}

  /// Each returns true when the answer passes. Failures are counted unless
  /// `quiet` (the checker's self-test uses quiet checks on tampered copies).
  bool RangeMatches(const db::RangeAnswer& a, const Reference::RangeIds& ref,
                    const char* what, bool quiet = false);
  bool IntervalMatches(const db::IntervalRangeAnswer& a,
                       const Reference::RangeIds& ref, bool quiet = false);
  bool RangeSound(const db::RangeAnswer& a, const Rect& rect, core::Time t,
                  bool quiet = false);
  bool NearestMatches(const db::NearestAnswer& a, std::size_t k,
                      const geo::Point2& point, core::Time t, Reference& ref,
                      bool quiet = false);
  /// With `interval_only`, also tells whether the answer failed on the
  /// interval containing the true position alone.
  bool PositionSound(const db::PositionAnswer& a, core::Time t,
                     const core::PositionAttribute& ref, bool quiet = false,
                     bool* interval_only = nullptr);
  bool AttributeEquals(core::ObjectId id, const core::PositionAttribute& got,
                       const core::PositionAttribute& want,
                       bool quiet = false);
  bool TextMatches(const TextQuery& q, const std::string& out, core::Time t,
                   Reference& ref);
  /// Compares the relation replayed from a subscription's event stream
  /// with the reference, for every object.
  bool SubscriptionsMatch(
      const std::vector<Subscription>& subs,
      const std::map<std::pair<db::SubscriptionId, core::ObjectId>,
                     core::RegionRelation>& replayed,
      const std::vector<char>& touched, const Reference& ref);

  /// Objects truly inside `rect` shrunk by the tolerance at `t`.
  std::vector<core::ObjectId> TrulyInside(const Rect& rect, core::Time t) const;

  void Fail(const std::string& message);
  std::uint64_t failures() const { return failures_; }

 private:
  const geo::RouteNetwork* network_;
  const std::vector<std::unique_ptr<sim::VehicleBase>>* vehicles_;
  double tolerance_;
  std::uint64_t failures_ = 0;
  // Ground-truth positions at `truth_time_`.
  mutable core::Time truth_time_ = -1.0;
  mutable std::vector<geo::Point2> truth_;
};

}  // namespace modb::perfbench

#endif  // MODB_PERFBENCH_CHECK_H_
