#include "check.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>

namespace modb::perfbench {
namespace {

constexpr int kMaxLogged = 10;

// The sampling step QueryRangeInterval and the subscription engine use by
// default for MUST-at-some-instant.
constexpr double kMustSampleStep = 1.0;

bool MustAtSomeInstant(const core::PositionAttribute& attr,
                       const geo::Route& route, const geo::Polygon& region,
                       core::Time t1, core::Time t2) {
  for (core::Time t = t1;; t += kMustSampleStep) {
    const core::Time clamped = std::min(t, t2);
    const core::UncertaintyInterval iv =
        core::ComputeUncertainty(attr, route, clamped);
    if (core::ClassifyAgainstPolygon(iv, route, region) ==
        core::RegionRelation::kMustBeIn) {
      return true;
    }
    if (clamped >= t2) return false;
  }
}

std::vector<core::ObjectId> IdsAfter(const std::string& out,
                                     const std::string& label) {
  std::vector<core::ObjectId> ids;
  const std::size_t at = out.find(label);
  if (at == std::string::npos) return ids;
  const std::size_t end = out.find('\n', at);
  const std::size_t from = at + label.size();
  std::istringstream line(out.substr(from, end - from));
  std::string token;
  while (line >> token) {
    if (token == "(none)") break;
    ids.push_back(static_cast<core::ObjectId>(std::stoull(token)));
  }
  return ids;
}

}  // namespace

Reference::Reference(const geo::RouteNetwork* network,
                     std::vector<core::PositionAttribute> initial,
                     double horizon)
    : network_(network), attrs_(std::move(initial)), horizon_(horizon) {}

void Reference::Apply(const core::PositionUpdate& u) {
  core::PositionAttribute& a = attrs_[static_cast<std::size_t>(u.object)];
  a.start_time = u.time;
  a.route = u.route;
  a.start_route_distance = u.route_distance;
  a.start_position = u.position;
  a.direction = u.direction;
  a.speed = u.speed;
  ++version_;
}

geo::Box2 Reference::Cover(const geo::Route& route,
                           const core::UncertaintyInterval& iv) const {
  // Route distance bounds straight-line distance, so the stretch [lo, hi]
  // lies within half its length of its midpoint.
  const geo::Point2 mid = route.PointAt(0.5 * (iv.lo + iv.hi));
  const double r = 0.5 * (iv.hi - iv.lo) + 1e-9;
  return geo::Box2({mid.x - r, mid.y - r}, {mid.x + r, mid.y + r});
}

const Reference::AtTime& Reference::Prepare(core::Time t) {
  auto& slot = cache_[t];
  if (slot.first == version_ + 1) return slot.second;
  AtTime& at = slot.second;
  const std::size_t n = attrs_.size();
  at.iv.assign(n, {});
  at.cover.assign(n, {});
  at.db_position.assign(n, {});
  at.visible.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const core::PositionAttribute& a = attrs_[i];
    if (!Visible(a, t, t)) continue;
    const geo::Route& route = network_->route(a.route);
    at.visible[i] = 1;
    at.iv[i] = core::ComputeUncertainty(a, route, t);
    at.cover[i] = Cover(route, at.iv[i]);
    at.db_position[i] =
        route.PointAt(a.ClampedDatabaseRouteDistanceAt(t, route.Length()));
  }
  slot.first = version_ + 1;
  return at;
}

Reference::RangeIds Reference::Range(const Rect& rect, core::Time t) {
  const AtTime& at = Prepare(t);
  RangeIds out;
  for (std::size_t i = 0; i < attrs_.size(); ++i) {
    if (!at.visible[i] || !at.cover[i].Intersects(rect.box)) continue;
    const geo::Route& route = network_->route(attrs_[i].route);
    switch (core::ClassifyAgainstPolygon(at.iv[i], route, rect.polygon)) {
      case core::RegionRelation::kMustBeIn:
        out.must.push_back(static_cast<core::ObjectId>(i));
        break;
      case core::RegionRelation::kMayBeIn:
        out.may.push_back(static_cast<core::ObjectId>(i));
        break;
      case core::RegionRelation::kOutside:
        break;
    }
  }
  return out;
}

const Reference::Window& Reference::PrepareWindow(core::Time t1,
                                                  core::Time t2) {
  Window& w = window_;
  if (w.t1 == t1 && w.t2 == t2 && w.version == version_ + 1) return w;
  const std::size_t n = attrs_.size();
  w.span.assign(n, {});
  w.cover.assign(n, {});
  w.visible.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const core::PositionAttribute& a = attrs_[i];
    if (!Visible(a, t1, t2)) continue;
    const geo::Route& route = network_->route(a.route);
    w.visible[i] = 1;
    w.span[i] = core::ComputeUncertaintySpan(a, route, t1, t2);
    w.cover[i] = Cover(route, w.span[i]);
  }
  w.t1 = t1;
  w.t2 = t2;
  w.version = version_ + 1;
  return w;
}

Reference::RangeIds Reference::Interval(const Rect& rect, core::Time t1,
                                        core::Time t2) {
  const Window& w = PrepareWindow(t1, t2);
  RangeIds out;  // must = MUST at some instant, may = MAY within window
  for (std::size_t i = 0; i < attrs_.size(); ++i) {
    if (!w.visible[i] || !w.cover[i].Intersects(rect.box)) continue;
    const core::PositionAttribute& a = attrs_[i];
    const geo::Route& route = network_->route(a.route);
    const core::UncertaintyInterval& span = w.span[i];
    if (!route.shape().SubIntersectsPolygon(span.lo, span.hi, rect.polygon)) {
      continue;
    }
    out.may.push_back(static_cast<core::ObjectId>(i));
    if (MustAtSomeInstant(a, route, rect.polygon, t1, t2)) {
      out.must.push_back(static_cast<core::ObjectId>(i));
    }
  }
  return out;
}

std::vector<std::pair<double, core::ObjectId>> Reference::Nearest(
    const geo::Point2& point, core::Time t, std::size_t k) {
  const AtTime& at = Prepare(t);
  std::vector<std::pair<double, core::ObjectId>> out;
  out.reserve(attrs_.size());
  for (std::size_t i = 0; i < attrs_.size(); ++i) {
    if (!at.visible[i]) continue;
    out.emplace_back(geo::Distance(point, at.db_position[i]),
                     static_cast<core::ObjectId>(i));
  }
  k = std::min(k, out.size());
  std::partial_sort(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(k),
                    out.end());
  out.resize(k);
  return out;
}

double Reference::DbDistance(const geo::Point2& point, core::Time t,
                             core::ObjectId id) {
  const AtTime& at = Prepare(t);
  const auto i = static_cast<std::size_t>(id);
  if (i >= attrs_.size() || !at.visible[i]) return -1.0;
  return geo::Distance(point, at.db_position[i]);
}

core::RegionRelation Reference::SubscriptionRelation(
    const db::SubscriptionSpec& spec, core::ObjectId id) const {
  const core::PositionAttribute& a = attrs_[static_cast<std::size_t>(id)];
  const core::Time t1 = std::max(spec.time, a.start_time);
  const core::Time t2 =
      std::min(spec.windowed ? spec.window_end : spec.time,
               a.start_time + horizon_);
  if (t1 > t2) return core::RegionRelation::kOutside;
  const geo::Route& route = network_->route(a.route);
  if (!spec.windowed) {
    return core::ClassifyAgainstPolygon(core::ComputeUncertainty(a, route, t1),
                                        route, spec.region);
  }
  const core::UncertaintyInterval span =
      core::ComputeUncertaintySpan(a, route, t1, t2);
  if (!route.shape().SubIntersectsPolygon(span.lo, span.hi, spec.region)) {
    return core::RegionRelation::kOutside;
  }
  return MustAtSomeInstant(a, route, spec.region, t1, t2)
             ? core::RegionRelation::kMustBeIn
             : core::RegionRelation::kMayBeIn;
}

void Checker::Fail(const std::string& message) {
  if (failures_ < kMaxLogged) {
    std::fprintf(stderr, "check failed: %s\n", message.c_str());
  }
  ++failures_;
}

bool Checker::RangeMatches(const db::RangeAnswer& a,
                           const Reference::RangeIds& ref, const char* what,
                           bool quiet) {
  const bool ok = a.must == ref.must && a.may == ref.may &&
                  a.may_probability.size() == a.may.size();
  if (!ok && !quiet) {
    Fail(std::string(what) + " answer differs from the reference at t=" +
         std::to_string(a.query_time) + " (must " +
         std::to_string(a.must.size()) + " vs " +
         std::to_string(ref.must.size()) + ", may " +
         std::to_string(a.may.size()) + " vs " +
         std::to_string(ref.may.size()) + ")");
  }
  return ok;
}

bool Checker::IntervalMatches(const db::IntervalRangeAnswer& a,
                              const Reference::RangeIds& ref, bool quiet) {
  const bool ok = a.may == ref.may && a.must_at_some_time == ref.must;
  if (!ok && !quiet) {
    Fail("interval answer differs from the reference on [" +
         std::to_string(a.window_start) + ", " +
         std::to_string(a.window_end) + "]");
  }
  return ok;
}

std::vector<core::ObjectId> Checker::TrulyInside(const Rect& rect,
                                                 core::Time t) const {
  geo::Box2 shrunk = rect.box;
  shrunk.Inflate(-tolerance_);
  std::vector<core::ObjectId> ids;
  if (shrunk.Empty()) return ids;
  if (truth_time_ != t) {
    truth_.clear();
    for (const auto& v : *vehicles_) {
      truth_.push_back(v->GroundTruthPositionAt(t));
    }
    truth_time_ = t;
  }
  for (std::size_t i = 0; i < truth_.size(); ++i) {
    if (shrunk.Contains(truth_[i])) {
      ids.push_back(static_cast<core::ObjectId>(i));
    }
  }
  return ids;
}

bool Checker::RangeSound(const db::RangeAnswer& a, const Rect& rect,
                         core::Time t, bool quiet) {
  // Theorem 5: MUST objects are inside (up to the tick tolerance).
  geo::Box2 grown = rect.box;
  grown.Inflate(tolerance_);
  for (core::ObjectId id : a.must) {
    const geo::Point2 p =
        (*vehicles_)[static_cast<std::size_t>(id)]->GroundTruthPositionAt(t);
    if (!grown.Contains(p)) {
      if (!quiet) {
        Fail("MUST object " + std::to_string(id) + " is outside at t=" +
             std::to_string(t));
      }
      return false;
    }
  }
  // Theorem 6: every object truly inside is in MUST or MAY.
  for (core::ObjectId id : TrulyInside(rect, t)) {
    if (!std::binary_search(a.must.begin(), a.must.end(), id) &&
        !std::binary_search(a.may.begin(), a.may.end(), id)) {
      if (!quiet) {
        Fail("object " + std::to_string(id) +
             " is inside but missing from MUST and MAY at t=" +
             std::to_string(t));
      }
      return false;
    }
  }
  return true;
}

bool Checker::NearestMatches(const db::NearestAnswer& a, std::size_t k,
                             const geo::Point2& point, core::Time t,
                             Reference& ref, bool quiet) {
  const auto want = ref.Nearest(point, t, k);
  bool ok = a.items.size() == want.size();
  // Ties in database distance may order ids either way: compare the
  // distances rank by rank, and each answered id against its own distance.
  std::set<core::ObjectId> seen;
  for (std::size_t i = 0; ok && i < want.size(); ++i) {
    const db::NearestAnswer::Item& item = a.items[i];
    ok = ref.DbDistance(point, t, item.id) == item.db_distance &&
         want[i].first == item.db_distance && seen.insert(item.id).second;
    if (!ok) break;
    // Ground truth: the true distance lies inside the answered bracket.
    const geo::Point2 p = (*vehicles_)[static_cast<std::size_t>(item.id)]
                              ->GroundTruthPositionAt(t);
    const double d = geo::Distance(point, p);
    ok = d >= item.min_possible_distance - tolerance_ &&
         d <= item.max_possible_distance + tolerance_;
  }
  if (!ok && !quiet) {
    Fail("nearest answer at t=" + std::to_string(t) +
         " differs from the reference or ground truth");
  }
  return ok;
}

bool Checker::PositionSound(const db::PositionAnswer& a, core::Time t,
                            const core::PositionAttribute& ref, bool quiet,
                            bool* interval_only) {
  const sim::VehicleBase& v = *(*vehicles_)[static_cast<std::size_t>(a.id)];
  const geo::Route& route = network_->route(ref.route);
  const double db_s = ref.ClampedDatabaseRouteDistanceAt(t, route.Length());
  const double actual = v.GroundTruthRouteDistanceAt(t);
  const bool in_interval = actual >= a.uncertainty.lo - tolerance_ &&
                           actual <= a.uncertainty.hi + tolerance_;
  const bool rest_ok = a.route == ref.route && a.route_distance == db_s &&
                       v.GroundTruthRouteIdAt(t) == a.route &&
                       std::fabs(actual - a.route_distance) <=
                           a.deviation_bound + tolerance_;
  const bool ok = in_interval && rest_ok;
  if (interval_only != nullptr) *interval_only = !in_interval && rest_ok;
  if (!ok && !quiet) {
    char detail[256];
    std::snprintf(detail, sizeof(detail),
                  " (true %.6f, db %.6f vs ref %.6f, interval [%.6f, %.6f], "
                  "bound %.6f, policy %s)",
                  actual, a.route_distance, db_s, a.uncertainty.lo,
                  a.uncertainty.hi, a.deviation_bound,
                  std::string(core::PolicyKindName(ref.policy)).c_str());
    Fail("position of " + std::to_string(a.id) + " at t=" + std::to_string(t) +
         " violates its bound or differs from the reference" + detail);
  }
  return ok;
}

bool Checker::AttributeEquals(core::ObjectId id,
                              const core::PositionAttribute& got,
                              const core::PositionAttribute& want,
                              bool quiet) {
  const bool ok =
      got.start_time == want.start_time && got.route == want.route &&
      got.start_route_distance == want.start_route_distance &&
      got.start_position.x == want.start_position.x &&
      got.start_position.y == want.start_position.y &&
      got.direction == want.direction && got.speed == want.speed &&
      got.policy == want.policy && got.update_cost == want.update_cost &&
      got.max_speed == want.max_speed;
  if (!ok && !quiet) {
    Fail("recovered attribute of " + std::to_string(id) +
         " differs from its last update: got " + got.ToString() + ", want " +
         want.ToString());
  }
  return ok;
}

bool Checker::TextMatches(const TextQuery& q, const std::string& out,
                          core::Time t, Reference& ref) {
  bool ok = true;
  switch (q.kind) {
    case TextQuery::Kind::kRange: {
      const Reference::RangeIds want = ref.Range(q.rect, t);
      ok = IdsAfter(out, "MUST:") == want.must &&
           IdsAfter(out, "MAY:") == want.may;
      break;
    }
    case TextQuery::Kind::kNearest: {
      const auto want = ref.Nearest(q.point, t, q.k);
      std::vector<core::ObjectId> ids;
      for (std::size_t at = out.find("object "); at != std::string::npos;
           at = out.find("object ", at + 1)) {
        ids.push_back(static_cast<core::ObjectId>(
            std::stoull(out.substr(at + 7, out.find(':', at) - at - 7))));
      }
      ok = ids.size() == want.size();
      for (core::ObjectId id : ids) {
        const double d = ref.DbDistance(q.point, t, id);
        ok = ok && d >= 0.0 && d <= want.back().first;
      }
      break;
    }
    case TextQuery::Kind::kPosition:
      ok = out.rfind("object " + std::to_string(q.id) + " at t=", 0) == 0;
      break;
  }
  if (!ok) Fail("text query '" + q.text + "' answered wrongly:\n" + out);
  return ok;
}

bool Checker::SubscriptionsMatch(
    const std::vector<Subscription>& subs,
    const std::map<std::pair<db::SubscriptionId, core::ObjectId>,
                   core::RegionRelation>& replayed,
    const std::vector<char>& touched, const Reference& ref) {
  using core::RegionRelation;
  bool ok = true;
  for (const Subscription& s : subs) {
    for (std::size_t i = 0; i < touched.size() && ok; ++i) {
      const auto id = static_cast<core::ObjectId>(i);
      const auto it = replayed.find({s.id, id});
      const RegionRelation got =
          it == replayed.end() ? RegionRelation::kOutside : it->second;
      // The engine starts every object Outside at Subscribe and only
      // re-evaluates objects that update afterwards.
      const RegionRelation want = touched[i]
                                      ? ref.SubscriptionRelation(s.spec, id)
                                      : RegionRelation::kOutside;
      switch (s.spec.mode) {
        case db::SubscriptionMode::kAll:
          ok = got == want;
          break;
        case db::SubscriptionMode::kMay:
          ok = (got != RegionRelation::kOutside) ==
               (want != RegionRelation::kOutside);
          break;
        case db::SubscriptionMode::kMust:
          ok = (got == RegionRelation::kMustBeIn) ==
               (want == RegionRelation::kMustBeIn);
          break;
      }
      if (!ok) {
        Fail("subscription " + std::to_string(s.id) + " holds relation " +
             std::string(core::RegionRelationName(got)) + " for object " +
             std::to_string(id) + ", reference " +
             std::string(core::RegionRelationName(want)));
      }
    }
  }
  return ok;
}

}  // namespace modb::perfbench
