#include "inputs.h"

#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "sim/speed_curve.h"
#include "sim/trip.h"
#include "util/rng.h"

namespace modb::perfbench {
namespace {

// Every queried or subscribed time stays within the o-plane horizon (120)
// of every object's last update, so index answers are exact and the
// brute-force reference needs no horizon special case in practice.
//
// fleet-ingest's queries follow E13's 90/10 update/query mix: a round
// carries about 220 updates, so 24 queries: 7 for each of the three forms
// with a p99, and 3 text queries. dispatch-read's read-heavy mix and both
// position blocks are this benchmark's own choice (see the README).
std::vector<WorkloadConfig> MakeWorkloads() {
  std::vector<WorkloadConfig> all;
  {
    WorkloadConfig c;
    c.name = "fleet-ingest";
    c.vehicles = 10000;
    c.tick = 0.25;
    c.max_rounds = 400;
    c.restart_round = 30;
    c.shards = 4;
    c.pool_share = 0.25;
    c.subscriptions = 300;
    c.range_now = 7;
    c.interval = 7;
    c.nearest = 7;
    c.position_lookups = 200;
    c.text = 3;
    all.push_back(c);
  }
  {
    WorkloadConfig c;
    c.name = "dispatch-read";
    c.convoys = 100;
    c.per_convoy = 10;
    c.vehicles = 4000;
    c.group_tracking = true;
    c.tick = 0.02;
    c.max_rounds = 5000;
    c.restart_round = 300;
    c.subscriptions = 50;
    c.range_now = 20;
    c.range_future = 12;
    c.interval = 16;
    c.nearest = 16;
    c.position_lookups = 400;
    c.text = 5;
    all.push_back(c);
  }
  return all;
}

const std::vector<WorkloadConfig>& Workloads() {
  static const std::vector<WorkloadConfig> all = MakeWorkloads();
  return all;
}

Rect RectAt(double cx, double cy) {
  // Whole-number corners keep the text form of a rectangle exact.
  Rect r;
  const double h = kRegionHalf;
  cx = std::round(cx);
  cy = std::round(cy);
  r.box = geo::Box2({cx - h, cy - h}, {cx + h, cy + h});
  r.polygon = geo::Polygon::Rectangle(cx - h, cy - h, cx + h, cy + h);
  return r;
}

void MakeQueries(const WorkloadConfig& config, double extent,
                 std::size_t vehicles, util::Rng& rng, RoundQueries* q) {
  auto random_rect = [&]() {
    return RectAt(rng.Uniform(0.0, extent), rng.Uniform(0.0, extent));
  };
  auto random_point = [&]() {
    return geo::Point2{std::round(rng.Uniform(0.0, extent)),
                       std::round(rng.Uniform(0.0, extent))};
  };
  auto random_id = [&]() {
    return static_cast<core::ObjectId>(
        rng.UniformInt(0, static_cast<std::int64_t>(vehicles) - 1));
  };
  for (std::size_t i = 0; i < config.range_now; ++i)
    q->range_now.push_back(random_rect());
  for (std::size_t i = 0; i < config.range_future; ++i)
    q->range_future.push_back(random_rect());
  for (std::size_t i = 0; i < config.interval; ++i)
    q->interval.push_back(random_rect());
  for (std::size_t i = 0; i < config.nearest; ++i)
    q->nearest.push_back(random_point());
  for (std::size_t i = 0; i < config.position_lookups; ++i)
    q->positions.push_back(random_id());
  for (std::size_t i = 0; i < config.text; ++i) {
    TextQuery tq;
    // A fixed mix (3 range : 1 nearest : 1 position), so the median falls
    // inside the range-query mode whatever the seed.
    switch (i % 5 < 3 ? 0 : i % 5 - 2) {
      case 0: {
        tq.kind = TextQuery::Kind::kRange;
        tq.rect = random_rect();
        const geo::Box2& b = tq.rect.box;
        tq.text = "SELECT ALL INSIDE RECT(" + ExactNumber(b.min.x) + ", " +
                  ExactNumber(b.min.y) + ", " + ExactNumber(b.max.x) + ", " +
                  ExactNumber(b.max.y) + ")";
        break;
      }
      case 1:
        tq.kind = TextQuery::Kind::kNearest;
        tq.point = random_point();
        tq.k = kNearestK;
        tq.text = "NEAREST " + std::to_string(tq.k) + " TO POINT(" +
                  ExactNumber(tq.point.x) + ", " + ExactNumber(tq.point.y) +
                  ")";
        break;
      default:
        tq.kind = TextQuery::Kind::kPosition;
        tq.id = random_id();
        tq.text = "POSITION OF " + std::to_string(tq.id);
        break;
    }
    q->text.push_back(std::move(tq));
  }
}

}  // namespace

const WorkloadConfig* FindWorkload(const std::string& name) {
  for (const WorkloadConfig& c : Workloads()) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadConfig& c : Workloads()) names.push_back(c.name);
  return names;
}

Inputs Generate(const WorkloadConfig& config, std::uint64_t seed) {
  Inputs in;
  util::Rng rng(seed);
  in.network = std::make_unique<geo::RouteNetwork>();
  in.network->AddGridNetwork(kGridStreets, kGridStreets, kGridSpacing);
  const geo::RouteNetwork& net = *in.network;
  const std::size_t grid_routes = net.size();
  const double extent =
      kGridSpacing * static_cast<double>(kGridStreets - 1);
  const double horizon_end =
      static_cast<double>(config.max_rounds) * config.tick;

  sim::CurveGenOptions curve;
  curve.duration = std::ceil(horizon_end) + 30.0;
  curve.step = 1.0;
  curve.cruise_speed = 1.0;
  curve.max_speed = 1.5;

  const double end_margin = curve.max_speed * (horizon_end + 20.0);
  auto random_route = [&]() -> const geo::Route& {
    return net.route(static_cast<geo::RouteId>(
        rng.UniformInt(0, static_cast<std::int64_t>(grid_routes) - 1)));
  };
  auto add_vehicle = [&](const geo::Route& route, double start,
                         core::TravelDirection dir, sim::SpeedCurve speeds,
                         core::PolicyKind policy, core::Time start_time = 0.0,
                         double fixed_threshold = 0.0) {
    core::PolicyConfig pc;
    pc.kind = policy;
    pc.update_cost = kUpdateCost;
    pc.max_speed = curve.max_speed;
    if (fixed_threshold > 0.0) pc.fixed_threshold = fixed_threshold;
    const auto id = static_cast<core::ObjectId>(in.vehicles.size());
    sim::Trip trip(&route, start, dir, start_time, std::move(speeds));
    in.vehicles.push_back(std::make_unique<sim::Vehicle>(
        id, std::move(trip), core::MakePolicy(pc)));
  };

  // Platoons as in sim::BuildConvoyFleet: one shared curve per convoy,
  // members 0.5 apart, all on cil so they declare the same speed. Unlike
  // BuildConvoyFleet, trips start anywhere along the route short of the end
  // margin, so the platoons spread over the whole grid.
  for (std::size_t c = 0; c < config.convoys; ++c) {
    const geo::Route& route = random_route();
    const sim::SpeedCurve profile = sim::MakeConvoyCurve(rng, curve);
    const double base = rng.Uniform(
        0.0, route.Length() - end_margin -
                 0.5 * static_cast<double>(config.per_convoy));
    for (std::size_t m = 0; m < config.per_convoy; ++m) {
      add_vehicle(route, base + 0.5 * static_cast<double>(m),
                  core::TravelDirection::kForward, profile,
                  core::PolicyKind::kCurrentImmediateLinear);
    }
  }
  const core::PolicyKind policies[] = {
      core::PolicyKind::kDelayedLinear,
      core::PolicyKind::kAverageImmediateLinear,
      core::PolicyKind::kCurrentImmediateLinear};
  for (std::size_t i = 0; i < config.vehicles; ++i) {
    const geo::Route& route = random_route();
    sim::SpeedCurve speeds;
    switch (i % 4) {
      case 0: speeds = sim::MakeHighwayCurve(rng, curve); break;
      case 1: speeds = sim::MakeCityCurve(rng, curve); break;
      case 2: speeds = sim::MakeTrafficJamCurve(rng, curve); break;
      default: speeds = sim::MakeRushHourCurve(rng, curve); break;
    }
    // Every vehicle keeps at least `end_margin` of route ahead for the
    // whole run, so neither it nor its database position reaches a route
    // end: such a trip would fail the position check on some seeds only.
    // The route-end fault is measured by the fixed probe below instead.
    const bool forward = rng.Bernoulli(0.5);
    const double start = forward
                             ? rng.Uniform(0.0, route.Length() - end_margin)
                             : rng.Uniform(end_margin, route.Length());
    const auto dir = forward ? core::TravelDirection::kForward
                             : core::TravelDirection::kBackward;
    add_vehicle(route, start, dir, std::move(speeds), policies[(i / 4) % 3]);
  }

  // The route-end probe, the same in every run whatever the seed: a
  // dead-reckoning vehicle (fixed threshold B = 2) on a 100-long route
  // 100 west of the grid, where no query region, nearest query or
  // subscription reaches. It reported at t = -19 at 10 before the route end
  // moving at 1, and stopped at 1 before the end at t = -10. Its database
  // position passes the end at t = -9 and it stays within B of the clamped
  // database position, so it never sends another update. A sound position
  // answer's interval holds its true position; core::ComputeUncertainty
  // centres the interval on the unclamped position, so in every round the
  // answered interval is the end point alone, one unit from the truth.
  {
    const geo::Route& route = net.route(in.network->AddRoute(
        geo::Polyline({{-200.0, 0.0}, {-100.0, 0.0}}), "route-end probe"));
    std::vector<double> speeds(9, 1.0);
    speeds.resize(static_cast<std::size_t>(curve.duration) + 40, 0.0);
    in.route_end_probe = static_cast<core::ObjectId>(in.vehicles.size());
    add_vehicle(route, route.Length() - 10.0,
                core::TravelDirection::kForward,
                sim::SpeedCurve(std::move(speeds), 1.0),
                core::PolicyKind::kFixedThreshold, -19.0, 2.0);
  }

  in.initial.reserve(in.vehicles.size());
  for (auto& v : in.vehicles) in.initial.push_back(v->InitialAttribute());

  const db::SubscriptionMode modes[] = {db::SubscriptionMode::kAll,
                                        db::SubscriptionMode::kMay,
                                        db::SubscriptionMode::kMust};
  for (std::size_t i = 0; i < config.subscriptions; ++i) {
    Subscription s;
    s.id = static_cast<db::SubscriptionId>(i + 1);
    const Rect rect =
        RectAt(rng.Uniform(0.0, extent), rng.Uniform(0.0, extent));
    s.spec.region = rect.polygon;
    s.spec.mode = modes[i % 3];
    s.spec.time = std::round(rng.Uniform(config.tick, horizon_end));
    if (i % 4 == 3) {
      s.spec.windowed = true;
      s.spec.window_end = s.spec.time + kWindow;
    }
    in.subscriptions.push_back(std::move(s));
  }
  in.rng = rng;
  in.extent = extent;
  return in;
}

double Inputs::MsgsPerVehicleHour(const WorkloadConfig& config) const {
  // Over the mixed fleet: the route-end probe sends nothing.
  const double hours = static_cast<double>(rounds_made) * config.tick / 60.0;
  return static_cast<double>(total_updates) /
         (static_cast<double>(route_end_probe) * hours);
}

Round NextRound(const WorkloadConfig& config, Inputs* in) {
  Round round;
  const double t = RoundTime(config, in->rounds_made++);
  for (auto& v : in->vehicles) {
    if (auto update = v->Tick(t)) round.updates.push_back(*update);
  }
  in->total_updates += round.updates.size();
  // Query ids range over the mixed fleet only, not the route-end probe.
  MakeQueries(config, in->extent, in->route_end_probe, in->rng,
              &round.queries);
  return round;
}

}  // namespace modb::perfbench
