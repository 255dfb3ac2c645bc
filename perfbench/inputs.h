#ifndef MODB_PERFBENCH_INPUTS_H_
#define MODB_PERFBENCH_INPUTS_H_

// Workload definitions and the seeded generation of their inputs: a fleet
// of simulated vehicles (ground truth), the position-update stream their
// policies emit, standing subscriptions and per-round query inputs. The
// store under test only ever receives the fleet's initial attributes, the
// update stream and the queries.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/position_attribute.h"
#include "core/update_policy.h"
#include "db/mod_database.h"
#include "db/subscription_engine.h"
#include "geo/box.h"
#include "geo/polygon.h"
#include "geo/route_network.h"
#include "sim/vehicle.h"
#include "util/rng.h"

namespace modb::perfbench {

// Settings every workload shares. The grid, C = 5 and V = 1.5 are those of
// the repository's index experiment (E7, bench/exp_index_query.cc), whose
// 40 x 40 query rectangles are used here too; k = 5 is E13's
// (bench/exp_concurrent_throughput.cc); 64 is one of E16's uplink batch
// sizes (bench/exp_update_throughput.cc).
constexpr double kUpdateCost = 5.0;        // C
constexpr std::size_t kGridStreets = 20;   // kGridStreets^2 street grid
constexpr double kGridSpacing = 30.0;
constexpr std::size_t kUplinkBatch = 64;
constexpr std::uint64_t kWalSyncBytes = 64 << 10;  // fsync per 64 KiB
constexpr std::size_t kNearestK = 5;
constexpr double kRegionHalf = 20.0;    // query rectangles are 2h x 2h
constexpr double kFutureOffset = 10.0;  // range-future queries at now + 10
constexpr double kWindow = 8.0;         // interval queries: [now, now + 8]

/// One named workload: what differs between them.
struct WorkloadConfig {
  std::string name;
  // Fleet: `convoys` platoons of `per_convoy` vehicles sharing one convoy
  // speed curve (all cil), then `vehicles` mixed vehicles cycling the
  // paper's four speed-curve kinds (highway, city, traffic jam, rush hour)
  // against dl / ail / cil.
  std::size_t convoys = 0;
  std::size_t per_convoy = 0;
  std::size_t vehicles = 0;
  // Simulated time per closed-loop round, and the most rounds a run makes.
  double tick = 1.0;
  std::size_t max_rounds = 100;
  // The store writes a checkpoint after round restart_round / 2 and is
  // closed and reopened after round restart_round (restart from that
  // checkpoint + the WAL since); every run reaches it.
  std::size_t restart_round = 20;
  // Store.
  std::size_t shards = 0;  // 0 = one ModDatabase, else ShardedModDatabase
  bool group_tracking = false;
  // Buffer-pool frames as a share of the index's page working set after the
  // bulk load (0 = unbounded, the resident in-memory tree).
  double pool_share = 0.0;
  std::size_t subscriptions = 0;
  // Queries per round.
  std::size_t range_now = 0;
  std::size_t range_future = 0;
  std::size_t interval = 0;
  std::size_t nearest = 0;
  std::size_t position_lookups = 0;  // timed as one block
  std::size_t text = 0;
};

/// Returns the config named `name`, or nullptr.
const WorkloadConfig* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

/// One axis-aligned query rectangle, kept with its polygon so checks can
/// inflate or shrink it exactly.
struct Rect {
  geo::Box2 box;
  geo::Polygon polygon;
};

struct TextQuery {
  enum class Kind { kRange, kNearest, kPosition } kind;
  std::string text;
  Rect rect;             // kRange
  geo::Point2 point;     // kNearest
  std::size_t k = 0;     // kNearest
  core::ObjectId id = 0; // kPosition
};

/// The query inputs of one round (times are filled in at run time from
/// the round's clock: now = (round + 1) * tick).
struct RoundQueries {
  std::vector<Rect> range_now;
  std::vector<Rect> range_future;
  std::vector<Rect> interval;
  std::vector<geo::Point2> nearest;
  std::vector<core::ObjectId> positions;
  std::vector<TextQuery> text;
};

struct Subscription {
  db::SubscriptionId id = 0;
  db::SubscriptionSpec spec;
};

/// One closed-loop round: the updates the fleet's policies emitted during
/// the round's tick (lossless channel), and the round's query inputs.
struct Round {
  std::vector<core::PositionUpdate> updates;
  RoundQueries queries;
};

/// Everything a run needs, generated from (config, seed). The fleet and
/// subscriptions are made up front; rounds are made one at a time by
/// `NextRound`, since each one advances the simulated vehicles.
struct Inputs {
  std::unique_ptr<geo::RouteNetwork> network;
  std::vector<std::unique_ptr<sim::VehicleBase>> vehicles;  // id == index
  std::vector<core::PositionAttribute> initial;             // id == index
  std::vector<Subscription> subscriptions;
  // The last vehicle, alone on a short route of its own away from the grid:
  // it stopped one unit short of the route end before the run began, and
  // its database position has run past that end (see the README).
  core::ObjectId route_end_probe = 0;
  std::size_t rounds_made = 0;
  std::size_t total_updates = 0;
  util::Rng rng{0};
  double extent = 0.0;  // the street grid spans [0, extent]^2

  /// Position updates per vehicle per hour over the rounds made so far
  /// (the time unit is the minute).
  double MsgsPerVehicleHour(const WorkloadConfig& config) const;
};

Inputs Generate(const WorkloadConfig& config, std::uint64_t seed);

/// Advances every vehicle to the next round's clock and returns that round.
Round NextRound(const WorkloadConfig& config, Inputs* in);

/// Simulated time of round `r`'s clock.
inline double RoundTime(const WorkloadConfig& config, std::size_t r) {
  return static_cast<double>(r + 1) * config.tick;
}

}  // namespace modb::perfbench

#endif  // MODB_PERFBENCH_INPUTS_H_
