#ifndef MODB_PERFBENCH_STORE_H_
#define MODB_PERFBENCH_STORE_H_

// The store under test behind one interface: either a ShardedModDatabase
// (fan-out inline, per-shard WAL + checkpoints, subscriptions) or a single
// ModDatabase made durable by a DurabilityManager with a SubscriptionEngine
// attached. Both open a durable directory: bootstrap when it is empty,
// recovery (checkpoint + WAL replay) when it holds a closed store.

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench_util.h"
#include "db/mod_database.h"
#include "db/query.h"
#include "db/subscription_engine.h"
#include "inputs.h"
#include "util/fault_injection.h"
#include "util/status.h"

namespace modb::perfbench {

/// WAL file factory that counts what the WAL writes and, when tracing,
/// records a span around each append and sync.
class WalFiles {
 public:
  explicit WalFiles(Tracer* tracer) : tracer_(tracer) {}
  WalFiles(const WalFiles&) = delete;
  WalFiles& operator=(const WalFiles&) = delete;

  util::WritableFileFactory factory();

  std::uint64_t bytes = 0;
  std::uint64_t appends = 0;
  std::uint64_t syncs = 0;

 private:
  class File;
  Tracer* tracer_;
};

class Store {
 public:
  virtual ~Store() = default;

  virtual util::Status BulkInsert(
      std::vector<db::ModDatabase::BulkObject> objects) = 0;
  virtual util::Status Subscribe(db::SubscriptionId id,
                                 const db::SubscriptionSpec& spec) = 0;
  virtual db::UpdateBatchResult Apply(
      std::span<const core::PositionUpdate> updates) = 0;
  virtual std::vector<db::SubscriptionEvent> TakeEvents() = 0;
  virtual db::RangeAnswer Range(const geo::Polygon& region,
                                core::Time t) const = 0;
  virtual db::IntervalRangeAnswer Interval(const geo::Polygon& region,
                                           core::Time t1,
                                           core::Time t2) const = 0;
  virtual db::NearestAnswer Nearest(const geo::Point2& point, std::size_t k,
                                    core::Time t) const = 0;
  virtual util::Result<db::PositionAnswer> Position(core::ObjectId id,
                                                    core::Time t) const = 0;
  virtual util::Result<std::string> Text(std::string_view text) = 0;
  /// Writes a checkpoint and starts a fresh WAL epoch.
  virtual util::Status Checkpoint() = 0;
  virtual void ForEachRecord(
      const std::function<void(const db::MovingObjectRecord&)>& fn) const = 0;
  virtual std::size_t num_objects() const = 0;
  /// The single database, for split probe/refine timing (null if sharded).
  virtual const db::ModDatabase* single() const = 0;
  /// Instruments of the store's metrics registry (0 when never touched).
  virtual std::uint64_t Counter(const std::string& name) = 0;
  virtual std::int64_t Gauge(const std::string& name) = 0;
  /// WAL records replayed when this store was opened.
  virtual std::uint64_t records_replayed() const = 0;
};

/// Opens (bootstraps or recovers) the workload's store in `dir`.
util::Result<std::unique_ptr<Store>> OpenStore(
    const WorkloadConfig& config, const geo::RouteNetwork* network,
    const std::string& dir, const util::WritableFileFactory& wal_files,
    std::size_t pool_pages);

/// Database options shared by the store and the benchmark's own copies.
db::ModDatabaseOptions DatabaseOptions(const WorkloadConfig& config,
                                       std::size_t pool_pages);

}  // namespace modb::perfbench

#endif  // MODB_PERFBENCH_STORE_H_
