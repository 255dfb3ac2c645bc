#include "store.h"

#include "db/query_language.h"
#include "db/recovery.h"
#include "db/sharded_database.h"

namespace modb::perfbench {

class WalFiles::File : public util::WritableFile {
 public:
  File(WalFiles* owner, std::unique_ptr<util::WritableFile> base)
      : owner_(owner), base_(std::move(base)) {}

  util::Status Append(std::string_view data) override {
    Tracer::Scope span(owner_->tracer_, SpanName::kWalAppend);
    owner_->bytes += data.size();
    ++owner_->appends;
    return base_->Append(data);
  }
  util::Status Sync() override {
    Tracer::Scope span(owner_->tracer_, SpanName::kWalSync);
    ++owner_->syncs;
    return base_->Sync();
  }
  util::Status Close() override { return base_->Close(); }

 private:
  WalFiles* owner_;
  std::unique_ptr<util::WritableFile> base_;
};

util::WritableFileFactory WalFiles::factory() {
  return [this, base = util::DefaultWritableFileFactory()](
             const std::string& path)
             -> util::Result<std::unique_ptr<util::WritableFile>> {
    auto file = base(path);
    if (!file.ok()) return file.status();
    return std::unique_ptr<util::WritableFile>(
        std::make_unique<File>(this, std::move(*file)));
  };
}

db::ModDatabaseOptions DatabaseOptions(const WorkloadConfig& config,
                                       std::size_t pool_pages) {
  db::ModDatabaseOptions options;  // R*-tree, horizon 120, slab 4
  options.group_tracking.enabled = config.group_tracking;
  options.index_storage.pool_pages = pool_pages;  // in-memory page storage
  return options;
}

namespace {

db::DurabilityOptions Durability(const util::WritableFileFactory& wal_files) {
  db::DurabilityOptions options;
  options.wal.sync_every_bytes = kWalSyncBytes;
  options.wal.file_factory = wal_files;
  return options;
}

class ShardedStore final : public Store {
 public:
  ShardedStore(const WorkloadConfig& config, const geo::RouteNetwork* network,
               const std::string& dir,
               const util::WritableFileFactory& wal_files,
               std::size_t pool_pages)
      : db_(network, Options(config, dir, wal_files, pool_pages)) {}

  static db::ShardedModDatabaseOptions Options(
      const WorkloadConfig& config, const std::string& dir,
      const util::WritableFileFactory& wal_files, std::size_t pool_pages) {
    db::ShardedModDatabaseOptions o;
    o.num_shards = config.shards;
    o.num_query_threads = 0;  // fan-out inline on the calling thread
    o.db = DatabaseOptions(config, pool_pages);
    o.durable_dir = dir;
    o.durability = Durability(wal_files);
    o.enable_subscriptions = config.subscriptions > 0;
    // No faults are injected; the remediation loop would only poll.
    o.supervisor.auto_remediate = false;
    return o;
  }

  util::Status status() const { return db_.durability_status(); }

  util::Status BulkInsert(
      std::vector<db::ModDatabase::BulkObject> objects) override {
    return db_.BulkInsert(std::move(objects));
  }
  util::Status Subscribe(db::SubscriptionId id,
                         const db::SubscriptionSpec& spec) override {
    return db_.Subscribe(id, spec);
  }
  db::UpdateBatchResult Apply(
      std::span<const core::PositionUpdate> updates) override {
    return db_.ApplyUpdateBatch(updates);
  }
  std::vector<db::SubscriptionEvent> TakeEvents() override {
    return db_.TakeSubscriptionEvents();
  }
  db::RangeAnswer Range(const geo::Polygon& region,
                        core::Time t) const override {
    return db_.QueryRange(region, t);
  }
  db::IntervalRangeAnswer Interval(const geo::Polygon& region, core::Time t1,
                                   core::Time t2) const override {
    return db_.QueryRangeInterval(region, t1, t2);
  }
  db::NearestAnswer Nearest(const geo::Point2& point, std::size_t k,
                            core::Time t) const override {
    return db_.QueryNearest(point, k, t);
  }
  util::Result<db::PositionAnswer> Position(core::ObjectId id,
                                            core::Time t) const override {
    return db_.QueryPosition(id, t);
  }
  util::Result<std::string> Text(std::string_view text) override {
    return db::ExecuteQuery(db_, text);
  }
  util::Status Checkpoint() override { return db_.Checkpoint(); }
  void ForEachRecord(const std::function<void(const db::MovingObjectRecord&)>&
                         fn) const override {
    db_.ForEachRecord(fn);
  }
  std::size_t num_objects() const override { return db_.num_objects(); }
  const db::ModDatabase* single() const override { return nullptr; }
  std::uint64_t Counter(const std::string& name) override {
    return db_.metrics().GetCounter(name)->value();
  }
  std::int64_t Gauge(const std::string& name) override {
    return db_.metrics().GetGauge(name)->value();
  }
  std::uint64_t records_replayed() const override {
    return db_.recovery_report().wal_records_replayed;
  }

 private:
  db::ShardedModDatabase db_;
};

class SingleStore final : public Store {
 public:
  SingleStore(const WorkloadConfig& config, const geo::RouteNetwork* network,
              std::size_t pool_pages)
      : db_(network, DatabaseOptions(config, pool_pages)),
        subscriptions_(network) {
    db_.SetMetrics(&registry_);
    subscriptions_.SetMetrics(&registry_, "sub.");
  }
  ~SingleStore() override {
    // The WAL detaches from the database before either goes away.
    durability_.reset();
    db_.AttachSubscriptions(nullptr);
  }

  util::Status Open(const std::string& dir,
                    const util::WritableFileFactory& wal_files) {
    auto durability =
        db::DurabilityManager::Open(&db_, dir, Durability(wal_files));
    if (!durability.ok()) return durability.status();
    durability_ = std::move(*durability);
    durability_->ExportMetrics(&registry_);
    // Attached after recovery: replay does not notify consumers.
    db_.AttachSubscriptions(&subscriptions_);
    return util::Status::Ok();
  }

  util::Status BulkInsert(
      std::vector<db::ModDatabase::BulkObject> objects) override {
    return db_.BulkInsert(std::move(objects));
  }
  util::Status Subscribe(db::SubscriptionId id,
                         const db::SubscriptionSpec& spec) override {
    return subscriptions_.Subscribe(id, spec);
  }
  db::UpdateBatchResult Apply(
      std::span<const core::PositionUpdate> updates) override {
    return db_.ApplyUpdateBatch(updates);
  }
  std::vector<db::SubscriptionEvent> TakeEvents() override {
    return subscriptions_.TakeEvents();
  }
  db::RangeAnswer Range(const geo::Polygon& region,
                        core::Time t) const override {
    return db_.QueryRange(region, t);
  }
  db::IntervalRangeAnswer Interval(const geo::Polygon& region, core::Time t1,
                                   core::Time t2) const override {
    return db_.QueryRangeInterval(region, t1, t2);
  }
  db::NearestAnswer Nearest(const geo::Point2& point, std::size_t k,
                            core::Time t) const override {
    return db_.QueryNearest(point, k, t);
  }
  util::Result<db::PositionAnswer> Position(core::ObjectId id,
                                            core::Time t) const override {
    return db_.QueryPosition(id, t);
  }
  util::Result<std::string> Text(std::string_view text) override {
    return db::ExecuteQuery(db_, text);
  }
  util::Status Checkpoint() override { return durability_->Checkpoint(); }
  void ForEachRecord(const std::function<void(const db::MovingObjectRecord&)>&
                         fn) const override {
    db_.ForEachRecord(fn);
  }
  std::size_t num_objects() const override { return db_.num_objects(); }
  const db::ModDatabase* single() const override { return &db_; }
  std::uint64_t Counter(const std::string& name) override {
    return registry_.GetCounter(name)->value();
  }
  std::int64_t Gauge(const std::string& name) override {
    return registry_.GetGauge(name)->value();
  }
  std::uint64_t records_replayed() const override {
    return durability_->recovery_report().wal_records_replayed;
  }

 private:
  // Declaration order: the registry outlives everything that reports into
  // it; the durability manager is reset first in the destructor.
  util::MetricsRegistry registry_;
  db::ModDatabase db_;
  db::SubscriptionEngine subscriptions_;
  std::unique_ptr<db::DurabilityManager> durability_;
};

}  // namespace

util::Result<std::unique_ptr<Store>> OpenStore(
    const WorkloadConfig& config, const geo::RouteNetwork* network,
    const std::string& dir, const util::WritableFileFactory& wal_files,
    std::size_t pool_pages) {
  if (config.shards > 0) {
    auto store = std::make_unique<ShardedStore>(config, network, dir,
                                                wal_files, pool_pages);
    if (util::Status s = store->status(); !s.ok()) return s;
    return std::unique_ptr<Store>(std::move(store));
  }
  auto store = std::make_unique<SingleStore>(config, network, pool_pages);
  if (util::Status s = store->Open(dir, wal_files); !s.ok()) return s;
  return std::unique_ptr<Store>(std::move(store));
}

}  // namespace modb::perfbench
