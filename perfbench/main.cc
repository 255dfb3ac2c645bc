// modb benchmark driver: runs one named workload in this process, on the
// calling thread, checks every answer, and prints one JSON result line.
//
//   modb_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--out <dir>]
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 it
// holds the per-layer metrics of a traced run, and the spans plus the
// traced run's end-to-end figures are written under --out.

#include <fcntl.h>
#include <malloc.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "check.h"
#include "db/query_language.h"
#include "db/snapshot.h"
#include "index/timespace_index.h"
#include "inputs.h"
#include "store.h"

namespace modb::perfbench {
namespace {

namespace fs = std::filesystem;

const Clock::time_point kProcessStart = Clock::now();

constexpr double kHorizon = 120.0;  // ModDatabaseOptions::oplane_horizon
constexpr int kRecoveryCopies = 9;
// A run goes on past --seconds until each query form with a p99 metric has
// this many samples.
constexpr std::size_t kMinTailSamples = 1000;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out = ".bench_out";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    errno = 0;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (!(args->seconds > 0.0)) return false;
    } else if (key == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
      if (!args->trace && std::strcmp(value, "0") != 0) return false;
    } else if (key == "--out") {
      args->out = value;
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || errno != 0)) return false;
  }
  return argc % 2 == 1 && !args->workload.empty();
}

std::uint64_t DirBytes(const fs::path& dir) {
  std::uint64_t bytes = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

/// Flushes every file under `dir` to disk, so that write-back of earlier
/// writes does not land inside a timed section.
void SyncTree(const fs::path& dir) {
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const int fd = ::open(entry.path().c_str(), O_RDONLY);
    if (fd < 0) continue;
    ::fsync(fd);
    ::close(fd);
  }
}

/// The newest checkpoint file of every store directory under `dir`.
std::vector<fs::path> NewestCheckpoints(const fs::path& dir) {
  std::map<fs::path, fs::path> newest;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    const fs::path& p = entry.path();
    if (p.extension() != ".snap" ||
        p.filename().string().rfind("checkpoint-", 0) != 0) {
      continue;
    }
    fs::path& slot = newest[p.parent_path()];
    if (slot.empty() || slot.filename() < p.filename()) slot = p;
  }
  std::vector<fs::path> out;
  for (const auto& [parent, p] : newest) out.push_back(p);
  return out;
}

/// Pages of the index's working set after the bulk load: the frame count
/// of an unbounded pool over the same fleet.
std::size_t WorkingSetPages(const WorkloadConfig& config, const Inputs& in) {
  util::MetricsRegistry registry;
  db::ModDatabase probe(in.network.get(), DatabaseOptions(config, 0));
  probe.SetMetrics(&registry);
  std::vector<db::ModDatabase::BulkObject> fleet;
  for (std::size_t i = 0; i < in.initial.size(); ++i) {
    fleet.push_back({static_cast<core::ObjectId>(i), {}, in.initial[i]});
  }
  if (!probe.BulkInsert(std::move(fleet)).ok()) return 0;
  return static_cast<std::size_t>(
      registry.GetGauge("mod.index.pages.frames")->value());
}

class Runner {
 public:
  Runner(const WorkloadConfig& config, Inputs& in, const Args& args,
         double generation_s, std::size_t pool_pages, double rss_baseline_mb)
      : config_(config),
        in_(in),
        args_(args),
        generation_s_(generation_s),
        pool_pages_(pool_pages),
        rss_baseline_mb_(rss_baseline_mb),
        rss_peak_mb_(rss_baseline_mb),
        tracer_(args.trace),
        wal_files_(&tracer_),
        ref_(in.network.get(), in.initial, kHorizon),
        check_(in.network.get(), &in.vehicles,
               2.0 * 1.5 * config.tick + 1e-9),
        dir_(fs::path(args.out) /
             (config.name + "-" + std::to_string(::getpid()))) {}

  int Run();

 private:
  struct RoundAnswers {
    std::vector<db::RangeAnswer> range_now, range_future;
    std::vector<db::IntervalRangeAnswer> interval;
    std::vector<db::NearestAnswer> nearest;
    std::vector<util::Result<db::PositionAnswer>> positions;
    std::vector<util::Result<std::string>> text;
    std::vector<std::pair<std::size_t, db::UpdateBatchResult>> batches;
    util::Result<db::PositionAnswer> route_end_probe = util::Status::Ok();
  };

  bool Setup();
  void RunRound(std::size_t r, RoundAnswers* out);
  void SampleRss() { rss_peak_mb_ = std::max(rss_peak_mb_, CurrentRssMb()); }
  bool EnoughTailSamples() const {
    return range_us_.size() >= kMinTailSamples &&
           interval_us_.size() >= kMinTailSamples &&
           nearest_us_.size() >= kMinTailSamples;
  }
  void CheckRound(std::size_t r, const RoundAnswers& answers);
  void TraceExtras(std::size_t r);
  bool Restart();
  void CheckSubscriptions();
  void AddStoreCounters();
  void SelfTestRange(const db::RangeAnswer& a, const Rect& rect, core::Time t);
  MetricMap EndToEnd() const;
  MetricMap PerLayer() const;
  std::vector<db::ModDatabase::BulkObject> Fleet() const {
    std::vector<db::ModDatabase::BulkObject> fleet;
    fleet.reserve(in_.initial.size());
    for (std::size_t i = 0; i < in_.initial.size(); ++i) {
      fleet.push_back({static_cast<core::ObjectId>(i), std::to_string(i),
                       in_.initial[i]});
    }
    return fleet;
  }

  const WorkloadConfig& config_;
  Inputs& in_;
  const Args& args_;
  double generation_s_;
  std::size_t pool_pages_;
  // Resident set after input generation, and the largest sampled since.
  double rss_baseline_mb_;
  double rss_peak_mb_;
  Tracer tracer_;
  WalFiles wal_files_;
  Reference ref_;
  Checker check_;
  fs::path dir_;
  std::unique_ptr<Store> store_;
  Round round_;  // the round being run; each is dropped once checked

  // Benchmark-owned copies for the traced run: an index of the workload's
  // kind fed each batch's final attributes, and (for the sharded store) an
  // unsharded in-memory database for split probe/refine timing.
  std::unique_ptr<index::TimeSpaceIndex> shadow_index_;
  std::unique_ptr<db::ModDatabase> shadow_db_;

  // Subscription replay since the last (re-)subscribe.
  std::map<std::pair<db::SubscriptionId, core::ObjectId>, core::RegionRelation>
      replayed_;
  std::vector<char> touched_;

  // Operation accounting.
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool self_test_range_done_ = false;
  bool self_test_ok_ = true;
  bool probe_logged_ = false;
  std::size_t rounds_run_ = 0;

  // End-to-end measurements.
  double setup_s_ = 0.0;
  double measured_s_ = 0.0;
  std::uint64_t updates_applied_ = 0;
  double ingest_s_ = 0.0;  // ApplyUpdateBatch calls + subscription drains
  // Per-round rate of the position block (lookups/s): its median is robust
  // to a preempted block.
  Samples position_rate_;
  Samples range_us_, interval_us_, nearest_us_, ql_us_;
  Samples recovery_s_;
  double disk_bytes_per_object_ = 0.0;

  // Per-layer accumulators.
  std::uint64_t candidates_range_ = 0, answers_range_ = 0, may_range_ = 0;
  std::uint64_t candidates_nearest_ = 0, nearest_queries_ = 0;
  std::uint64_t queries_ = 0;
  std::uint64_t events_ = 0;
  std::uint64_t records_replayed_ = 0;
  double entries_per_object_ = 0.0;
  std::int64_t group_count_ = 0;
  std::map<std::string, std::uint64_t> store_counters_;
  // Range queries timed split and whole, the first timing of each only:
  // which form goes first alternates from query to query.
  Samples split_first_us_, whole_first_us_;
  std::uint64_t wal_bytes0_ = 0, wal_syncs0_ = 0;
};

bool Runner::Setup() {
  fs::remove_all(dir_);
  fs::create_directories(dir_);
  auto store = OpenStore(config_, in_.network.get(), dir_.string(),
                         wal_files_.factory(), pool_pages_);
  if (!store.ok()) {
    std::fprintf(stderr, "open: %s\n", store.status().ToString().c_str());
    return false;
  }
  store_ = std::move(*store);
  if (util::Status s = store_->BulkInsert(Fleet()); !s.ok()) {
    std::fprintf(stderr, "bulk insert: %s\n", s.ToString().c_str());
    return false;
  }
  for (const Subscription& sub : in_.subscriptions) {
    if (util::Status s = store_->Subscribe(sub.id, sub.spec); !s.ok()) {
      std::fprintf(stderr, "subscribe: %s\n", s.ToString().c_str());
      return false;
    }
  }
  // Set-up time counts from the start of the process, without the
  // (untimed) generation of the inputs.
  setup_s_ = SecondsSince(kProcessStart) - generation_s_;
  touched_.assign(in_.initial.size(), 0);
  wal_bytes0_ = wal_files_.bytes;
  wal_syncs0_ = wal_files_.syncs;

  if (tracer_.on()) {
    index::TimeSpaceIndex::Options options;
    options.oplane.horizon = kHorizon;
    options.oplane.slab_width = db::ModDatabaseOptions{}.oplane_slab_width;
    shadow_index_ =
        std::make_unique<index::TimeSpaceIndex>(in_.network.get(), options);
    std::vector<std::pair<core::ObjectId, core::PositionAttribute>> rows;
    for (std::size_t i = 0; i < in_.initial.size(); ++i) {
      rows.emplace_back(static_cast<core::ObjectId>(i), in_.initial[i]);
    }
    if (!shadow_index_->BulkUpsert(rows).ok()) return false;
    if (store_->single() == nullptr) {
      // One database over the whole fleet, with the pool budget of all the
      // shards together.
      shadow_db_ = std::make_unique<db::ModDatabase>(
          in_.network.get(),
          DatabaseOptions(config_, pool_pages_ * config_.shards));
      if (!shadow_db_->BulkInsert(Fleet()).ok()) return false;
    }
  }
  return true;
}

void Runner::RunRound(std::size_t r, RoundAnswers* out) {
  const core::Time t = RoundTime(config_, r);
  const RoundQueries& q = round_.queries;
  const std::vector<core::PositionUpdate>& updates = round_.updates;
  tracer_.NextOp();
  Tracer::Scope round(&tracer_, SpanName::kRound);

  // Writes: the round's uplink batches, then the subscription drain.
  for (std::size_t i = 0; i < updates.size(); i += kUplinkBatch) {
    const std::size_t n = std::min(kUplinkBatch, updates.size() - i);
    const auto start = Clock::now();
    db::UpdateBatchResult result;
    {
      Tracer::Scope span(&tracer_, SpanName::kApply);
      result = store_->Apply({updates.data() + i, n});
    }
    ingest_s_ += SecondsSince(start);
    out->batches.emplace_back(i, std::move(result));
  }
  {
    const auto start = Clock::now();
    std::vector<db::SubscriptionEvent> events;
    {
      Tracer::Scope span(&tracer_, SpanName::kDrain);
      events = store_->TakeEvents();
    }
    ingest_s_ += SecondsSince(start);
    events_ += events.size();
    for (const db::SubscriptionEvent& e : events) {
      replayed_[{e.subscription, e.object}] = e.to;
    }
  }

  // Reads.
  auto timed = [this](Samples* samples, SpanName name, auto&& call) {
    tracer_.NextOp();
    const auto start = Clock::now();
    auto answer = [&] {
      Tracer::Scope span(&tracer_, name);
      return call();
    }();
    samples->Add(MicrosBetween(start, Clock::now()));
    return answer;
  };
  for (const Rect& rect : q.range_now) {
    out->range_now.push_back(timed(&range_us_, SpanName::kRangeQuery, [&] {
      return store_->Range(rect.polygon, t);
    }));
  }
  const core::Time future = t + kFutureOffset;
  for (const Rect& rect : q.range_future) {
    out->range_future.push_back(timed(&range_us_, SpanName::kRangeQuery, [&] {
      return store_->Range(rect.polygon, future);
    }));
  }
  for (const Rect& rect : q.interval) {
    out->interval.push_back(
        timed(&interval_us_, SpanName::kIntervalQuery, [&] {
          return store_->Interval(rect.polygon, t, t + kWindow);
        }));
  }
  for (const geo::Point2& p : q.nearest) {
    out->nearest.push_back(timed(&nearest_us_, SpanName::kNearestQuery, [&] {
      return store_->Nearest(p, kNearestK, t);
    }));
  }
  {
    // One lookup takes about a tenth of a microsecond: time the block.
    tracer_.NextOp();
    out->positions.reserve(q.positions.size());
    const auto start = Clock::now();
    {
      Tracer::Scope span(&tracer_, SpanName::kPositionBlock);
      for (core::ObjectId id : q.positions) {
        out->positions.push_back(store_->Position(id, t));
      }
    }
    position_rate_.Add(static_cast<double>(q.positions.size()) /
                       SecondsSince(start));
  }
  // Untimed: a known fault, checked every round (see CheckRound).
  out->route_end_probe = store_->Position(in_.route_end_probe, t);
  for (const TextQuery& tq : q.text) {
    const std::string text = tq.text + " AT " + ExactNumber(t);
    out->text.push_back(timed(&ql_us_, SpanName::kTextQuery,
                              [&] { return store_->Text(text); }));
  }
}

void Runner::CheckRound(std::size_t r, const RoundAnswers& a) {
  const core::Time t = RoundTime(config_, r);
  const RoundQueries& q = round_.queries;
  const std::vector<core::PositionUpdate>& updates = round_.updates;

  // Every round attempts the same operations: its ingest (all its uplink
  // batches and the drain, one operation, since the number of updates
  // varies), each query and position lookup, and the route-end probe. So
  // `failed` is the same share of `attempted` in every run.
  ref_.NextRound();
  ++attempted_;
  bool ingest_ok = true;
  for (const auto& [first, result] : a.batches) {
    for (std::size_t j = 0; j < result.statuses.size(); ++j) {
      const core::PositionUpdate& u = updates[first + j];
      if (!result.statuses[j].ok()) {
        ingest_ok = false;
        check_.Fail("update of " + std::to_string(u.object) + " rejected: " +
                    result.statuses[j].ToString());
        continue;
      }
      ref_.Apply(u);
      touched_[static_cast<std::size_t>(u.object)] = 1;
    }
    updates_applied_ += result.applied;
  }
  if (!ingest_ok) ++failed_;

  for (std::size_t i = 0; i < q.range_now.size(); ++i) {
    const db::RangeAnswer& ans = a.range_now[i];
    check_.RangeMatches(ans, ref_.Range(q.range_now[i], t), "range");
    check_.RangeSound(ans, q.range_now[i], t);
    if (!self_test_range_done_) SelfTestRange(ans, q.range_now[i], t);
  }
  const core::Time future = t + kFutureOffset;
  for (std::size_t i = 0; i < q.range_future.size(); ++i) {
    check_.RangeMatches(a.range_future[i],
                        ref_.Range(q.range_future[i], future), "future range");
  }
  for (const auto* list : {&a.range_now, &a.range_future}) {
    for (const db::RangeAnswer& ans : *list) {
      candidates_range_ += ans.candidates_examined;
      answers_range_ += ans.must.size() + ans.may.size();
      may_range_ += ans.may.size();
    }
  }
  for (std::size_t i = 0; i < q.interval.size(); ++i) {
    check_.IntervalMatches(
        a.interval[i], ref_.Interval(q.interval[i], t, t + kWindow));
  }
  for (std::size_t i = 0; i < q.nearest.size(); ++i) {
    check_.NearestMatches(a.nearest[i], kNearestK, q.nearest[i], t,
                          ref_);
    candidates_nearest_ += a.nearest[i].candidates_examined;
    ++nearest_queries_;
  }
  for (std::size_t i = 0; i < q.positions.size(); ++i) {
    const auto& ans = a.positions[i];
    if (!ans.ok()) {
      ++failed_;
      check_.Fail("position of " + std::to_string(q.positions[i]) + ": " +
                  ans.status().ToString());
      continue;
    }
    const auto id = static_cast<std::size_t>(q.positions[i]);
    check_.PositionSound(*ans, t, ref_.attrs()[id]);
  }
  for (std::size_t i = 0; i < q.text.size(); ++i) {
    if (!a.text[i].ok()) {
      ++failed_;
      check_.Fail("text query '" + q.text[i].text + "': " +
                  a.text[i].status().ToString());
      continue;
    }
    check_.TextMatches(q.text[i], *a.text[i], t, ref_);
  }
  const std::uint64_t queries = q.range_now.size() + q.range_future.size() +
                                q.interval.size() + q.nearest.size() +
                                q.positions.size() + q.text.size();
  attempted_ += queries;
  queries_ += queries;

  // The route-end probe fails in every round, on one known fault alone:
  // core::ComputeUncertainty centres the interval on the unclamped database
  // position, so the answered interval is the route end and misses the
  // vehicle stopped one unit short of it. It counts as a failed operation;
  // any other fault in the answer is a checker failure.
  ++attempted_;
  const auto& probe = a.route_end_probe;
  bool interval_only = false;
  if (!probe.ok()) {
    ++failed_;
    check_.Fail("position of the route-end probe: " +
                probe.status().ToString());
  } else if (!check_.PositionSound(
                 *probe, t, ref_.attrs()[in_.route_end_probe], true,
                 &interval_only)) {
    ++failed_;
    if (!interval_only) {
      check_.PositionSound(*probe, t, ref_.attrs()[in_.route_end_probe]);
    } else if (!probe_logged_) {
      probe_logged_ = true;
      std::fprintf(stderr,
                   "route-end probe: answered interval [%.3f, %.3f] misses "
                   "the stopped vehicle (known fault, counted as failed)\n",
                   probe->uncertainty.lo, probe->uncertainty.hi);
    }
  }
}

void Runner::SelfTestRange(const db::RangeAnswer& a, const Rect& rect,
                           core::Time t) {
  const std::vector<core::ObjectId> inside = check_.TrulyInside(rect, t);
  if (a.must.empty() || inside.empty()) return;
  self_test_range_done_ = true;
  const Reference::RangeIds ref = ref_.Range(rect, t);
  // A MUST id moved out of MUST (into MAY): the reference must notice.
  db::RangeAnswer moved = a;
  moved.may.push_back(moved.must.back());
  moved.may_probability.push_back(0.5);
  moved.must.pop_back();
  std::sort(moved.may.begin(), moved.may.end());
  // A truly-inside id dropped: ground truth alone must notice.
  db::RangeAnswer dropped = a;
  const core::ObjectId victim = inside.front();
  std::erase(dropped.must, victim);
  std::erase(dropped.may, victim);
  dropped.may_probability.resize(dropped.may.size());
  const bool caught_moved = !check_.RangeMatches(moved, ref, "range", true);
  const bool caught_dropped = !check_.RangeSound(dropped, rect, t, true);
  if (!caught_moved || !caught_dropped) {
    self_test_ok_ = false;
    std::fprintf(stderr, "checker self-test failed: tampered range answer "
                         "passed (moved %d, dropped %d)\n",
                 caught_moved, caught_dropped);
  }
}

void Runner::TraceExtras(std::size_t r) {
  const core::Time t = RoundTime(config_, r);
  const RoundQueries& q = round_.queries;
  const std::vector<core::PositionUpdate>& updates = round_.updates;

  // The benchmark's own index, fed one delta batch per uplink batch, each
  // object with its latest attribute.
  for (std::size_t i = 0; i < updates.size(); i += kUplinkBatch) {
    const std::size_t n = std::min(kUplinkBatch, updates.size() - i);
    std::unordered_map<core::ObjectId, std::size_t> last;
    for (std::size_t j = i; j < i + n; ++j) last[updates[j].object] = j;
    std::vector<index::IndexDelta> deltas;
    for (const auto& [id, j] : last) {
      deltas.push_back({id, &ref_.attrs()[static_cast<std::size_t>(id)]});
    }
    std::sort(deltas.begin(), deltas.end(),
              [](const auto& x, const auto& y) { return x.id < y.id; });
    tracer_.NextOp();
    {
      Tracer::Scope span(&tracer_, SpanName::kIndexDelta);
      if (!shadow_index_->ApplyDeltaBatch(deltas).ok()) {
        check_.Fail("benchmark index rejected a delta batch");
      }
    }
    if (shadow_db_ != nullptr &&
        !shadow_db_->ApplyUpdateBatch({updates.data() + i, n}).all_ok()) {
      check_.Fail("shadow database rejected an update batch");
    }
  }

  // Split probe/refine timing on the single database, and the same range
  // queries timed whole. Alternating which runs first keeps the warm
  // repeat from favouring either side.
  const db::ModDatabase& db =
      store_->single() != nullptr ? *store_->single() : *shadow_db_;
  std::size_t n = 0;
  auto split = [&](const Rect& rect, core::Time at) {
    const auto start = Clock::now();
    std::vector<core::ObjectId> cands;
    {
      Tracer::Scope span(&tracer_, SpanName::kProbe);
      cands = db.object_index().Candidates(rect.polygon, at);
    }
    db::RangeAnswer answer;
    {
      Tracer::Scope span(&tracer_, SpanName::kRefine);
      answer = db.RefineRange(rect.polygon, at, cands);
    }
    return std::make_pair(MicrosBetween(start, Clock::now()), answer);
  };
  auto whole = [&](const Rect& rect, core::Time at) {
    const auto start = Clock::now();
    db::RangeAnswer answer;
    {
      Tracer::Scope span(&tracer_, SpanName::kWholeRange);
      answer = db.QueryRange(rect.polygon, at);
    }
    return std::make_pair(MicrosBetween(start, Clock::now()), answer);
  };
  // Each query is timed both ways. The second call runs warm (several
  // times faster), so only the first timing of each is kept: split on
  // even queries, whole on odd ones.
  auto both = [&](const Rect& rect, core::Time at) {
    tracer_.NextOp();
    std::pair<double, db::RangeAnswer> s, w;
    if (n++ % 2 == 0) {
      s = split(rect, at);
      w = whole(rect, at);
      split_first_us_.Add(s.first);
    } else {
      w = whole(rect, at);
      s = split(rect, at);
      whole_first_us_.Add(w.first);
    }
    if (s.second.must != w.second.must || s.second.may != w.second.may) {
      check_.Fail("probe + refine differs from QueryRange");
    }
  };
  for (const Rect& rect : q.range_now) both(rect, t);
  for (const Rect& rect : q.range_future) both(rect, t + kFutureOffset);
  for (const Rect& rect : q.interval) {
    tracer_.NextOp();
    std::vector<core::ObjectId> cands;
    {
      Tracer::Scope span(&tracer_, SpanName::kProbe);
      cands = db.object_index().CandidatesInWindow(rect.polygon, t,
                                                   t + kWindow);
    }
    Tracer::Scope span(&tracer_, SpanName::kRefine);
    db.RefineRangeInterval(rect.polygon, t, t + kWindow, 1.0, cands);
  }
  for (const TextQuery& tq : q.text) {
    tracer_.NextOp();
    Tracer::Scope span(&tracer_, SpanName::kParse);
    if (!db::ParseQuery(tq.text + " AT " + ExactNumber(t)).ok()) {
      check_.Fail("query text does not parse: " + tq.text);
    }
  }
}

void Runner::CheckSubscriptions() {
  check_.SubscriptionsMatch(in_.subscriptions, replayed_, touched_, ref_);
}

void Runner::AddStoreCounters() {
  for (const char* name :
       {"mod.index.pages.hits", "mod.index.pages.misses",
        "mod.index.pages.evictions", "mod.index.group.hidden_upserts"}) {
    store_counters_[name] += store_->Counter(name);
  }
  group_count_ = store_->Gauge("mod.group.count");
  const db::ModDatabase* db =
      store_->single() != nullptr ? store_->single() : shadow_db_.get();
  if (db != nullptr && db->num_objects() > 0) {
    entries_per_object_ =
        static_cast<double>(db->object_index().num_entries()) /
        static_cast<double>(db->num_objects());
  }
}

bool Runner::Restart() {
  CheckSubscriptions();
  AddStoreCounters();
  store_.reset();  // clean shutdown: WAL closed, nothing left buffered
  SyncTree(dir_);
  disk_bytes_per_object_ = static_cast<double>(DirBytes(dir_)) /
                           static_cast<double>(in_.initial.size());

  // Restart is timed nine times, each a cold open of an identical copy of
  // the closed store (the last one is the original, which the run goes on
  // with); the median damps one-off file-system stalls.
  util::Result<std::unique_ptr<Store>> reopened = util::Status::Ok();
  for (int copy = kRecoveryCopies - 1; copy >= 0; --copy) {
    fs::path from = dir_;
    if (copy > 0) {
      from = dir_.string() + ".copy" + std::to_string(copy);
      fs::remove_all(from);
      fs::copy(dir_, from, fs::copy_options::recursive);
      SyncTree(from);
    }
    const auto start = Clock::now();
    {
      tracer_.NextOp();
      Tracer::Scope span(&tracer_, SpanName::kRecovery);
      reopened = OpenStore(config_, in_.network.get(), from.string(),
                           wal_files_.factory(), pool_pages_);
    }
    recovery_s_.Add(SecondsSince(start));
    if (!reopened.ok()) {
      std::fprintf(stderr, "reopen: %s\n",
                   reopened.status().ToString().c_str());
      return false;
    }
    SampleRss();
    if (copy > 0) {
      reopened->reset();
      fs::remove_all(from);
    }
  }
  store_ = std::move(*reopened);
  records_replayed_ += store_->records_replayed();

  // Every recovered attribute equals the last update fed to its object.
  std::vector<core::PositionAttribute> recovered(in_.initial.size());
  std::vector<char> seen(in_.initial.size(), 0);
  std::size_t count = 0;
  store_->ForEachRecord([&](const db::MovingObjectRecord& rec) {
    const auto i = static_cast<std::size_t>(rec.id);
    if (i < recovered.size()) {
      recovered[i] = rec.attr;
      seen[i] = 1;
    }
    ++count;
  });
  if (count != in_.initial.size()) {
    check_.Fail("recovered " + std::to_string(count) + " objects, expected " +
                std::to_string(in_.initial.size()));
  }
  for (std::size_t i = 0; i < recovered.size(); ++i) {
    if (seen[i]) {
      check_.AttributeEquals(static_cast<core::ObjectId>(i), recovered[i],
                             ref_.attrs()[i]);
    }
  }
  // Self-test: an altered recovered attribute must be reported.
  core::PositionAttribute altered = recovered[0];
  altered.speed += 1e-6;
  if (check_.AttributeEquals(0, altered, ref_.attrs()[0], true)) {
    self_test_ok_ = false;
    std::fprintf(stderr,
                 "checker self-test failed: altered attribute passed\n");
  }

  if (tracer_.on()) {
    // The snapshot layer on its own: load the checkpoint each recovered
    // store directory just wrote.
    for (const fs::path& p : NewestCheckpoints(dir_)) {
      tracer_.NextOp();
      Tracer::Scope span(&tracer_, SpanName::kSnapshotLoad);
      if (!db::LoadSnapshot(p.string()).ok()) {
        check_.Fail("checkpoint does not load: " + p.string());
      }
    }
  }

  // The reopened store has no standing queries yet: register them again and
  // replay from an empty state.
  for (const Subscription& sub : in_.subscriptions) {
    if (!store_->Subscribe(sub.id, sub.spec).ok()) {
      check_.Fail("re-subscribe failed");
    }
  }
  replayed_.clear();
  touched_.assign(in_.initial.size(), 0);
  return true;
}

int Runner::Run() {
  if (!Setup()) return 1;
  SampleRss();
  for (std::size_t r = 0; r < config_.max_rounds; ++r) {
    if (r > config_.restart_round && measured_s_ >= args_.seconds &&
        EnoughTailSamples()) {
      break;
    }
    round_ = NextRound(config_, &in_);  // untimed input generation
    RoundAnswers answers;
    const auto start = Clock::now();
    RunRound(r, &answers);
    measured_s_ += SecondsSince(start);
    CheckRound(r, answers);
    if (tracer_.on()) TraceExtras(r);
    round_ = Round{};
    SampleRss();
    ++rounds_run_;
    if (r == config_.restart_round / 2) {
      // A checkpoint mid-run (maintenance, outside the measured time), so
      // the restart below loads a populated checkpoint and replays the WAL
      // written since.
      tracer_.NextOp();
      Tracer::Scope span(&tracer_, SpanName::kSnapshotSave);
      if (util::Status s = store_->Checkpoint(); !s.ok()) {
        check_.Fail("checkpoint: " + s.ToString());
      }
    }
    if (r == config_.restart_round && !Restart()) {
      fs::remove_all(dir_);
      return 1;  // no store to go on with
    }
  }
  CheckSubscriptions();
  AddStoreCounters();
  if (!EnoughTailSamples()) {
    std::fprintf(stderr,
                 "%zu rounds gave fewer than %zu samples of a query form "
                 "with a p99\n",
                 rounds_run_, kMinTailSamples);
    store_.reset();
    fs::remove_all(dir_);
    return 1;
  }
  if (!self_test_range_done_) {
    self_test_ok_ = false;
    std::fprintf(stderr, "checker self-test found no range answer to tamper\n");
  }
  const bool correct = check_.failures() == 0 && self_test_ok_ &&
                       rounds_run_ > config_.restart_round;
  std::fprintf(stderr,
               "%s: %zu rounds, %.2f s measured, %llu updates, %llu checks "
               "failed\n",
               config_.name.c_str(), rounds_run_, measured_s_,
               static_cast<unsigned long long>(updates_applied_),
               static_cast<unsigned long long>(check_.failures()));

  MetricMap metrics = EndToEnd();
  if (tracer_.on()) {
    const std::string stem = (fs::path(args_.out) /
                              (config_.name + "-seed" +
                               std::to_string(args_.seed)))
                                 .string();
    tracer_.WriteTo(stem + ".spans");
    // The traced run's end-to-end figures, for the tracing overhead.
    std::ofstream e2e(stem + ".traced_e2e.json");
    e2e << ResultJson(correct, attempted_, failed_, metrics) << '\n';
    metrics = PerLayer();
  }
  store_.reset();
  shadow_db_.reset();
  fs::remove_all(dir_);
  std::printf("%s\n",
              ResultJson(correct, attempted_, failed_, metrics).c_str());
  return 0;
}

MetricMap Runner::EndToEnd() const {
  MetricMap m;
  m["setup_s"] = {setup_s_, "s"};
  m["ingest_updates_per_s"] = {
      static_cast<double>(updates_applied_) / ingest_s_, "updates/s"};
  m["range_p50_us"] = {range_us_.Quantile(0.5), "us"};
  m["range_p99_us"] = {range_us_.Quantile(0.99), "us"};
  m["interval_p50_us"] = {interval_us_.Quantile(0.5), "us"};
  m["interval_p99_us"] = {interval_us_.Quantile(0.99), "us"};
  m["nearest_p50_us"] = {nearest_us_.Quantile(0.5), "us"};
  m["nearest_p99_us"] = {nearest_us_.Quantile(0.99), "us"};
  m["position_per_s"] = {position_rate_.Quantile(0.5), "lookups/s"};
  m["ql_p50_us"] = {ql_us_.Quantile(0.5), "us"};
  m["recovery_s"] = {recovery_s_.Quantile(0.5), "s"};
  m["disk_bytes_per_object"] = {disk_bytes_per_object_, "B/object"};
  m["peak_rss_mb"] = {rss_peak_mb_ - rss_baseline_mb_, "MB"};
  return m;
}

MetricMap Runner::PerLayer() const {
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const double updates = static_cast<double>(updates_applied_);
  const auto counter = [this](const char* name) {
    const auto it = store_counters_.find(name);
    return it == store_counters_.end() ? 0.0
                                       : static_cast<double>(it->second);
  };
  const auto mean_us = [this](SpanName name) {
    return tracer_.TotalMicros(name) /
           static_cast<double>(std::max<std::size_t>(tracer_.Count(name), 1));
  };
  MetricMap m;
  m["db.apply_us_per_update"] = {
      ratio(tracer_.TotalMicros(SpanName::kApply), updates), "us"};
  m["index.delta_us_per_update"] = {
      ratio(tracer_.TotalMicros(SpanName::kIndexDelta), updates), "us"};
  m["index.entries_per_object"] = {entries_per_object_, "count"};
  m["index.probe_us"] = {mean_us(SpanName::kProbe), "us"};
  m["index.candidates_per_answer"] = {
      ratio(static_cast<double>(candidates_range_),
            static_cast<double>(answers_range_)),
      "count"};
  m["index.nearest_candidates"] = {
      ratio(static_cast<double>(candidates_nearest_),
            static_cast<double>(nearest_queries_)),
      "count"};
  m["db.refine_us"] = {mean_us(SpanName::kRefine), "us"};
  m["core.msgs_per_vehicle_hour"] = {in_.MsgsPerVehicleHour(config_), "1/h"};
  m["core.may_share"] = {ratio(static_cast<double>(may_range_),
                               static_cast<double>(answers_range_)),
                         "ratio"};
  const double pins =
      counter("mod.index.pages.hits") + counter("mod.index.pages.misses");
  m["storage.pins_per_op"] = {
      ratio(pins, updates + static_cast<double>(queries_)), "count"};
  m["storage.hit_rate"] = {ratio(counter("mod.index.pages.hits"), pins),
                           "ratio"};
  m["storage.evictions_per_update"] = {
      ratio(counter("mod.index.pages.evictions"), updates), "count"};
  m["wal.bytes_per_update"] = {
      ratio(static_cast<double>(wal_files_.bytes - wal_bytes0_), updates),
      "B"};
  m["wal.write_us_per_update"] = {
      ratio(tracer_.TotalMicros(SpanName::kWalAppend) +
                tracer_.TotalMicros(SpanName::kWalSync),
            updates),
      "us"};
  m["wal.syncs"] = {static_cast<double>(wal_files_.syncs - wal_syncs0_),
                    "count"};
  m["sub.events_per_update"] = {ratio(static_cast<double>(events_), updates),
                                "count"};
  m["sub.drain_us"] = {mean_us(SpanName::kDrain), "us"};
  m["group.hidden_share"] = {
      ratio(counter("mod.index.group.hidden_upserts"), updates), "ratio"};
  m["group.count"] = {static_cast<double>(group_count_), "count"};
  m["snapshot.load_s"] = {tracer_.TotalMicros(SpanName::kSnapshotLoad) * 1e-6,
                          "s"};
  m["snapshot.save_s"] = {tracer_.TotalMicros(SpanName::kSnapshotSave) * 1e-6,
                          "s"};
  m["recovery.records_replayed"] = {static_cast<double>(records_replayed_),
                                    "count"};
  m["ql.parse_us"] = {mean_us(SpanName::kParse), "us"};
  m["xcheck.probe_refine_over_whole"] = {
      ratio(split_first_us_.Quantile(0.5), whole_first_us_.Quantile(0.5)),
      "ratio"};
  return m;
}

}  // namespace
}  // namespace modb::perfbench

int main(int argc, char** argv) {
  using namespace modb::perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: modb_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out <dir>]\n");
    return 2;
  }
  const WorkloadConfig* config = FindWorkload(args.workload);
  if (config == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; known:",
                 args.workload.c_str());
    for (const std::string& name : WorkloadNames()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  const auto gen_start = Clock::now();
  Inputs inputs = Generate(*config, args.seed);
  // Each shard's pool gets its share of the fleet's working set.
  const std::size_t pool_pages =
      config->pool_share > 0.0
          ? std::max<std::size_t>(
                16, static_cast<std::size_t>(
                        config->pool_share *
                        static_cast<double>(WorkingSetPages(*config, inputs)) /
                        static_cast<double>(std::max<std::size_t>(
                            config->shards, 1))))
          : 0;
  // The baseline of `peak_rss_mb`: what the inputs hold, once the memory
  // the working-set probe freed is handed back.
  ::malloc_trim(0);
  const double rss_baseline_mb = CurrentRssMb();
  const double generation_s = SecondsSince(gen_start);
  std::fprintf(stderr, "%s: %zu vehicles generated in %.2f s, pool %zu pages\n",
               config->name.c_str(), inputs.vehicles.size(), generation_s,
               pool_pages);
  Runner runner(*config, inputs, args, generation_s, pool_pages,
                rss_baseline_mb);
  return runner.Run();
}
