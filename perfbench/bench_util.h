#ifndef MODB_PERFBENCH_BENCH_UTIL_H_
#define MODB_PERFBENCH_BENCH_UTIL_H_

// Timing, span tracing and result formatting shared by the benchmark's
// workloads. Nothing here calls into modb.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace modb::perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Samples of one measured quantity (latencies in µs, per-round rates).
class Samples {
 public:
  void Add(double us) { values_.push_back(us); }
  std::size_t size() const { return values_.size(); }
  /// Nearest-rank quantile (q in [0, 1]); 0 when empty.
  double Quantile(double q) const;

 private:
  std::vector<double> values_;
};

/// The spans the benchmark records, one per call it makes into a layer.
enum class SpanName : std::uint8_t {
  kRound,         // one closed-loop round (updates, drain, queries)
  kApply,         // ApplyUpdateBatch on the workload's store
  kIndexDelta,    // ObjectIndex::ApplyDeltaBatch on the benchmark's index
  kDrain,         // TakeSubscriptionEvents
  kRangeQuery,    // QueryRange on the workload's store
  kIntervalQuery, // QueryRangeInterval on the workload's store
  kNearestQuery,  // QueryNearest on the workload's store
  kPositionBlock, // a block of QueryPosition lookups
  kTextQuery,     // ExecuteQuery
  kParse,         // ParseQuery
  kProbe,         // ObjectIndex::Candidates / CandidatesInWindow
  kRefine,        // RefineRange / RefineRangeInterval
  kWholeRange,    // QueryRange on the split-timing database
  kWalAppend,     // WritableFile::Append of a WAL segment
  kWalSync,       // WritableFile::Sync of a WAL segment
  kSnapshotSave,  // Checkpoint: snapshot write + fresh WAL epoch
  kSnapshotLoad,  // LoadSnapshot
  kRecovery,      // store reopen: checkpoint load + WAL replay
  kCount,
};

const char* SpanNameString(SpanName name);

/// In-memory span recorder. When off, `Scope` costs one branch and records
/// nothing. Spans carry their parent (the innermost open span) and the id of
/// the operation that caused them; they are written out once, at the end.
class Tracer {
 public:
  struct Span {
    SpanName name;
    std::int32_t parent;  // index into spans, -1 at top level
    std::uint64_t op;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {
    if (on_) spans_.reserve(1 << 20);
  }
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool on() const { return on_; }
  /// Starts a new top-level operation; spans opened until the next call
  /// share its id.
  void NextOp() { ++op_; }

  class Scope {
   public:
    Scope(Tracer* tracer, SpanName name) : tracer_(tracer) {
      if (tracer_->on_) index_ = tracer_->Open(name);
    }
    ~Scope() {
      if (tracer_->on_) tracer_->Close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::int32_t index_ = -1;
  };

  /// Summed duration (µs) and count of the spans named `name`.
  double TotalMicros(SpanName name) const;
  std::size_t Count(SpanName name) const;

  /// Writes one line per span: name, parent, op, start_ns, end_ns.
  bool WriteTo(const std::string& path) const;

 private:
  std::int32_t Open(SpanName name);
  void Close(std::int32_t index);
  std::int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  bool on_;
  Clock::time_point origin_;
  std::uint64_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// One metric of the final JSON line.
struct Metric {
  double value = 0.0;
  std::string unit;
};

using MetricMap = std::map<std::string, Metric>;

/// Renders the result object the benchmark prints as its last line.
std::string ResultJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed, const MetricMap& metrics);

/// Current resident set size of this process in MB.
double CurrentRssMb();

/// `v` with every digit (%.17g), so it parses back to the same double.
std::string ExactNumber(double v);

}  // namespace modb::perfbench

#endif  // MODB_PERFBENCH_BENCH_UTIL_H_
