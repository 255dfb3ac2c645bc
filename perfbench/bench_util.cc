#include "bench_util.h"

#include <unistd.h>

#include <cmath>
#include <fstream>

namespace modb::perfbench {

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(i, sorted.size() - 1)];
}

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kRound: return "round";
    case SpanName::kApply: return "db.apply";
    case SpanName::kIndexDelta: return "index.delta";
    case SpanName::kDrain: return "sub.drain";
    case SpanName::kRangeQuery: return "query.range";
    case SpanName::kIntervalQuery: return "query.interval";
    case SpanName::kNearestQuery: return "query.nearest";
    case SpanName::kPositionBlock: return "query.position_block";
    case SpanName::kTextQuery: return "ql.execute";
    case SpanName::kParse: return "ql.parse";
    case SpanName::kProbe: return "index.probe";
    case SpanName::kRefine: return "db.refine";
    case SpanName::kWholeRange: return "xcheck.whole_range";
    case SpanName::kWalAppend: return "wal.append";
    case SpanName::kWalSync: return "wal.sync";
    case SpanName::kSnapshotSave: return "snapshot.save";
    case SpanName::kSnapshotLoad: return "snapshot.load";
    case SpanName::kRecovery: return "recovery";
    case SpanName::kCount: break;
  }
  return "?";
}

std::int32_t Tracer::Open(SpanName name) {
  const std::int32_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, parent, op_, NowNs(), 0});
  const auto index = static_cast<std::int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Tracer::Close(std::int32_t index) {
  spans_[static_cast<std::size_t>(index)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

double Tracer::TotalMicros(SpanName name) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (s.name == name) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) * 1e-3;
}

std::size_t Tracer::Count(SpanName name) const {
  std::size_t n = 0;
  for (const Span& s : spans_) n += s.name == name ? 1 : 0;
  return n;
}

bool Tracer::WriteTo(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "# name parent op start_ns end_ns\n";
  for (const Span& s : spans_) {
    out << SpanNameString(s.name) << ' ' << s.parent << ' ' << s.op << ' '
        << s.start_ns << ' ' << s.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

std::string ResultJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed, const MetricMap& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, metric] : metrics) {
    if (!first) out += ", ";
    first = false;
    // Non-finite values are not JSON; they only arise from a broken run,
    // which `correct` already reports.
    const double v = std::isfinite(metric.value) ? metric.value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           metric.unit + "\"}";
  }
  out += "}}";
  return out;
}

std::string ExactNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double CurrentRssMb() {
  // statm: total and resident size, in pages.
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size = 0, resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

}  // namespace modb::perfbench
