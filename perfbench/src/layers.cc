#include "layers.h"

#include <cstdio>
#include <map>
#include <string>

#include "timed_method.h"

namespace perfbench {

int SpanLog::Begin(const char* name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = NowNs();
  spans_.push_back(span);
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void SpanLog::End(int id) {
  spans_[id].end_ns = NowNs();
  // Spans close innermost first; tolerate an outer End closing inner ones.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == id) break;
  }
}

void SpanLog::AddForeign(const char* name, int lane, std::int64_t start_ns,
                         std::int64_t end_ns) {
  Span span;
  span.name = name;
  span.lane = lane;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(span);
}

void SpanLog::AddAggregate(const char* name, int parent, double seconds,
                           std::uint64_t count) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.aggregate_seconds = seconds;
  span.count = count;
  spans_.push_back(span);
}

double SpanLog::PrintLayerTable(int root) const {
  // Driving-thread spans under `root`: total and self time per layer name.
  std::vector<double> child_seconds(spans_.size(), 0.0);
  std::vector<bool> under(spans_.size(), false);
  under[root] = true;
  for (std::size_t i = root + 1; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.lane != 0 || span.parent < 0 || !under[span.parent]) continue;
    under[i] = true;
    child_seconds[span.parent] += span.Seconds();
  }
  struct Layer {
    double total = 0.0;
    double self = 0.0;
    std::uint64_t count = 0;
  };
  std::map<std::string, Layer> layers;
  std::vector<std::string> order;
  double self_sum = 0.0;
  for (std::size_t i = root; i < spans_.size(); ++i) {
    if (!under[i]) continue;
    const Span& span = spans_[i];
    const std::string name = static_cast<int>(i) == root ? "untimed" : span.name;
    if (layers.find(name) == layers.end()) order.push_back(name);
    Layer& layer = layers[name];
    layer.total += span.Seconds();
    layer.self += span.Seconds() - child_seconds[i];
    layer.count += span.count;
    self_sum += span.Seconds() - child_seconds[i];
  }
  const double wall = spans_[root].Seconds();
  std::printf("%-24s %12s %12s %8s %10s\n", "layer", "total_s", "self_s",
              "share", "calls");
  for (const std::string& name : order) {
    const Layer& layer = layers[name];
    std::printf("%-24s %12.6f %12.6f %7.2f%% %10llu\n", name.c_str(),
                layer.total, layer.self,
                wall > 0.0 ? 100.0 * layer.self / wall : 0.0,
                static_cast<unsigned long long>(layer.count));
  }
  const double untimed = layers["untimed"].self;
  const double untimed_share = wall > 0.0 ? untimed / wall : 0.0;
  std::printf(
      "closure: layer self times sum to %.6f s of %.6f s wall "
      "(untimed %.3f%%)\n",
      self_sum, wall, 100.0 * untimed_share);
  return untimed_share;
}

bool SpanLog::Write(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "{\"traceEvents\":[");
  bool first = true;
  for (const Span& span : spans_) {
    if (span.aggregate_seconds >= 0.0) continue;
    std::fprintf(file,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f}",
                 first ? "" : ",", span.name, span.lane,
                 static_cast<double>(span.start_ns) * 1e-3,
                 static_cast<double>(span.end_ns - span.start_ns) * 1e-3);
    first = false;
  }
  std::fprintf(file, "\n]}\n");
  return std::fclose(file) == 0;
}

}  // namespace perfbench
