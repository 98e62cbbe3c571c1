#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

/// \file
/// The spans the benchmark records around its own calls into the program,
/// kept in memory and written out as Chrome trace-event JSON when the run
/// ends, plus the per-layer self-time table with its closure check.

namespace perfbench {

class SpanLog {
 public:
  /// Opens a span on the driving thread, nested in the innermost open one.
  /// Returns its id for End().
  int Begin(const char* name);
  void End(int id);

  /// A span that ran on another thread (`lane` >= 1 in the trace file). It
  /// is written out but takes no part in the driving thread's self times.
  void AddForeign(const char* name, int lane, std::int64_t start_ns,
                  std::int64_t end_ns);
  /// Time the driving thread spent in `count` calls too many to record one
  /// by one (per-request Submit calls): a child of `parent` for self times.
  void AddAggregate(const char* name, int parent, double seconds,
                    std::uint64_t count);

  /// Prints, for the span tree under `root`, each layer's total and self
  /// time, then the closure line: the layers' self times sum to the root's
  /// wall time, and the untimed part (the root's own self time) is small.
  /// Returns the untimed share of the root's wall time.
  double PrintLayerTable(int root) const;

  /// Writes every span as Chrome trace-event JSON. False on I/O failure.
  bool Write(const std::string& path) const;

  /// Number of spans so far: the id the next Begin() returns.
  std::size_t size() const { return spans_.size(); }

 private:
  struct Span {
    const char* name = "";
    int parent = -1;
    int lane = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    /// Aggregates only: seconds and number of calls folded into it.
    double aggregate_seconds = -1.0;
    std::uint64_t count = 1;

    double Seconds() const {
      return aggregate_seconds >= 0.0
                 ? aggregate_seconds
                 : static_cast<double>(end_ns - start_ns) * 1e-9;
    }
  };

  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII helper: Begin on construction, End on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log), id_(log != nullptr ? log->Begin(name) : -1) {}
  ~ScopedSpan() { Close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }
  /// Ends the span before the scope does.
  void Close() {
    if (log_ != nullptr) log_->End(id_);
    log_ = nullptr;
  }

 private:
  SpanLog* log_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
