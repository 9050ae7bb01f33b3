// Span recording for the traced layer replay, plus the small JSON helpers
// the harness prints its results with.
//
// Spans go to a local obs::TraceRecorder, kept in memory while the replay
// runs and written once, at exit, as Chrome-trace JSON. The item index
// rides in args["item"]. The replay is single-threaded and its spans nest
// strictly, so perfbench/spans.py recovers each span's parent by interval
// containment and derives self times offline.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

/// Seconds on the steady clock since an arbitrary epoch.
double mono_s();

class SpanLog {
 public:
  SpanLog() { rec_.set_enabled(true); }

  /// Seconds since the log was created.
  double now() const { return 1e-6 * rec_.now_us(); }
  /// Seconds spent opening and closing spans (the recorder's cost).
  double overhead_s() const { return overhead_s_; }
  std::size_t size() const { return rec_.size(); }
  bool write_chrome_trace(const std::string& path) const {
    return rec_.write_json(path);
  }

 private:
  friend class ScopedSpan;
  dtfe::obs::TraceRecorder rec_;
  double overhead_s_ = 0.0;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, int item = -1) : log_(log) {
    const double t0 = mono_s();
    span_.emplace(name, "perfbench", &log.rec_);
    if (item >= 0) span_->add_arg("item", item);
    log_.overhead_s_ += mono_s() - t0;
  }
  ~ScopedSpan() {
    const double t0 = mono_s();
    span_->close();
    log_.overhead_s_ += mono_s() - t0;
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  std::optional<dtfe::obs::TraceSpan> span_;
};

/// Flat JSON object writer: numbers keep all 17 significant digits so the
/// reader sees values exactly as measured (and checksums compare bitwise).
class JsonObject {
 public:
  void num(const std::string& key, double v);
  void integer(const std::string& key, std::int64_t v);
  void boolean(const std::string& key, bool v);
  void str(const std::string& key, const std::string& v);
  void nums(const std::string& key, const std::vector<double>& v);
  void object(const std::string& key, const JsonObject& v);
  std::string dump() const;
  /// Print as one line on stdout.
  void print() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Peak resident set of this process (getrusage ru_maxrss), in MiB.
double peak_rss_mb();

}  // namespace perfbench
