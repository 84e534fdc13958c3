// Shared machinery of the end-to-end benchmark (see README.md): command
// line, seeded input derivation, sample statistics, benchmark-side spans,
// registry deltas, output digests and the result that main() prints.
//
// Every layer of the program is measured from outside: the benchmark times
// calls into public functions and reads the counters the program already
// exports (MetricRegistry snapshots, ServeStats, NetStats, scan-group
// infos). Nothing here reaches into src/ internals.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/metrics.h"
#include "engine/row_block.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Scratch directory for summary files and the Chrome trace; created by
  // main() and always inside the checkout the benchmark runs from.
  std::string out_dir;
};

// Engine and client width: the machine's hardware threads.
int Nproc();

// Sub-seed `tag` of the workload seed (splitmix64 of both), so every input
// (data, query order, serve mix, fragmented summary) derives from --seed.
uint64_t SubSeed(uint64_t seed, uint64_t tag);

double NowSeconds();

// A sample set with nearest-rank percentiles.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }
  double Sum() const;
  double Max() const;
  // Nearest-rank percentile, q in (0, 1]; 0 for an empty set.
  double Percentile(double q) const;
  double Median() const { return Percentile(0.5); }

 private:
  std::vector<double> values_;
};

// --- benchmark-side spans --------------------------------------------------
// One timed call into a layer. `layer` is the module the call enters;
// `request` groups the spans of one client request.
struct SpanRecord {
  const char* name = nullptr;
  const char* layer = nullptr;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  uint32_t tid = 0;
  double start_s = 0;
  double end_s = 0;
};

// Spans are kept in memory (one buffer per thread) and written out as a
// Chrome trace when the run ends. Recording is off unless enabled, and an
// off Span costs one branch.
class Tracer {
 public:
  static Tracer& Get();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  void Record(const SpanRecord& span);
  bool WriteChromeTrace(const std::string& path) const;

 private:
  // All spans recorded so far, every thread.
  std::vector<SpanRecord> Collect() const;

  struct ThreadBuffer {
    uint32_t tid = 0;
    std::vector<SpanRecord> spans;
  };
  ThreadBuffer* Local();

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

// RAII span around one call into `layer`. While tracing is on, the span's
// duration is also added to `*total` when one is given, so a caller can
// attribute time per layer without a second clock.
class Span {
 public:
  Span(const char* layer, const char* name, uint64_t request = 0,
       double* total = nullptr);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecord rec_;
  double* total_ = nullptr;
  uint64_t saved_parent_ = 0;
  bool active_ = false;
};

// --- registry deltas -------------------------------------------------------
// Difference between a MetricRegistry snapshot taken at construction and
// one taken by Finish(): what the program recorded during the interval.
class RegistryDelta {
 public:
  RegistryDelta();
  void Finish();
  // Delta histogram (counts and sum), percentiles read from its buckets.
  hydra::HistogramSnapshot Histogram(const std::string& name) const;

 private:
  hydra::MetricsSnapshot before_;
  hydra::MetricsSnapshot after_;
};

// --- output digests --------------------------------------------------------
// Order-sensitive digest of a row stream that does not depend on how the
// stream was cut into blocks: each value is folded in with its absolute row
// position and column, so blocks may be digested in any grouping. A single
// changed value always changes the digest (odd multipliers mod 2^64).
class StreamDigest {
 public:
  // Rows of `block` are stream rows [first_row, first_row + num_rows).
  void AddBlock(const hydra::RowBlock& block, int64_t first_row);
  void AddRow(const hydra::Value* row, int width, int64_t position);
  uint64_t value() const { return acc_ ^ (rows_ * 0x9e3779b97f4a7c15ull); }
  int64_t rows() const { return static_cast<int64_t>(rows_); }

 private:
  uint64_t acc_ = 0;
  uint64_t rows_ = 0;
};

class Result;

// Self-check of the digest oracles: one flipped value in a copy of
// `sample` must change its digest. An empty sample fails the check.
void SelfCheckFlippedValue(const hydra::RowBlock& sample, Result* result);

// --- the result ------------------------------------------------------------
struct MetricValue {
  double value = 0;
  std::string unit;
  // Samples behind the value (0 = a single measurement or a count).
  uint64_t samples = 0;
};

class Result {
 public:
  // Counts one checked operation; a false `ok` counts it as failed and
  // records `what` for the report.
  void Check(bool ok, const std::string& what);
  void Set(const std::string& name, double value, const std::string& unit,
           uint64_t samples = 0);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::map<std::string, MetricValue>& metrics() const {
    return metrics_;
  }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::map<std::string, MetricValue> metrics_;
  std::vector<std::string> failures_;
};

// Peak resident set of this process so far, in MiB.
double PeakRssMib();

// Returns freed heap memory to the system, so that a repeated set-up
// starts from the heap a single one would see (glibc only; else a no-op).
void ReleaseFreedMemory();

// Runs `setup` `times` times, keeping the last instance, and records
// setup_s as the median set-up time.
template <typename T, typename Fn>
std::unique_ptr<T> RepeatedSetup(int times, Result* result, Fn setup) {
  Samples seconds;
  std::unique_ptr<T> kept;
  for (int i = 0; i < times; ++i) {
    if (kept != nullptr) {
      kept.reset();
      ReleaseFreedMemory();
    }
    const double t0 = NowSeconds();
    kept = setup();
    seconds.Add(NowSeconds() - t0);
  }
  result->Set("setup_s", seconds.Median(), "s", seconds.size());
  return kept;
}

// Workload entry points (one file each).
void RunRegenWlc(const Args& args, Result* result);
void RunDatagenWls(const Args& args, Result* result);
void RunServeMixed(const Args& args, Result* result);
void RunServeSharedWire(const Args& args, Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
