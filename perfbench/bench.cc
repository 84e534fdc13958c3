#include "bench.h"

#include <sys/resource.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

namespace perfbench {

int Nproc() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

uint64_t SubSeed(uint64_t seed, uint64_t tag) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ull + tag * 0xbf58476d1ce4e5b9ull +
               0x94d049bb133111ebull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- Samples ---------------------------------------------------------------

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Sum() const {
  double s = 0;
  for (double v : values_) s += v;
  return s;
}

double Samples::Max() const {
  return values_.empty() ? 0 : *std::max_element(values_.begin(),
                                                 values_.end());
}

double Samples::Percentile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const size_t n = sorted.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::min(n, std::max<size_t>(1, rank));
  return sorted[rank - 1];
}

// --- Tracer ----------------------------------------------------------------

namespace {

std::atomic<uint64_t> g_next_span_id{1};
thread_local uint64_t t_current_span = 0;
thread_local void* t_buffer = nullptr;

}  // namespace

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();  // leaked: spans outlive threads
  return *tracer;
}

Tracer::ThreadBuffer* Tracer::Local() {
  if (t_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->tid = static_cast<uint32_t>(buffers_.size());
    t_buffer = buffer.get();
    buffers_.push_back(std::move(buffer));
  }
  return static_cast<ThreadBuffer*>(t_buffer);
}

void Tracer::Record(const SpanRecord& span) {
  ThreadBuffer* buffer = Local();
  SpanRecord rec = span;
  rec.tid = buffer->tid;
  // Each thread appends only to its own buffer; Collect() runs after the
  // recording threads have been joined.
  buffer->spans.push_back(rec);
}

std::vector<SpanRecord> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> all;
  for (const auto& b : buffers_) {
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  return all;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  const std::vector<SpanRecord> spans = Collect();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  double epoch = spans.empty() ? 0 : spans.front().start_s;
  for (const SpanRecord& s : spans) epoch = std::min(epoch, s.start_s);
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %llu, \"parent\": %llu, "
                 "\"request\": %llu}}%s\n",
                 s.name, s.layer, s.tid, (s.start_s - epoch) * 1e6,
                 (s.end_s - s.start_s) * 1e6,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

Span::Span(const char* layer, const char* name, uint64_t request,
           double* total) {
  if (!Tracer::Get().enabled()) return;
  active_ = true;
  total_ = total;
  rec_.layer = layer;
  rec_.name = name;
  rec_.request = request;
  rec_.id = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  rec_.parent = t_current_span;
  saved_parent_ = t_current_span;
  t_current_span = rec_.id;
  rec_.start_s = NowSeconds();
}

Span::~Span() {
  if (!active_) return;
  rec_.end_s = NowSeconds();
  t_current_span = saved_parent_;
  if (total_ != nullptr) *total_ += rec_.end_s - rec_.start_s;
  Tracer::Get().Record(rec_);
}

// --- RegistryDelta ---------------------------------------------------------

RegistryDelta::RegistryDelta() : before_(hydra::MetricRegistry::Snapshot()) {}

void RegistryDelta::Finish() { after_ = hydra::MetricRegistry::Snapshot(); }

hydra::HistogramSnapshot RegistryDelta::Histogram(
    const std::string& name) const {
  const auto find = [&name](const hydra::MetricsSnapshot& snap) {
    for (const hydra::HistogramSnapshot& h : snap.histograms) {
      if (h.name == name) return h;
    }
    return hydra::HistogramSnapshot{};
  };
  const hydra::HistogramSnapshot a = find(before_);
  hydra::HistogramSnapshot delta = find(after_);
  std::map<int32_t, uint64_t> base(a.buckets.begin(), a.buckets.end());
  std::vector<std::pair<int32_t, uint64_t>> buckets;
  for (const auto& [index, count] : delta.buckets) {
    const uint64_t d = count - base[index];
    if (d > 0) buckets.emplace_back(index, d);
  }
  delta.buckets = std::move(buckets);
  delta.count -= a.count;
  delta.sum -= a.sum;
  return delta;
}

// --- StreamDigest ----------------------------------------------------------

namespace {

inline uint64_t RowMultiplier(int64_t position) {
  return (static_cast<uint64_t>(position + 1) * 0x9e3779b97f4a7c15ull) | 1;
}

inline uint64_t ColumnKey(int column) {
  return static_cast<uint64_t>(column + 1) * 0xc2b2ae3d27d4eb4full;
}

}  // namespace

void StreamDigest::AddBlock(const hydra::RowBlock& block, int64_t first_row) {
  const int64_t n = block.num_rows();
  uint64_t acc = acc_;
  for (int c = 0; c < block.num_columns(); ++c) {
    const hydra::Value* col = block.Column(c);
    const uint64_t key = ColumnKey(c);
    for (int64_t i = 0; i < n; ++i) {
      acc += (static_cast<uint64_t>(col[i]) ^ key) *
             RowMultiplier(first_row + i);
    }
  }
  acc_ = acc;
  rows_ += static_cast<uint64_t>(n);
}

void StreamDigest::AddRow(const hydra::Value* row, int width,
                          int64_t position) {
  const uint64_t m = RowMultiplier(position);
  for (int c = 0; c < width; ++c) {
    acc_ += (static_cast<uint64_t>(row[c]) ^ ColumnKey(c)) * m;
  }
  ++rows_;
}

void SelfCheckFlippedValue(const hydra::RowBlock& sample, Result* result) {
  if (sample.num_rows() == 0 || sample.num_columns() == 0) {
    result->Check(false, "self-check: no output was produced to corrupt");
    return;
  }
  hydra::RowBlock copy;
  copy.Reset(sample.num_columns());
  copy.AppendBlock(sample);
  copy.MutableColumn(0)[copy.num_rows() / 2] ^= 1;
  StreamDigest a, b;
  a.AddBlock(sample, 0);
  b.AddBlock(copy, 0);
  result->Check(a.value() != b.value(),
                "self-check: digest oracle missed a flipped value");
}

// --- Result ----------------------------------------------------------------

void Result::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (failures_.size() < 20) failures_.push_back(what);
  }
}

void Result::Set(const std::string& name, double value,
                 const std::string& unit, uint64_t samples) {
  metrics_[name] = MetricValue{value, unit, samples};
}

void ReleaseFreedMemory() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

double PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
