// Dynamic-regeneration serving (no paper figure — this measures the
// Section 6 "tuples generated while queries run" claim as a *service*):
// one RegenServer process, N concurrent clients, mixed point-lookup /
// range-scan / full-pipeline workloads over the TPC-DS and toy summaries.
//
// Sweeps the worker-thread and client-count axes and, at every
// configuration — including an eviction-heavy cache and odd batch sizes —
// asserts that each client's result stream hashes byte-identically to the
// reference configuration. A cursor interrupted by summary eviction must
// resume byte-identically after the reload; that is checked explicitly.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "hydra/regenerator.h"
#include "hydra/summary_io.h"
#include "hydra/tuple_generator.h"
#include "net/client.h"
#include "net/net_server.h"
#include "serve/server.h"
#include "workload/toy.h"

namespace {

using namespace hydra;

constexpr uint64_t kFnvSeed = 14695981039346656037ull;

uint64_t HashValues(uint64_t h, const Value* v, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    uint64_t x = static_cast<uint64_t>(v[i]);
    for (int b = 0; b < 8; ++b) {
      h ^= (x >> (8 * b)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  return h;
}

uint64_t HashString(uint64_t h, const std::string& s) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// Hashes a block's logical rows in row-major order: the stream hash is over
// row content, independent of the engine's storage layout, so it matches
// the pre-columnar reference streams bit for bit.
uint64_t HashBlock(uint64_t h, const RowBlock& block) {
  Row row(block.num_columns());
  for (int64_t r = 0; r < block.num_rows(); ++r) {
    block.CopyRowTo(r, row.data());
    h = HashValues(h, row.data(), block.num_columns());
  }
  return h;
}

// One client's unit of work; its result depends only on the item, never on
// the serving configuration, so hashes compare across configurations.
struct WorkItem {
  enum class Kind { kScan, kLookup, kQuery } kind = Kind::kScan;
  std::string summary_id;
  CursorSpec spec;              // kScan
  int relation = 0;             // kLookup
  int64_t relation_rows = 0;    // kLookup
  const Query* query = nullptr;  // kQuery
};

// Overload-tolerant variant of RunItem: a kResourceExhausted anywhere —
// session open, cursor grant, lookup or query admission — is expected
// shedding under a deliberately small admission window and surfaces as the
// returned status; every other failure is fatal. A shed mid-stream leaves
// the hash partial, so only fully-served items are hash-comparable.
StatusOr<uint64_t> TryRunItem(RegenServer& server, const WorkItem& item) {
  auto sid = server.OpenSession(OpenSessionRequest{item.summary_id});
  if (sid.status().code() == StatusCode::kResourceExhausted) {
    return sid.status();
  }
  HYDRA_CHECK_MSG(sid.ok(), sid.status().ToString());
  uint64_t h = kFnvSeed;
  Status status = Status::OK();
  switch (item.kind) {
    case WorkItem::Kind::kScan: {
      auto cid = server.OpenCursor(*sid, item.spec);
      HYDRA_CHECK_MSG(cid.ok(), cid.status().ToString());
      RowBlock block;
      for (;;) {
        auto batch = server.NextBatch(*sid, *cid, std::move(block));
        if (!batch.ok()) {
          status = batch.status();
          break;
        }
        if (batch->done) break;
        h = HashBlock(h, batch->rows);
        block = std::move(batch->rows);
      }
      break;
    }
    case WorkItem::Kind::kLookup: {
      for (int i = 0; i < 500 && status.ok(); ++i) {
        const int64_t pk = (i * 9973 + 17) % item.relation_rows;
        auto row = server.Lookup(*sid, item.relation, pk);
        status = row.status();
        if (row.ok()) {
          h = HashValues(h, row->data(), static_cast<int64_t>(row->size()));
        }
      }
      break;
    }
    case WorkItem::Kind::kQuery: {
      auto aqp = server.ExecuteQuery(*sid, *item.query);
      if (!aqp.ok()) {
        status = aqp.status();
      } else {
        for (const AqpStep& step : aqp->steps) {
          h = HashString(h, step.label);
          h = HashValues(
              h, reinterpret_cast<const Value*>(&step.cardinality), 1);
        }
      }
      break;
    }
  }
  HYDRA_CHECK_MSG(server.CloseSession(*sid).ok(), "close failed");
  if (!status.ok()) {
    HYDRA_CHECK_MSG(status.code() == StatusCode::kResourceExhausted,
                    "unexpected failure under overload: " << status.ToString());
    return status;
  }
  return h;
}

uint64_t RunItem(RegenServer& server, const WorkItem& item) {
  auto sid = server.OpenSession(OpenSessionRequest{item.summary_id});
  HYDRA_CHECK_MSG(sid.ok(), sid.status().ToString());
  uint64_t h = kFnvSeed;
  switch (item.kind) {
    case WorkItem::Kind::kScan: {
      auto cid = server.OpenCursor(*sid, item.spec);
      HYDRA_CHECK_MSG(cid.ok(), cid.status().ToString());
      RowBlock block;
      for (;;) {
        auto batch = server.NextBatch(*sid, *cid, std::move(block));
        HYDRA_CHECK_MSG(batch.ok(), batch.status().ToString());
        if (batch->done) break;
        h = HashBlock(h, batch->rows);
        block = std::move(batch->rows);
      }
      break;
    }
    case WorkItem::Kind::kLookup: {
      for (int i = 0; i < 500; ++i) {
        const int64_t pk = (i * 9973 + 17) % item.relation_rows;
        auto row = server.Lookup(*sid, item.relation, pk);
        HYDRA_CHECK_MSG(row.ok(), row.status().ToString());
        h = HashValues(h, row->data(), static_cast<int64_t>(row->size()));
      }
      break;
    }
    case WorkItem::Kind::kQuery: {
      auto aqp = server.ExecuteQuery(*sid, *item.query);
      HYDRA_CHECK_MSG(aqp.ok(), aqp.status().ToString());
      for (const AqpStep& step : aqp->steps) {
        h = HashString(h, step.label);
        h = HashValues(h,
                       reinterpret_cast<const Value*>(&step.cardinality), 1);
      }
      break;
    }
  }
  HYDRA_CHECK_MSG(server.CloseSession(*sid).ok(), "close failed");
  return h;
}

// Distributes the items round-robin over `clients` concurrent threads.
std::vector<uint64_t> RunClients(RegenServer& server,
                                 const std::vector<WorkItem>& items,
                                 int clients) {
  std::vector<uint64_t> hashes(items.size(), 0);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      for (size_t c = t; c < items.size(); c += clients) {
        hashes[c] = RunItem(server, items[c]);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  return hashes;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hydra::bench;

  JsonReporter json("fig_serve", argc, argv);
  PrintHeader("Dynamic-regeneration serving — throughput vs threads/clients",
              "Sections 6, 7.4: summaries served multi-tenant; every stream "
              "byte-identical at any configuration");

  // --- summaries on disk --------------------------------------------------
  const std::string dir = "fig_serve_tmp";
  std::filesystem::create_directories(dir);
  const std::string toy_path = dir + "/toy.summary";
  const std::string tpcds_path = dir + "/tpcds.summary";

  ToyEnvironment toy = MakeToyEnvironment();
  uint64_t toy_bytes = 0;
  {
    HydraRegenerator hydra(toy.schema);
    auto result = hydra.Regenerate(toy.ccs);
    HYDRA_CHECK_MSG(result.ok(), result.status().ToString());
    toy_bytes = result->summary.ByteSize();
    HYDRA_CHECK_OK(WriteSummary(result->summary, toy_path).status());
  }

  const ClientSite site =
      BuildTpcdsSite(/*scale_factor=*/0.5, TpcdsWorkloadKind::kSimple, 20);
  uint64_t tpcds_bytes = 0;
  int fact_relation = 0;
  int64_t fact_rows = 0;
  int fact_filter_attr = -1;
  Interval fact_domain(0, 1);
  {
    HydraRegenerator hydra(site.schema);
    auto result = hydra.Regenerate(site.ccs);
    HYDRA_CHECK_MSG(result.ok(), result.status().ToString());
    tpcds_bytes = result->summary.ByteSize();
    HYDRA_CHECK_OK(WriteSummary(result->summary, tpcds_path).status());
    const TupleGenerator gen(result->summary);
    for (int r = 0; r < site.schema.num_relations(); ++r) {
      if (static_cast<int64_t>(gen.RowCount(r)) > fact_rows) {
        fact_rows = static_cast<int64_t>(gen.RowCount(r));
        fact_relation = r;
      }
    }
    for (int a = 0; a < site.schema.relation(fact_relation).num_attributes();
         ++a) {
      const Attribute& attr = site.schema.relation(fact_relation).attribute(a);
      if (attr.kind == AttributeKind::kData) {
        fact_filter_attr = a;
        fact_domain = attr.domain;
        break;
      }
    }
  }
  std::printf("summaries: toy %llu B (%llu rows), tpcds %llu B (%lld rows "
              "in the largest relation)\n\n",
              (unsigned long long)toy_bytes, (unsigned long long)80000ull,
              (unsigned long long)tpcds_bytes, (long long)fact_rows);

  // --- the 16-item mixed workload ----------------------------------------
  std::vector<WorkItem> items;
  for (int c = 0; c < 16; ++c) {
    WorkItem item;
    const bool on_tpcds = c % 2 == 1;
    item.summary_id = on_tpcds ? "tpcds" : "toy";
    switch (c % 3) {
      case 0: {  // filtered + projected range scan
        item.kind = WorkItem::Kind::kScan;
        if (on_tpcds) {
          item.spec.relation = fact_relation;
          if (fact_filter_attr >= 0) {
            const int64_t width = fact_domain.hi - fact_domain.lo;
            const int64_t lo = fact_domain.lo + (c * 131) % std::max<int64_t>(
                                                    1, width / 2);
            item.spec.filter =
                PredicateOf(AtomRange(fact_filter_attr, lo, lo + width / 3));
          }
          const int64_t begin =
              (c * 1777) % std::max<int64_t>(1, fact_rows / 2);
          item.spec.begin_rank = begin;
          item.spec.end_rank = std::min(fact_rows, begin + 20000);
        } else {
          item.spec.relation = toy.schema.RelationIndex("R");
          const int64_t lo = (c * 37) % 300;
          item.spec.filter = PredicateOf(AtomRange(/*column=*/1, lo, lo + 250));
          item.spec.projection = {0, 1};
          item.spec.begin_rank = c * 1000;
          item.spec.end_rank = item.spec.begin_rank + 30000;
        }
        break;
      }
      case 1: {  // point-lookup burst
        item.kind = WorkItem::Kind::kLookup;
        if (on_tpcds) {
          item.relation = fact_relation;
          item.relation_rows = fact_rows;
        } else {
          item.relation = toy.schema.RelationIndex("R");
          item.relation_rows = 80000;
        }
        break;
      }
      default: {  // full engine pipeline
        item.kind = WorkItem::Kind::kQuery;
        item.query = on_tpcds ? &site.queries[c % site.queries.size()]
                              : &toy.query;
        break;
      }
    }
    items.push_back(std::move(item));
  }

  // --- configuration sweep -------------------------------------------------
  const uint64_t big_cache = 256ull << 20;
  const uint64_t tiny_cache = std::max(toy_bytes, tpcds_bytes) + 64;
  struct Config {
    std::string name;
    int threads;
    int clients;
    uint64_t cache_bytes;
    int64_t batch_rows;
  };
  std::vector<Config> configs;
  for (int threads : {1, 2, 4, 8}) {
    configs.push_back({"serve_t" + std::to_string(threads) + "_c16", threads,
                       16, big_cache, 4096});
  }
  configs.push_back({"serve_t8_c1", 8, 1, big_cache, 4096});
  configs.push_back({"serve_t8_c4", 8, 4, big_cache, 4096});
  configs.push_back({"serve_t8_c16_evict", 8, 16, tiny_cache, 513});
  configs.push_back({"serve_t2_c16_evict", 2, 16, tiny_cache, 1009});

  struct Sample {
    std::string name;
    int threads;
    int clients;
    double seconds;
    uint64_t rows;
    uint64_t evictions;
    uint64_t waits;
  };
  std::vector<Sample> samples;
  std::vector<uint64_t> reference;
  for (const Config& config : configs) {
    ServeOptions options;
    options.num_threads = config.threads;
    options.cache_bytes = config.cache_bytes;
    options.batch_rows = config.batch_rows;
    RegenServer server(options);
    HYDRA_CHECK_OK(server.RegisterSummary("toy", toy_path));
    HYDRA_CHECK_OK(server.RegisterSummary("tpcds", tpcds_path));

    Timer timer;
    const std::vector<uint64_t> hashes =
        RunClients(server, items, config.clients);
    const double seconds = timer.Seconds();

    if (reference.empty()) {
      reference = hashes;
    } else {
      HYDRA_CHECK_MSG(hashes == reference,
                      "client streams diverged in config " << config.name);
    }
    const ServeStats stats = server.stats();
    json.Record(config.name, seconds, stats.rows_served);
    samples.push_back({config.name, config.threads, config.clients, seconds,
                       stats.rows_served, stats.evictions,
                       stats.admission_waits});
  }

  // --- explicit eviction-resume check --------------------------------------
  {
    ServeOptions options;
    options.num_threads = 1;
    options.cache_bytes = tiny_cache;
    options.batch_rows = 1000;
    RegenServer server(options);
    HYDRA_CHECK_OK(server.RegisterSummary("toy", toy_path));
    HYDRA_CHECK_OK(server.RegisterSummary("tpcds", tpcds_path));
    CursorSpec spec;
    spec.relation = toy.schema.RelationIndex("R");
    auto sid = server.OpenSession(OpenSessionRequest{"toy"});
    HYDRA_CHECK_OK(sid.status());
    auto cid = server.OpenCursor(*sid, spec);
    HYDRA_CHECK_OK(cid.status());
    uint64_t h = kFnvSeed;
    RowBlock block;
    for (int i = 0; i < 10; ++i) {
      auto batch = server.NextBatch(*sid, *cid, std::move(block));
      HYDRA_CHECK_MSG(batch.ok() && !batch->done, "unexpected end of stream");
      h = HashBlock(h, batch->rows);
      block = std::move(batch->rows);
    }
    // Touch the other summary so the toy summary is evicted mid-stream.
    auto other = server.OpenSession(OpenSessionRequest{"tpcds"});
    HYDRA_CHECK_OK(other.status());
    HYDRA_CHECK_OK(server.Lookup(*other, fact_relation, 0).status());
    HYDRA_CHECK_MSG(server.stats().evictions >= 1, "no eviction forced");
    for (;;) {
      auto batch = server.NextBatch(*sid, *cid, std::move(block));
      HYDRA_CHECK_OK(batch.status());
      if (batch->done) break;
      h = HashBlock(h, batch->rows);
      block = std::move(batch->rows);
    }
    // Reference: the same scan on an untouched server with a huge cache.
    ServeOptions ref_options;
    ref_options.num_threads = 1;
    ref_options.cache_bytes = big_cache;
    RegenServer ref_server(ref_options);
    HYDRA_CHECK_OK(ref_server.RegisterSummary("toy", toy_path));
    auto ref_sid = ref_server.OpenSession(OpenSessionRequest{"toy"});
    HYDRA_CHECK_OK(ref_sid.status());
    auto ref_cid = ref_server.OpenCursor(*ref_sid, spec);
    HYDRA_CHECK_OK(ref_cid.status());
    uint64_t ref_hash = kFnvSeed;
    for (;;) {
      auto batch = ref_server.NextBatch(*ref_sid, *ref_cid, std::move(block));
      HYDRA_CHECK_OK(batch.status());
      if (batch->done) break;
      ref_hash = HashBlock(ref_hash, batch->rows);
      block = std::move(batch->rows);
    }
    HYDRA_CHECK_MSG(h == ref_hash,
                    "cursor stream diverged across eviction + reload");
    std::printf("eviction-resume check: cursor stream byte-identical across "
                "summary eviction and reload\n\n");
  }
  // --- overload / shedding axis -------------------------------------------
  // A deliberately small admission window (2 inflight, 2 queued) under an
  // oversized client fleet. The failure-domain contract (docs/robustness.md):
  // excess demand fast-rejects with RESOURCE_EXHAUSTED instead of queueing
  // without bound, served sessions keep bounded tail latency, and every
  // fully-served stream still hashes byte-identical to the reference run.
  struct OverloadSample {
    std::string name;
    int clients;
    uint64_t attempts;
    uint64_t served;
    uint64_t shed;
    double seconds;
    double p50_ms;
    double p95_ms;
    double p99_ms;
  };
  std::vector<OverloadSample> overload_samples;
  for (const int clients : {8, 32}) {
    ServeOptions options;
    options.num_threads = 2;
    options.max_inflight = 2;
    options.max_queued = 2;
    options.cache_bytes = big_cache;
    options.batch_rows = 4096;
    RegenServer server(options);
    HYDRA_CHECK_OK(server.RegisterSummary("toy", toy_path));
    HYDRA_CHECK_OK(server.RegisterSummary("tpcds", tpcds_path));

    constexpr int kItemsPerClient = 8;
    std::atomic<uint64_t> served{0};
    std::atomic<uint64_t> shed{0};
    std::mutex mu;
    std::vector<double> latencies_ms;
    std::vector<std::thread> threads;
    threads.reserve(clients);
    Timer timer;
    for (int t = 0; t < clients; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kItemsPerClient; ++i) {
          const size_t idx = (t * 7 + i * 3) % items.size();
          Timer item_timer;
          const StatusOr<uint64_t> hash = TryRunItem(server, items[idx]);
          const double ms = item_timer.Seconds() * 1e3;
          if (hash.ok()) {
            HYDRA_CHECK_MSG(*hash == reference[idx],
                            "served stream diverged under overload");
            served.fetch_add(1);
            std::lock_guard<std::mutex> lock(mu);
            latencies_ms.push_back(ms);
          } else {
            shed.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& th : threads) th.join();
    const double seconds = timer.Seconds();

    std::sort(latencies_ms.begin(), latencies_ms.end());
    const auto pct = [&](double p) {
      if (latencies_ms.empty()) return 0.0;
      const size_t i = static_cast<size_t>(p * (latencies_ms.size() - 1));
      return latencies_ms[i];
    };
    OverloadSample sample;
    sample.clients = clients;
    sample.name = "serve_overload_c" + std::to_string(clients);
    sample.attempts = static_cast<uint64_t>(clients) * kItemsPerClient;
    sample.served = served.load();
    sample.shed = shed.load();
    sample.seconds = seconds;
    sample.p50_ms = pct(0.50);
    sample.p95_ms = pct(0.95);
    sample.p99_ms = pct(0.99);
    HYDRA_CHECK_MSG(sample.served > 0, "overload shed every single request");
    HYDRA_CHECK_MSG(sample.served + sample.shed == sample.attempts,
                    "lost requests under overload");
    const ServeStats stats = server.stats();
    HYDRA_CHECK_MSG(sample.shed == 0 || stats.shed_requests > 0,
                    "client-side rejections not accounted by the server");
    // Wall clock gates as a perf trajectory; the p95 record rides under the
    // compare_bench noise floor on this workload but is tracked.
    json.Record(sample.name, seconds, sample.served);
    json.Record(sample.name + "_p95", sample.p95_ms / 1e3, sample.served);
    overload_samples.push_back(std::move(sample));
  }
  // --- shared-scan multicast axis ------------------------------------------
  // N clients stream the same rank range of the TPC-DS fact relation
  // concurrently, with the scan-group layer on (multicast: one generation
  // pass per chunk feeds the whole group) and off (unicast: every client
  // generates privately). Every client stream is hash-checked against a
  // solo run, aggregate throughput and pooled per-batch p95 are recorded,
  // and the shared run's generation passes per chunk must stay ~1.
  struct SharedSample {
    std::string name;
    int clients;
    bool shared;
    double seconds;
    double agg_rows_per_s;
    double p95_ms;
    double passes_per_chunk;
    uint64_t fanout;
  };
  std::vector<SharedSample> shared_samples;
  {
    // The axis scans a deliberately finely-partitioned summary — the
    // complex-workload (WLc) regime, where thousands of cardinality
    // constraints fragment the solution into runs of one or two tuples.
    // Regenerating such a relation is run-lookup-bound rather than
    // splat-bound, so generating it once per co-resident client is exactly
    // the waste the multicast layer reclaims. (The simple-workload TPC-DS
    // summary above has runs so long that regeneration is a memset.)
    const int64_t scan_rows = 65536;
    const int64_t batch = 4096;
    const int64_t chunks = (scan_rows + batch - 1) / batch;
    constexpr int kFragAttrs = 20;
    const std::string frag_path = dir + "/frag.summary";
    {
      Schema schema;
      Relation f("F", scan_rows);
      f.AddPrimaryKey("F_pk");
      for (int a = 0; a < kFragAttrs; ++a) {
        f.AddDataAttribute("d" + std::to_string(a), Interval(0, 1000));
      }
      schema.AddRelation(std::move(f));
      DatabaseSummary summary;
      summary.schema = std::move(schema);
      RelationSummary rs;
      rs.relation = 0;
      for (int a = 0; a < kFragAttrs; ++a) rs.attr_indices.push_back(1 + a);
      for (int64_t i = 0; i < scan_rows; ++i) {
        SolutionRow row;
        row.count = 1;  // every tuple its own summary run
        row.values.resize(kFragAttrs);
        for (int a = 0; a < kFragAttrs; ++a) {
          row.values[a] = static_cast<Value>((i * 131 + a * 37) % 1000);
        }
        rs.rows.push_back(std::move(row));
      }
      rs.Finalize();
      summary.relations.push_back(std::move(rs));
      summary.extra_tuples.assign(1, 0);
      HYDRA_CHECK_OK(WriteSummary(summary, frag_path).status());
    }
    // Every client streams the same rank range and projects two of the
    // thirteen columns — the typical dashboard shape. The private path must
    // still regenerate every column to serve it (generation is all-or-
    // nothing per rank), while a multicast member only gathers its
    // projection out of the already-generated shared chunk.
    CursorSpec spec;
    spec.relation = 0;
    spec.end_rank = scan_rows;
    spec.projection = {0, 1};

    // Cheap order-sensitive sample hash: column 0 plus one rotating column
    // per batch (the full byte-identity sweep lives in serve_test; here the
    // hash must not dominate the serving cost it measures). Comparable only
    // across runs with identical batch boundaries — which identity scans
    // from rank 0 at one batch_rows guarantee (shared chunks sit on the
    // same 4096-rank grid as private grants).
    const auto hash_batch = [](uint64_t h, int64_t batch_idx,
                               const RowBlock& block) {
      const int cols = block.num_columns();
      const int rotating =
          cols > 1 ? 1 + static_cast<int>(batch_idx % (cols - 1)) : 0;
      for (const int c : {0, rotating}) {
        const Value* v = block.Column(c);
        for (int64_t i = 0; i < block.num_rows(); ++i) {
          h ^= static_cast<uint64_t>(v[i]) + 0x9e3779b97f4a7c15ull +
               (h << 6) + (h >> 2);
        }
      }
      return h;
    };

    const auto make_server = [&](bool shared) {
      ServeOptions options;
      options.num_threads = 4;
      options.max_inflight = 8;
      options.cache_bytes = big_cache;
      options.batch_rows = batch;
      options.shared_scan = shared;
      // Ring sized to the whole scan (16 chunks ≈ 4 MB here): with heavy
      // client-thread oversubscription the spread between the fastest and
      // slowest co-resident cursor exceeds any small ring, and a ring
      // smaller than the spread paces the frontier (or degrades stragglers
      // to catch-up refills). Memory is the knob: slots × chunk bytes buys
      // immunity to that skew.
      options.shared_scan_chunks = static_cast<int>(chunks);
      auto server = std::make_unique<RegenServer>(options);
      HYDRA_CHECK_OK(server->RegisterSummary("frag", frag_path));
      return server;
    };

    // Solo reference stream hash.
    uint64_t solo_hash = kFnvSeed;
    {
      auto server = make_server(false);
      auto sid = server->OpenSession(OpenSessionRequest{"frag"});
      HYDRA_CHECK_OK(sid.status());
      auto cid = server->OpenCursor(*sid, spec);
      HYDRA_CHECK_OK(cid.status());
      RowBlock block;
      int64_t batch_idx = 0;
      for (;;) {
        auto batch = server->NextBatch(*sid, *cid, std::move(block));
        HYDRA_CHECK_OK(batch.status());
        if (batch->done) break;
        solo_hash = hash_batch(solo_hash, batch_idx++, batch->rows);
        block = std::move(batch->rows);
      }
    }

    for (const int clients : {1, 8, 32, 128}) {
      for (const bool shared : {false, true}) {
        auto server = make_server(shared);
        // Sessions and cursors open before any streaming, so the shared
        // run's group is fully formed when the first chunk is produced.
        std::vector<SessionHandle> sids(clients);
        std::vector<CursorHandle> cids(clients);
        for (int t = 0; t < clients; ++t) {
          auto sid = server->OpenSession(OpenSessionRequest{"frag"});
          HYDRA_CHECK_OK(sid.status());
          sids[t] = *sid;
          auto cid = server->OpenCursor(sids[t], spec);
          HYDRA_CHECK_OK(cid.status());
          cids[t] = *cid;
        }
        std::vector<uint64_t> hashes(clients, kFnvSeed);
        std::vector<std::vector<double>> batch_ms(clients);
        std::vector<std::thread> threads;
        threads.reserve(clients);
        Timer timer;
        for (int t = 0; t < clients; ++t) {
          threads.emplace_back([&, t] {
            RowBlock block;
            int64_t batch_idx = 0;
            for (;;) {
              Timer batch_timer;
              auto batch = server->NextBatch(sids[t], cids[t], std::move(block));
              HYDRA_CHECK_MSG(batch.ok(), batch.status().ToString());
              if (batch->done) break;
              batch_ms[t].push_back(batch_timer.Seconds() * 1e3);
              hashes[t] = hash_batch(hashes[t], batch_idx++, batch->rows);
              block = std::move(batch->rows);
            }
          });
        }
        for (std::thread& th : threads) th.join();
        const double seconds = timer.Seconds();
        for (int t = 0; t < clients; ++t) {
          HYDRA_CHECK_MSG(hashes[t] == solo_hash,
                          "client " << t << " diverged from the solo stream ("
                                    << (shared ? "shared" : "independent")
                                    << ", clients=" << clients << ")");
          HYDRA_CHECK_OK(server->CloseSession(sids[t]));
        }
        std::vector<double> pooled;
        for (const auto& v : batch_ms) {
          pooled.insert(pooled.end(), v.begin(), v.end());
        }
        std::sort(pooled.begin(), pooled.end());
        const double p95 =
            pooled.empty()
                ? 0.0
                : pooled[static_cast<size_t>(0.95 * (pooled.size() - 1))];
        const ServeStats stats = server->stats();
        SharedSample sample;
        sample.clients = clients;
        sample.shared = shared;
        sample.name = std::string(shared ? "serve_shared_c" : "serve_indep_c") +
                      std::to_string(clients);
        sample.seconds = seconds;
        sample.agg_rows_per_s =
            static_cast<double>(clients) * scan_rows / std::max(1e-9, seconds);
        sample.p95_ms = p95;
        // Unicast runs never touch shared chunks: by construction every
        // client is its own generation pass, i.e. `clients` passes/chunk.
        sample.passes_per_chunk =
            shared ? static_cast<double>(stats.shared_chunk_fills) / chunks
                   : static_cast<double>(clients);
        sample.fanout = stats.peak_group_fanout;
        if (shared && clients >= 2) {
          HYDRA_CHECK_MSG(stats.scan_groups_formed >= 1 &&
                              stats.peak_group_fanout >=
                                  static_cast<uint64_t>(clients),
                          "scan group never formed at fan-out " << clients);
          HYDRA_CHECK_MSG(
              sample.passes_per_chunk < 2.0,
              "multicast regenerated chunks " << sample.passes_per_chunk
                                              << "x instead of ~1x");
        }
        json.Record(sample.name, seconds,
                    static_cast<uint64_t>(clients) * scan_rows);
        json.Record(sample.name + "_p95", p95 / 1e3,
                    static_cast<uint64_t>(pooled.size()));
        shared_samples.push_back(std::move(sample));
      }
    }
  }
  // --- socket axis ----------------------------------------------------------
  // The same serve API over the TCP front end (src/net/): N NetClients on
  // localhost stream one bounded projected scan each, every wire stream is
  // hash-checked against the in-process reference (hard fail on divergence),
  // and aggregate rows/s + pooled per-batch p95 are recorded next to an
  // in-process run at the same fan-out. A drop-reconnect-resume pass at the
  // end exercises the wire resume protocol (docs/net.md) on the same spec.
  struct NetSample {
    std::string name;
    int clients;
    double seconds;
    double agg_rows_per_s;
    double p95_ms;
    double inproc_rows_per_s;
  };
  std::vector<NetSample> net_samples;
  {
    // Long enough that per-connection fixed costs (TCP handshake, session
    // open, client-thread spawn) amortize out of the throughput ratio —
    // the gate measures the steady-state wire tax, not connection setup.
    const int64_t scan_rows = 65536;
    CursorSpec spec;
    spec.relation = toy.schema.RelationIndex("R");
    spec.projection = {0, 1};
    spec.end_rank = scan_rows;

    const auto make_server = [&]() {
      ServeOptions options;
      options.num_threads = 4;
      options.max_inflight = 8;
      options.cache_bytes = big_cache;
      // Wire serving wants larger batches than the in-process sweeps: the
      // per-batch cost of a round trip (two thread handoffs + TCP) is fixed,
      // so batch size is the amortization knob — and batch boundaries never
      // affect stream content.
      options.batch_rows = 8192;
      auto server = std::make_unique<RegenServer>(options);
      HYDRA_CHECK_OK(server->RegisterSummary("toy", toy_path));
      return server;
    };

    // In-process reference hash of the spec's stream.
    uint64_t net_ref_hash = kFnvSeed;
    {
      auto server = make_server();
      auto sid = server->OpenSession(OpenSessionRequest{"toy"});
      HYDRA_CHECK_OK(sid.status());
      auto cid = server->OpenCursor(*sid, spec);
      HYDRA_CHECK_OK(cid.status());
      RowBlock block;
      for (;;) {
        auto batch = server->NextBatch(*sid, *cid, std::move(block));
        HYDRA_CHECK_OK(batch.status());
        if (batch->done) break;
        net_ref_hash = HashBlock(net_ref_hash, batch->rows);
        block = std::move(batch->rows);
      }
    }

    // In-process comparator: `clients` threads stream the spec straight
    // from a RegenServer. Returns the wall seconds.
    const auto run_inproc = [&](int clients) {
      auto server = make_server();
      std::vector<std::thread> threads;
      threads.reserve(clients);
      Timer timer;
      for (int t = 0; t < clients; ++t) {
        threads.emplace_back([&] {
          auto sid = server->OpenSession(OpenSessionRequest{"toy"});
          HYDRA_CHECK_OK(sid.status());
          auto cid = server->OpenCursor(*sid, spec);
          HYDRA_CHECK_OK(cid.status());
          uint64_t h = kFnvSeed;
          RowBlock block;
          for (;;) {
            auto batch = server->NextBatch(*sid, *cid, std::move(block));
            HYDRA_CHECK_MSG(batch.ok(), batch.status().ToString());
            if (batch->done) break;
            h = HashBlock(h, batch->rows);
            block = std::move(batch->rows);
          }
          HYDRA_CHECK_MSG(h == net_ref_hash, "in-process stream diverged");
          HYDRA_CHECK_OK(server->CloseSession(*sid));
        });
      }
      for (std::thread& th : threads) th.join();
      return timer.Seconds();
    };

    // Socket run: one NetClient (and one connection) per client thread.
    // Appends every batch latency (ms) to *pooled; returns the wall seconds.
    const auto run_socket = [&](int clients, std::vector<double>* pooled) {
      auto server = make_server();
      NetServerOptions net_options;
      net_options.worker_threads = 4;
      NetServer net(server.get(), net_options);
      HYDRA_CHECK_OK(net.Start());
      const int port = net.port();
      std::mutex mu;
      std::vector<std::thread> threads;
      threads.reserve(clients);
      Timer timer;
      for (int t = 0; t < clients; ++t) {
        threads.emplace_back([&] {
          NetClient client;
          HYDRA_CHECK_OK(client.Connect("127.0.0.1", port));
          auto sid = client.OpenSession(OpenSessionRequest{"toy"});
          HYDRA_CHECK_OK(sid.status());
          auto cid = client.OpenCursor(*sid, spec);
          HYDRA_CHECK_OK(cid.status());
          uint64_t h = kFnvSeed;
          std::vector<double> batch_ms;
          RowBlock block;
          for (;;) {
            Timer batch_timer;
            auto batch = client.NextBatch(*sid, *cid, std::move(block));
            HYDRA_CHECK_MSG(batch.ok(), batch.status().ToString());
            if (batch->done) break;
            batch_ms.push_back(batch_timer.Seconds() * 1e3);
            h = HashBlock(h, batch->rows);
            block = std::move(batch->rows);
          }
          HYDRA_CHECK_MSG(h == net_ref_hash,
                          "wire stream diverged from in-process");
          HYDRA_CHECK_OK(client.CloseSession(*sid));
          std::lock_guard<std::mutex> lock(mu);
          pooled->insert(pooled->end(), batch_ms.begin(), batch_ms.end());
        });
      }
      for (std::thread& th : threads) th.join();
      const double seconds = timer.Seconds();
      net.Stop();
      return seconds;
    };

    const auto median = [](std::vector<double> v) {
      std::sort(v.begin(), v.end());
      return v[v.size() / 2];
    };

    for (const int clients : {1, 8, 32, 128}) {
      // The 32-client ratio is gated, so there each side runs three times,
      // alternating which goes first, and the gate compares the medians: a
      // single descheduled run on either side cannot decide it.
      const int reps = clients == 32 ? 3 : 1;
      std::vector<double> inproc_runs;
      std::vector<double> socket_runs;
      std::vector<double> pooled;
      for (int rep = 0; rep < reps; ++rep) {
        if (rep % 2 == 0) {
          inproc_runs.push_back(run_inproc(clients));
          socket_runs.push_back(run_socket(clients, &pooled));
        } else {
          socket_runs.push_back(run_socket(clients, &pooled));
          inproc_runs.push_back(run_inproc(clients));
        }
      }
      const double inproc_seconds = median(inproc_runs);
      const double socket_seconds = median(socket_runs);

      std::sort(pooled.begin(), pooled.end());
      const double p95 =
          pooled.empty()
              ? 0.0
              : pooled[static_cast<size_t>(0.95 * (pooled.size() - 1))];
      NetSample sample;
      sample.clients = clients;
      sample.name = "serve_net_c" + std::to_string(clients);
      sample.seconds = socket_seconds;
      sample.agg_rows_per_s = static_cast<double>(clients) * scan_rows /
                              std::max(1e-9, socket_seconds);
      sample.p95_ms = p95;
      sample.inproc_rows_per_s = static_cast<double>(clients) * scan_rows /
                                 std::max(1e-9, inproc_seconds);
      if (clients == 32) {
        HYDRA_CHECK_MSG(
            sample.agg_rows_per_s >= 0.5 * sample.inproc_rows_per_s,
            "socket axis fell below half the in-process throughput at 32 "
            "clients (medians of 3): " << sample.agg_rows_per_s << " vs "
                        << sample.inproc_rows_per_s << " rows/s");
      }
      json.Record(sample.name, socket_seconds,
                  static_cast<uint64_t>(clients) * scan_rows);
      json.Record(sample.name + "_p95", p95 / 1e3,
                  static_cast<uint64_t>(pooled.size()));
      net_samples.push_back(std::move(sample));
    }

    // Drop-reconnect-resume over the wire: kill the connection after three
    // batches and continue from BatchResult::rank on a fresh one. The
    // concatenated stream must hash identical to the uninterrupted run.
    {
      auto server = make_server();
      NetServer net(server.get());
      HYDRA_CHECK_OK(net.Start());
      NetClient client;
      HYDRA_CHECK_OK(client.Connect("127.0.0.1", net.port()));
      auto sid = client.OpenSession(OpenSessionRequest{"toy"});
      HYDRA_CHECK_OK(sid.status());
      auto cid = client.OpenCursor(*sid, spec);
      HYDRA_CHECK_OK(cid.status());
      uint64_t h = kFnvSeed;
      int64_t resume_rank = 0;
      RowBlock block;
      for (int i = 0; i < 3; ++i) {
        auto batch = client.NextBatch(*sid, *cid, std::move(block));
        HYDRA_CHECK_MSG(batch.ok() && !batch->done, "stream ended early");
        h = HashBlock(h, batch->rows);
        resume_rank = batch->rank;
        block = std::move(batch->rows);
      }
      client.Disconnect();  // abrupt: the server reaps the orphan session
      HYDRA_CHECK_OK(client.Connect("127.0.0.1", net.port()));
      auto sid2 = client.OpenSession(OpenSessionRequest{"toy"});
      HYDRA_CHECK_OK(sid2.status());
      CursorSpec resume = spec;
      resume.begin_rank = resume_rank;
      auto cid2 = client.OpenCursor(*sid2, resume);
      HYDRA_CHECK_OK(cid2.status());
      for (;;) {
        auto batch = client.NextBatch(*sid2, *cid2, std::move(block));
        HYDRA_CHECK_OK(batch.status());
        if (batch->done) break;
        h = HashBlock(h, batch->rows);
        block = std::move(batch->rows);
      }
      HYDRA_CHECK_MSG(h == net_ref_hash,
                      "wire stream diverged across drop + resume");
      net.Stop();
      std::printf("wire resume check: stream byte-identical across a dropped "
                  "connection\n(reconnect + OpenCursor at the last "
                  "BatchResult::rank)\n\n");
    }
  }
  std::filesystem::remove_all(dir);

  // --- report --------------------------------------------------------------
  TextTable table({"config", "threads", "clients", "wall", "rows/s",
                   "evictions", "adm. waits", "speedup vs t1"});
  const double t1 = samples[0].seconds;
  for (const Sample& s : samples) {
    table.AddRow({s.name, std::to_string(s.threads),
                  std::to_string(s.clients), FormatDuration(s.seconds),
                  TextTable::Cell(s.rows / std::max(1e-9, s.seconds), 0),
                  std::to_string(s.evictions), std::to_string(s.waits),
                  TextTable::Cell(t1 / s.seconds, 2)});
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf(
      "All 16 client streams hashed byte-identical across every "
      "configuration\n(threads x clients x cache budget x batch size).\n\n");

  TextTable overload_table({"overload config", "clients", "attempts", "served",
                            "shed", "reject %", "p50 ms", "p95 ms", "p99 ms"});
  for (const OverloadSample& s : overload_samples) {
    overload_table.AddRow(
        {s.name, std::to_string(s.clients), std::to_string(s.attempts),
         std::to_string(s.served), std::to_string(s.shed),
         TextTable::Cell(100.0 * s.shed / std::max<uint64_t>(1, s.attempts), 1),
         TextTable::Cell(s.p50_ms, 2), TextTable::Cell(s.p95_ms, 2),
         TextTable::Cell(s.p99_ms, 2)});
  }
  std::printf("%s\n", overload_table.Render().c_str());
  std::printf(
      "Overload axis: admission window 2+2 queued; excess demand is shed "
      "with\nRESOURCE_EXHAUSTED and every fully-served stream stayed "
      "byte-identical.\n\n");

  TextTable shared_table({"multicast config", "clients", "wall", "agg rows/s",
                          "p95 ms", "passes/chunk", "fanout",
                          "speedup vs indep"});
  for (const SharedSample& s : shared_samples) {
    double indep_seconds = s.seconds;
    for (const SharedSample& o : shared_samples) {
      if (!o.shared && o.clients == s.clients) indep_seconds = o.seconds;
    }
    shared_table.AddRow(
        {s.name, std::to_string(s.clients), FormatDuration(s.seconds),
         TextTable::Cell(s.agg_rows_per_s, 0), TextTable::Cell(s.p95_ms, 3),
         TextTable::Cell(s.passes_per_chunk, 2), std::to_string(s.fanout),
         s.shared ? TextTable::Cell(indep_seconds / s.seconds, 2)
                  : std::string("-")});
  }
  std::printf("%s\n", shared_table.Render().c_str());
  std::printf(
      "Shared-scan axis: co-resident cursors over one rank range; the "
      "multicast\nruns regenerate each chunk ~once regardless of fan-out and "
      "every member\nstream hashed identical to the solo stream.\n\n");

  TextTable net_table({"socket config", "clients", "wall", "agg rows/s",
                       "p95 ms", "in-proc rows/s", "wire/in-proc"});
  for (const NetSample& s : net_samples) {
    net_table.AddRow(
        {s.name, std::to_string(s.clients), FormatDuration(s.seconds),
         TextTable::Cell(s.agg_rows_per_s, 0), TextTable::Cell(s.p95_ms, 2),
         TextTable::Cell(s.inproc_rows_per_s, 0),
         TextTable::Cell(s.agg_rows_per_s /
                             std::max(1e-9, s.inproc_rows_per_s),
                         2)});
  }
  std::printf("%s\n", net_table.Render().c_str());
  std::printf(
      "Socket axis: the same typed serve API over the TCP front end on "
      "localhost;\nevery wire stream hashed byte-identical to the in-process "
      "reference, and a\ndropped connection resumed byte-identically from "
      "BatchResult::rank.\n");
  const unsigned hw = std::thread::hardware_concurrency();
  const double speedup =
      samples[0].seconds / samples[3].seconds;  // t8_c16 vs t1_c16
  if (hw >= 4 && speedup < 1.2) {
    std::printf(
        "\nWARNING: %u hardware threads but only %.2fx speedup from 1 -> 8 "
        "worker\nthreads at 16 clients — admission or the shared pool may "
        "have lost parallelism.\n",
        hw, speedup);
  } else if (hw < 4) {
    std::printf(
        "\nNote: only %u hardware thread(s) — serving cannot speed up here; "
        "the\ncross-configuration identity checks above are the correctness "
        "signal.\n",
        hw);
  }
  return 0;
}
