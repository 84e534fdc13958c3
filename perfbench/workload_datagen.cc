// datagen_wls: queries run while their data is generated (Section 6).
// TPC-DS sf 32 with the simple workload WLs (80 queries); the summary is
// built during set-up. Each loop iteration is one full query pass through
// the Executor at width nproc over a TupleGenerator, then full columnar
// FillBlockRange scans of the five largest relations. Keeps the generator,
// engine and thread pool busy; leaves the LP idle. sf 32 because at sf 8
// the width-4 pass was bimodal between processes.

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "bench.h"
#include "engine/executor.h"
#include "hydra/regenerator.h"
#include "hydra/tuple_generator.h"
#include "inputs.h"

namespace perfbench {
namespace {

constexpr int64_t kScanBlockRows = 65536;
// The oracle's block size: any size other than kScanBlockRows.
constexpr int64_t kOracleBlockRows = 10007;

struct DatagenSetup {
  hydra::Schema schema;
  std::vector<hydra::Query> queries;
  hydra::DatabaseSummary summary;
  std::unique_ptr<hydra::TupleGenerator> generator;  // over summary
  std::unique_ptr<hydra::Executor> executor;         // over schema
  std::vector<int> scan_relations;
};

// One query pass: every AQP cardinality in plan order, the output rows
// (each query's last plan step), and per-query seconds.
struct PassResult {
  bool ok = true;
  std::vector<uint64_t> cards;
  uint64_t rows_out = 0;
  Samples query_s;
};

PassResult QueryPass(const hydra::Executor& executor,
                     const DatagenSetup& setup, uint64_t request,
                     Result* result) {
  PassResult pass;
  for (const hydra::Query& q : setup.queries) {
    const double t0 = NowSeconds();
    hydra::StatusOr<hydra::AnnotatedQueryPlan> aqp = hydra::Status::OK();
    {
      Span span("engine", "Executor::Execute", request);
      aqp = executor.Execute(q, *setup.generator);
    }
    pass.query_s.Add(NowSeconds() - t0);
    if (!aqp.ok()) {
      result->Check(false, "Execute: " + aqp.status().ToString());
      pass.ok = false;
      return pass;
    }
    for (const hydra::AqpStep& step : aqp->steps) {
      pass.cards.push_back(step.cardinality);
    }
    if (!aqp->steps.empty()) pass.rows_out += aqp->steps.back().cardinality;
  }
  return pass;
}

// Scans every scan relation in kScanBlockRows blocks into `block`. Returns
// the fill seconds; `digests` gets one stream digest per relation and
// `oracle_s` the time spent digesting (not part of any layer).
double ScanPass(const DatagenSetup& setup, uint64_t request,
                std::vector<uint64_t>* digests, int64_t* rows,
                double* oracle_s, hydra::RowBlock* block) {
  double fill_s = 0;
  digests->clear();
  for (const int rel : setup.scan_relations) {
    const int64_t total =
        static_cast<int64_t>(setup.generator->RowCount(rel));
    const int width = setup.summary.schema.relation(rel).num_attributes();
    StreamDigest digest;
    for (int64_t begin = 0; begin < total; begin += kScanBlockRows) {
      const int64_t end = std::min(total, begin + kScanBlockRows);
      block->Reset(width);
      const double t0 = NowSeconds();
      {
        Span span("hydra.tuple_generator", "FillBlockRange", request);
        setup.generator->FillBlockRange(rel, begin, end, block);
      }
      const double t1 = NowSeconds();
      digest.AddBlock(*block, begin);
      *oracle_s += NowSeconds() - t1;
      fill_s += t1 - t0;
      *rows += end - begin;
    }
    digests->push_back(digest.value());
  }
  return fill_s;
}

}  // namespace

void RunDatagenWls(const Args& args, Result* result) {
  const int width = Nproc();
  Samples site_s;
  auto setup = RepeatedSetup<DatagenSetup>(3, result, [&] {
    auto s = std::make_unique<DatagenSetup>();
    const double t0 = NowSeconds();
    {
      // The client site (with its database) lives only through set-up.
      hydra::ClientSite site = BuildTpcdsSite(
          32.0, hydra::TpcdsWorkloadKind::kSimple, 80, args.seed);
      site_s.Add(NowSeconds() - t0);
      auto regen = hydra::HydraRegenerator(site.schema).Regenerate(site.ccs);
      if (!regen.ok()) {
        throw std::runtime_error("Regenerate: " + regen.status().ToString());
      }
      s->summary = std::move(regen->summary);
      s->schema = std::move(site.schema);
      s->queries = std::move(site.queries);
    }
    s->generator = std::make_unique<hydra::TupleGenerator>(s->summary);
    s->executor = std::make_unique<hydra::Executor>(
        s->schema, hydra::ExecOptions{width, 4096});
    s->scan_relations = LargestRelations(s->summary, 5);
    return s;
  });
  result->Set("workload.client_site_ms", site_s.Median() * 1e3, "ms",
              site_s.size());

  // The loop. A traced run measures its first half untraced (the
  // headline the tracing overhead is taken against) and its second half
  // traced.
  const double start = NowSeconds();
  const double untraced_end =
      start + (args.trace ? 0.5 : 1.0) * args.seconds;
  std::vector<uint64_t> first_cards, first_digests;
  Samples pass_s, traced_pass_s, query_s, fill_ms, fill_in_query_ms,
      self_ms;
  int64_t scan_rows = 0, traced_scan_rows = 0;
  uint64_t rows_out = 0;
  double scan_fill_s = 0, traced_fill_s = 0, layer_s = 0, loop_s = 0;
  // Scans reuse one block, as a streaming consumer would. A fresh 10 MB
  // block per pass made the next query passes 2x slower and erratic.
  hydra::RowBlock scan_block;
  for (uint64_t iter = 0;; ++iter) {
    const double now = NowSeconds();
    const bool traced = args.trace && now >= untraced_end;
    if (now >= start + args.seconds &&
        pass_s.size() >= 3 && (!args.trace || traced_pass_s.size() >= 3)) {
      break;
    }
    Tracer::Get().set_enabled(traced);
    const double t0 = NowSeconds();
    RegistryDelta delta;
    const PassResult pass = QueryPass(*setup->executor, *setup, iter, result);
    if (!pass.ok) break;
    delta.Finish();
    const double t1 = NowSeconds();
    (traced ? traced_pass_s : pass_s).Add(t1 - t0);
    if (first_cards.empty()) {
      first_cards = pass.cards;
      rows_out = pass.rows_out;
    }
    result->Check(pass.cards == first_cards,
                  "query pass: AQP cardinalities differ between passes");

    std::vector<uint64_t> digests;
    int64_t rows = 0;
    double pass_oracle_s = 0;
    const double fill_s = ScanPass(*setup, iter, &digests, &rows,
                                   &pass_oracle_s, &scan_block);
    const double t2 = NowSeconds();
    if (first_digests.empty()) first_digests = digests;
    result->Check(digests == first_digests,
                  "scan pass: relation digests differ between passes");
    if (!traced) {
      scan_rows += rows;
      scan_fill_s += fill_s;
      continue;
    }
    const double gen_ms =
        static_cast<double>(delta.Histogram("gen/fill_us").sum) / 1e3;
    fill_in_query_ms.Add(gen_ms);
    self_ms.Add((t1 - t0) * 1e3 - gen_ms);
    query_s.Append(pass.query_s);
    fill_ms.Add(fill_s * 1e3);
    traced_scan_rows += rows;
    traced_fill_s += fill_s;
    // Coverage: engine and generator calls against the loop's wall time,
    // less the benchmark's own digesting.
    layer_s += pass.query_s.Sum() + fill_s;
    loop_s += (t2 - t0) - pass_oracle_s;
  }
  Tracer::Get().set_enabled(false);
  if (pass_s.size() == 0 || first_cards.empty()) return;
  result->Set("op_p50_ms", pass_s.Median() * 1e3, "ms", pass_s.size());
  result->Set("client.op_p99_ms", pass_s.Percentile(0.99) * 1e3, "ms",
              pass_s.size());
  result->Set("client.rows_per_s", static_cast<double>(scan_rows) / scan_fill_s,
              "rows/s", pass_s.size());

  // Oracle: a width-1 pass gives the same AQP cardinalities. A traced run
  // repeats it three times, traced, for the engine's parallel speedup.
  const hydra::Executor sequential(setup->schema,
                                   hydra::ExecOptions{1, 4096});
  Samples sequential_s;
  for (int rep = 0; rep < (args.trace ? 3 : 1); ++rep) {
    Tracer::Get().set_enabled(args.trace);
    const double t0 = NowSeconds();
    const PassResult pass = QueryPass(sequential, *setup, 0, result);
    if (!pass.ok) break;
    sequential_s.Add(NowSeconds() - t0);
    result->Check(pass.cards == first_cards,
                  "query pass: width-1 cardinalities differ from width " +
                      std::to_string(width));
  }
  Tracer::Get().set_enabled(false);

  // Oracle: each relation's scan digest equals the digest of the same rows
  // generated through TupleGenerator::Cursor::FillBlock at another block
  // size.
  for (size_t i = 0; i < setup->scan_relations.size(); ++i) {
    const int rel = setup->scan_relations[i];
    hydra::TupleGenerator::Cursor cursor(*setup->generator, rel);
    hydra::RowBlock block;
    StreamDigest digest;
    while (!cursor.done()) {
      const int64_t first = cursor.position();
      block.Reset(setup->summary.schema.relation(rel).num_attributes());
      cursor.FillBlock(kOracleBlockRows, &block);
      digest.AddBlock(block, first);
    }
    result->Check(i < first_digests.size() &&
                      digest.value() == first_digests[i],
                  "scan oracle: FillBlockRange and Cursor::FillBlock "
                  "streams differ for relation " +
                      std::to_string(rel));
  }

  // Self-check: the digest oracle fires on one flipped value in a copy of
  // the last scanned block.
  SelfCheckFlippedValue(scan_block, result);

  if (!args.trace || traced_pass_s.size() == 0) return;
  result->Set("hydra.tuple_generator.fill_ms", fill_ms.Median(), "ms",
              fill_ms.size());
  result->Set("trace_layer_coverage", layer_s / loop_s, "ratio",
              traced_pass_s.size());
  result->Set("trace_overhead_frac",
              traced_pass_s.Median() / pass_s.Median() - 1.0, "ratio",
              traced_pass_s.size());
  result->Set("engine.parallel_speedup",
              sequential_s.Median() / traced_pass_s.Median(), "ratio",
              sequential_s.size());
  result->Set("hydra.tuple_generator.fill_in_query_ms",
              fill_in_query_ms.Median(), "ms", fill_in_query_ms.size());
  result->Set("engine.self_ms", self_ms.Median(), "ms", self_ms.size());
  result->Set("engine.query_ms_p50", query_s.Median() * 1e3, "ms",
              query_s.size());
  result->Set("engine.query_ms_max", query_s.Max() * 1e3, "ms",
              query_s.size());
  result->Set("engine.rows_out", static_cast<double>(rows_out), "count");
  result->Set("hydra.tuple_generator.rows_per_s",
              static_cast<double>(traced_scan_rows) / traced_fill_s, "rows/s",
              fill_ms.size());
  result->Check(layer_s >= 0.9 * loop_s,
                "traced datagen: layer spans cover under 90% of the wall "
                "time");
}

}  // namespace perfbench
