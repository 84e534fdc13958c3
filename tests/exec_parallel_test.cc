// Parallel-vs-sequential identity of the morsel-driven execution engine:
// AQP cardinalities, similarity reports, and root row order must be
// byte-identical at any {num_threads, morsel_rows} setting, over both
// materialized (TableScanOp/SourceScanOp-on-Database) and dynamically
// generated (GeneratorScanOp/SourceScanOp-on-TupleGenerator) leaves.
// Also covers the morsel edge cases: empty relation, relation smaller than
// one morsel, and morsel boundaries falling mid-join-probe.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "engine/operators.h"
#include "hydra/regenerator.h"
#include "hydra/tuple_generator.h"
#include "workload/toy.h"
#include "workload/tpcds.h"
#include "workload/workload_runner.h"

namespace hydra {
namespace {

// Flattens an operator's whole output into (num_columns, row-major values):
// order-sensitive, so equality means identical root row order.
std::pair<int, std::vector<Value>> Drain(Operator* op) {
  op->Open();
  std::vector<Value> values;
  RowBlock block;
  while (op->NextBatch(&block)) {
    for (int64_t r = 0; r < block.num_rows(); ++r) {
      const size_t base = values.size();
      values.resize(base + block.num_columns());
      block.CopyRowTo(r, values.data() + base);
    }
  }
  return {op->num_columns(), std::move(values)};
}

std::vector<std::pair<std::string, uint64_t>> AqpSignature(
    const AnnotatedQueryPlan& aqp) {
  std::vector<std::pair<std::string, uint64_t>> sig;
  for (const AqpStep& step : aqp.steps) {
    sig.emplace_back(step.label, step.cardinality);
  }
  return sig;
}

TEST(ParallelExecutorTest, TpcdsSiteIdenticalAcrossThreadCounts) {
  Schema schema = TpcdsSchema(0.2);
  const auto make_site = [&](int threads) {
    auto queries = TpcdsWorkload(schema, TpcdsWorkloadKind::kSimple, 10, 9);
    // An odd morsel size forces boundaries mid-relation.
    auto site = BuildClientSite(schema, DataGenOptions{.seed = 3},
                                std::move(queries),
                                ExecOptions{threads, 1000});
    EXPECT_TRUE(site.ok()) << site.status().ToString();
    return std::move(*site);
  };
  const ClientSite base = make_site(1);
  for (int threads : {2, 8}) {
    const ClientSite site = make_site(threads);
    ASSERT_EQ(site.ccs.size(), base.ccs.size()) << threads << " threads";
    for (size_t i = 0; i < base.ccs.size(); ++i) {
      EXPECT_EQ(site.ccs[i].label, base.ccs[i].label);
      EXPECT_EQ(site.ccs[i].cardinality, base.ccs[i].cardinality)
          << base.ccs[i].label << " at " << threads << " threads";
    }
    ASSERT_EQ(site.aqps.size(), base.aqps.size());
    for (size_t q = 0; q < base.aqps.size(); ++q) {
      EXPECT_EQ(AqpSignature(site.aqps[q]), AqpSignature(base.aqps[q]));
    }
  }
}

TEST(ParallelExecutorTest, GeneratorSourceIdenticalAcrossThreadCounts) {
  ToyEnvironment env = MakeToyEnvironment();
  HydraRegenerator hydra(env.schema);
  auto result = hydra.Regenerate(env.ccs);
  ASSERT_TRUE(result.ok());
  TupleGenerator gen(result->summary);

  Executor base(env.schema, ExecOptions{1, 4096});
  auto base_aqp = base.Execute(env.query, gen);
  ASSERT_TRUE(base_aqp.ok());
  for (int threads : {2, 8}) {
    Executor ex(env.schema, ExecOptions{threads, 777});
    auto aqp = ex.Execute(env.query, gen);
    ASSERT_TRUE(aqp.ok());
    EXPECT_EQ(AqpSignature(*aqp), AqpSignature(*base_aqp))
        << threads << " threads";
  }
}

TEST(ParallelExecutorTest, SimilarityReportIdenticalAcrossThreadCounts) {
  ToyEnvironment env = MakeToyEnvironment();
  auto site = BuildClientSite(env.schema, DataGenOptions{.seed = 6},
                              {env.query});
  ASSERT_TRUE(site.ok());
  HydraRegenerator hydra(site->schema);
  auto result = hydra.Regenerate(site->ccs);
  ASSERT_TRUE(result.ok());
  TupleGenerator vendor(result->summary);

  auto base = MeasureVolumetricSimilarity(*site, vendor, ExecOptions{1});
  ASSERT_TRUE(base.ok());
  for (int threads : {2, 8}) {
    auto report =
        MeasureVolumetricSimilarity(*site, vendor, ExecOptions{threads, 500});
    ASSERT_TRUE(report.ok());
    ASSERT_EQ(report->entries.size(), base->entries.size());
    for (size_t i = 0; i < base->entries.size(); ++i) {
      EXPECT_EQ(report->entries[i].label, base->entries[i].label);
      EXPECT_EQ(report->entries[i].client_cardinality,
                base->entries[i].client_cardinality);
      EXPECT_EQ(report->entries[i].vendor_cardinality,
                base->entries[i].vendor_cardinality)
          << base->entries[i].label << " at " << threads << " threads";
      EXPECT_DOUBLE_EQ(report->entries[i].signed_relative_error,
                       base->entries[i].signed_relative_error);
    }
  }
}

TEST(ParallelOperatorsTest, JoinPipelineRowOrderIdentical) {
  // σ(S) ⋈ R over materialized toy data: the root row order — not just the
  // count — must match the sequential plan at any thread/morsel setting.
  ToyEnvironment env = MakeToyEnvironment();
  HydraRegenerator hydra(env.schema);
  auto result = hydra.Regenerate(env.ccs);
  ASSERT_TRUE(result.ok());
  auto db = MaterializeDatabase(result->summary);
  ASSERT_TRUE(db.ok());
  const Schema& schema = env.schema;
  const int s = schema.RelationIndex("S");
  const int r = schema.RelationIndex("R");
  const int a = schema.relation(s).AttrIndex("A");
  const int sfk = schema.relation(r).AttrIndex("S_fk");
  const int spk = schema.relation(s).PrimaryKeyIndex();

  const auto run = [&](ExecContext* ctx) {
    auto s_scan = std::make_unique<TableScanOp>(&db->table(s), ctx);
    auto s_filtered = std::make_unique<FilterOp>(
        std::move(s_scan), PredicateOf(AtomRange(a, 20, 60)));
    HashJoinOp join(std::make_unique<TableScanOp>(&db->table(r), ctx), sfk,
                    std::move(s_filtered), spk, ctx);
    return Drain(&join);
  };

  const auto sequential = run(nullptr);
  EXPECT_EQ(sequential.second.size() / sequential.first, 50000u);
  for (int threads : {2, 8}) {
    ExecContext ctx(ExecOptions{threads, 333});
    EXPECT_EQ(run(&ctx), sequential) << threads << " threads";
  }
}

TEST(ParallelOperatorsTest, GeneratorLeafRowOrderIdentical) {
  ToyEnvironment env = MakeToyEnvironment();
  HydraRegenerator hydra(env.schema);
  auto result = hydra.Regenerate(env.ccs);
  ASSERT_TRUE(result.ok());
  TupleGenerator gen(result->summary);
  const int s = env.schema.RelationIndex("S");
  const int cols = env.schema.relation(s).num_attributes();

  GeneratorScanOp sequential(&gen, s, cols);
  const auto base = Drain(&sequential);
  for (int threads : {2, 8}) {
    ExecContext ctx(ExecOptions{threads, 13});
    GeneratorScanOp scan(&gen, s, cols, &ctx);
    EXPECT_EQ(Drain(&scan), base) << threads << " threads";
  }
}

TEST(ParallelOperatorsTest, AggregateIdenticalAcrossThreadCounts) {
  Table t(2);
  for (int64_t i = 0; i < 10000; ++i) {
    t.AppendRow({i % 37, i});
  }
  const auto run = [&](ExecContext* ctx) {
    HashAggregateOp agg(
        std::make_unique<TableScanOp>(&t, ctx), {0},
        {{AggregateKind::kCount, -1},
         {AggregateKind::kSum, 1},
         {AggregateKind::kMin, 1},
         {AggregateKind::kMax, 1}},
        ctx);
    return Drain(&agg);
  };
  const auto sequential = run(nullptr);
  EXPECT_EQ(sequential.second.size() / sequential.first, 37u);
  for (int threads : {2, 8}) {
    ExecContext ctx(ExecOptions{threads, 7});
    EXPECT_EQ(run(&ctx), sequential) << threads << " threads";
  }
}

TEST(MorselEdgeCaseTest, EmptyRelation) {
  Table t(3);
  ExecContext ctx(ExecOptions{8, 16});
  TableScanOp scan(&t, &ctx);
  scan.Open();
  RowBlock block;
  EXPECT_FALSE(scan.NextBatch(&block));
  EXPECT_EQ(CountRows(&scan), 0u);
}

TEST(MorselEdgeCaseTest, RelationSmallerThanOneMorsel) {
  Table t(1);
  for (int64_t i = 0; i < 5; ++i) t.AppendRow({i});
  ExecContext ctx(ExecOptions{8, 1 << 20});
  TableScanOp scan(&t, &ctx);
  const auto got = Drain(&scan);
  EXPECT_EQ(got.second, (std::vector<Value>{0, 1, 2, 3, 4}));
}

TEST(MorselEdgeCaseTest, SingleRowMorsels) {
  Table t(1);
  for (int64_t i = 0; i < 17; ++i) t.AppendRow({i});
  ExecContext ctx(ExecOptions{4, 1});
  TableScanOp scan(&t, &ctx);
  const auto got = Drain(&scan);
  ASSERT_EQ(got.second.size(), 17u);
  for (int64_t i = 0; i < 17; ++i) EXPECT_EQ(got.second[i], i);
}

TEST(MorselEdgeCaseTest, MorselBoundaryMidJoinProbe) {
  // Duplicate probe keys straddle every 2-row morsel boundary; duplicate
  // build keys multiply matches. The joined stream must equal the
  // sequential one row for row.
  Table probe(2);
  for (int64_t i = 0; i < 101; ++i) probe.AppendRow({i / 3, i});
  Table build(2);
  for (int64_t i = 0; i < 40; ++i) build.AppendRow({i % 20, 1000 + i});

  const auto run = [&](ExecContext* ctx) {
    HashJoinOp join(std::make_unique<TableScanOp>(&probe, ctx), 0,
                    std::make_unique<TableScanOp>(&build, ctx), 0, ctx);
    return Drain(&join);
  };
  const auto sequential = run(nullptr);
  ASSERT_GT(sequential.second.size(), 0u);
  for (int threads : {2, 8}) {
    ExecContext ctx(ExecOptions{threads, 2});
    EXPECT_EQ(run(&ctx), sequential) << threads << " threads";
  }
}

TEST(SelectionVectorTest, FilterEdgeCases) {
  // The selection-vector path through FilterOp: empty input, all-pass,
  // all-fail, and batches of exactly one row (morsel_rows = 1) must all
  // produce the sequential stream.
  Table empty(2);
  Table t(2);
  for (int64_t i = 0; i < 23; ++i) t.AppendRow({i, 100 + i});
  const auto filter_drain = [](const Table* table, DnfPredicate pred,
                               ExecContext* ctx) {
    FilterOp op(std::make_unique<TableScanOp>(table, ctx), std::move(pred));
    return Drain(&op).second;
  };
  std::vector<Value> all_rows;
  for (int64_t i = 0; i < 23; ++i) {
    all_rows.push_back(i);
    all_rows.push_back(100 + i);
  }
  std::vector<Value> some_rows;
  for (int64_t i = 5; i < 9; ++i) {
    some_rows.push_back(i);
    some_rows.push_back(100 + i);
  }
  ExecContext single_row_morsels(ExecOptions{4, 1});
  for (ExecContext* ctx :
       std::initializer_list<ExecContext*>{nullptr, &single_row_morsels}) {
    EXPECT_TRUE(
        filter_drain(&empty, PredicateOf(AtomRange(0, 0, 100)), ctx).empty());
    // All-pass: every row survives, in order.
    EXPECT_EQ(filter_drain(&t, PredicateOf(AtomRange(0, 0, 100)), ctx),
              all_rows);
    // All-fail: nothing survives.
    EXPECT_TRUE(
        filter_drain(&t, PredicateOf(AtomRange(0, 500, 600)), ctx).empty());
    // Partial: a contiguous band in the middle.
    EXPECT_EQ(filter_drain(&t, PredicateOf(AtomRange(0, 5, 9)), ctx),
              some_rows);
  }
}

TEST(CrossLayoutIdentityTest, FilterJoinAcrossThreadsAndMorsels) {
  // The filter+join pipeline's row stream is byte-identical to the
  // sequential run at every {num_threads, morsel_rows} combination.
  ToyEnvironment env = MakeToyEnvironment();
  HydraRegenerator hydra(env.schema);
  auto result = hydra.Regenerate(env.ccs);
  ASSERT_TRUE(result.ok());
  auto db = MaterializeDatabase(result->summary);
  ASSERT_TRUE(db.ok());
  const Schema& schema = env.schema;
  const int s = schema.RelationIndex("S");
  const int r = schema.RelationIndex("R");
  const int a = schema.relation(s).AttrIndex("A");
  const int sfk = schema.relation(r).AttrIndex("S_fk");
  const int spk = schema.relation(s).PrimaryKeyIndex();

  const auto run = [&](ExecContext* ctx) {
    auto s_scan = std::make_unique<TableScanOp>(&db->table(s), ctx);
    auto s_filtered = std::make_unique<FilterOp>(
        std::move(s_scan), PredicateOf(AtomRange(a, 20, 60)));
    HashJoinOp join(std::make_unique<TableScanOp>(&db->table(r), ctx), sfk,
                    std::move(s_filtered), spk, ctx);
    return Drain(&join);
  };

  const auto baseline = run(nullptr);
  ASSERT_GT(baseline.second.size(), 0u);
  for (const int threads : {1, 2, 8}) {
    for (const int64_t morsel : {311, 4096}) {
      ExecContext ctx(ExecOptions{threads, morsel});
      EXPECT_EQ(run(&ctx), baseline)
          << threads << " threads x morsel " << morsel;
    }
  }
}

TEST(MorselEdgeCaseTest, LimitStopsEarlyOverParallelLeaf) {
  // Early termination leaves in-flight morsels behind; the leaf must drain
  // them cleanly on destruction and still emit the correct prefix.
  Table t(1);
  for (int64_t i = 0; i < 1000; ++i) t.AppendRow({i});
  ExecContext ctx(ExecOptions{8, 3});
  LimitOp limit(std::make_unique<TableScanOp>(&t, &ctx), 10);
  const auto got = Drain(&limit);
  ASSERT_EQ(got.second.size(), 10u);
  for (int64_t i = 0; i < 10; ++i) EXPECT_EQ(got.second[i], i);
}

}  // namespace
}  // namespace hydra
