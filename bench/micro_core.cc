// Google-benchmark micro benchmarks for the core algorithmic components:
// region partitioning, grid enumeration, phase-I simplex, summary
// construction and tuple-generation throughput.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/trace.h"
#include "engine/executor.h"
#include "engine/kernels.h"
#include "engine/row_block.h"
#include "hydra/regenerator.h"
#include "hydra/tuple_generator.h"
#include "lp/basis_lu.h"
#include "lp/simplex.h"
#include "partition/grid_partition.h"
#include "partition/region_partition.h"
#include "workload/toy.h"

namespace hydra {
namespace {

std::vector<DnfPredicate> RandomConstraints(int num_constraints, int dims,
                                            int64_t width, uint64_t seed) {
  Rng rng(seed);
  std::vector<DnfPredicate> out;
  for (int i = 0; i < num_constraints; ++i) {
    Conjunct c;
    for (int d = 0; d < dims; ++d) {
      if (rng.NextBool(0.6)) {
        const int64_t lo = rng.NextInt(0, width - 1);
        c.AddAtom(AtomRange(d, lo, rng.NextInt(lo + 1, width + 1)));
      }
    }
    if (c.atoms.empty()) c.AddAtom(AtomRange(0, 0, width / 2));
    DnfPredicate p;
    p.AddConjunct(std::move(c));
    out.push_back(std::move(p));
  }
  return out;
}

void BM_RegionPartition(benchmark::State& state) {
  const int num_constraints = static_cast<int>(state.range(0));
  const int dims = static_cast<int>(state.range(1));
  const auto constraints =
      RandomConstraints(num_constraints, dims, 1000, 7);
  const std::vector<Interval> domains(dims, Interval(0, 1000));
  int regions = 0;
  for (auto _ : state) {
    RegionPartition p = BuildRegionPartition(domains, constraints);
    regions = p.num_regions();
    benchmark::DoNotOptimize(p);
  }
  state.counters["regions"] = regions;
}
BENCHMARK(BM_RegionPartition)
    ->Args({4, 2})
    ->Args({8, 2})
    ->Args({16, 2})
    ->Args({8, 4})
    ->Args({16, 4})
    ->Args({24, 6});

void BM_GridCellCount(benchmark::State& state) {
  const int num_constraints = static_cast<int>(state.range(0));
  const int dims = static_cast<int>(state.range(1));
  const auto constraints =
      RandomConstraints(num_constraints, dims, 1000, 7);
  const std::vector<Interval> domains(dims, Interval(0, 1000));
  for (auto _ : state) {
    GridPartition g = BuildGridPartition(domains, constraints);
    benchmark::DoNotOptimize(g.NumCellsCapped(1ull << 62));
  }
}
BENCHMARK(BM_GridCellCount)->Args({16, 4})->Args({24, 6});

// Args: {vars, rows, pricing (0 = Devex, 1 = partial)}.
void BM_SimplexFeasibility(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int m = static_cast<int>(state.range(1));
  Rng rng(3);
  std::vector<int64_t> witness(n);
  for (int j = 0; j < n; ++j) witness[j] = rng.NextInt(0, 1000000);
  LpProblem p;
  p.AddVariables(n);
  for (int i = 0; i < m; ++i) {
    LpConstraint c;
    int64_t rhs = 0;
    for (int j = 0; j < n; ++j) {
      if (rng.NextBool(0.3)) {
        c.AddTerm(j, 1.0);
        rhs += witness[j];
      }
    }
    c.rhs = static_cast<double>(rhs);
    p.AddConstraint(std::move(c));
  }
  SimplexOptions options;
  options.pricing = state.range(2) == 0 ? SimplexPricing::kDevex
                                        : SimplexPricing::kPartial;
  for (auto _ : state) {
    auto sol = SolveFeasibility(p, options);
    benchmark::DoNotOptimize(sol);
  }
  state.counters["vars"] = n;
  state.counters["rows"] = m;
}
BENCHMARK(BM_SimplexFeasibility)
    ->Args({100, 20, 0})
    ->Args({1000, 50, 0})
    ->Args({10000, 100, 0})
    ->Args({10000, 100, 1})
    ->Args({100000, 50, 0})
    ->Args({100000, 50, 1});

// Re-solving an LP seeded with its own exported basis vs solving it cold
// — the warm-start chain case in src/hydra/regenerator.cc, where
// consecutive views formulate near-identical LPs.
void BM_SimplexWarmStart(benchmark::State& state) {
  const int n = 4000;
  const int m = 120;
  const bool warm = state.range(0) != 0;
  auto build = [&](uint64_t value_seed) {
    Rng pattern(17);
    Rng values(value_seed);
    std::vector<int64_t> witness(n);
    for (int j = 0; j < n; ++j) witness[j] = values.NextInt(0, 100000);
    LpProblem p;
    p.AddVariables(n);
    for (int i = 0; i < m; ++i) {
      LpConstraint c;
      int64_t rhs = 0;
      for (int j = 0; j < n; ++j) {
        if (pattern.NextBool(0.2)) {
          c.AddTerm(j, 1.0);
          rhs += witness[j];
        }
      }
      c.rhs = static_cast<double>(rhs);
      p.AddConstraint(std::move(c));
    }
    return p;
  };
  const LpProblem first = build(1);
  SimplexBasis exported;
  SimplexOptions export_options;
  export_options.export_basis = &exported;
  HYDRA_CHECK_OK(SolveFeasibility(first, export_options).status());
  SimplexOptions options;
  if (warm) options.warm_start = &exported;
  for (auto _ : state) {
    auto sol = SolveFeasibility(first, options);
    HYDRA_CHECK(sol.ok() && sol->warm_started == warm);
    benchmark::DoNotOptimize(sol);
  }
}
BENCHMARK(BM_SimplexWarmStart)->Arg(0)->Arg(1);

// A/B for the post-refactorization x_B = B^-1 b solve: the same Ftran with
// and without the right-hand side's support handed in (Gilbert-Peierls
// reachability vs a dense L/U sweep). Args: {m, b_nnz, sparse}.
void BM_BasisLuFtranB(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int b_nnz = static_cast<int>(state.range(1));
  const bool sparse = state.range(2) != 0;
  Rng rng(11);
  // Nonsingular sparse basis: unit diagonal plus a few strictly-lower
  // entries per column, the shape of a mostly-slack phase-I basis.
  std::vector<std::vector<int>> rows(m);
  std::vector<std::vector<double>> vals(m);
  for (int j = 0; j < m; ++j) {
    rows[j].push_back(j);
    vals[j].push_back(1.0);
    for (int t = 0; t < 4 && j + 1 < m; ++t) {
      rows[j].push_back(static_cast<int>(rng.NextInt(j + 1, m)));
      vals[j].push_back(static_cast<double>(rng.NextInt(1, 8)) * 0.125);
    }
  }
  std::vector<BasisLu::Column> cols(m);
  for (int j = 0; j < m; ++j) {
    cols[j] = {rows[j].data(), vals[j].data(),
               static_cast<int>(rows[j].size())};
  }
  BasisLu lu;
  HYDRA_CHECK(lu.Factorize(m, cols));
  std::vector<int> support;
  for (int t = 0; t < b_nnz; ++t) {
    support.push_back(static_cast<int>(rng.NextInt(0, m)));
  }
  std::vector<double> b(m, 0.0);
  for (int r : support) b[r] = 1.0;
  std::vector<double> v;
  for (auto _ : state) {
    v = b;
    if (sparse) {
      lu.Ftran(v, /*spike=*/nullptr, support.data(),
               static_cast<int>(support.size()));
    } else {
      lu.Ftran(v);
    }
    benchmark::DoNotOptimize(v.data());
  }
}
BENCHMARK(BM_BasisLuFtranB)
    ->Args({5000, 4, 0})
    ->Args({5000, 4, 1})
    ->Args({5000, 200, 0})
    ->Args({5000, 200, 1});

void BM_ToyRegeneration(benchmark::State& state) {
  ToyEnvironment env = MakeToyEnvironment();
  HydraRegenerator hydra(env.schema);
  for (auto _ : state) {
    auto result = hydra.Regenerate(env.ccs);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ToyRegeneration);

void BM_TupleGenerationThroughput(benchmark::State& state) {
  ToyEnvironment env = MakeToyEnvironment();
  HydraRegenerator hydra(env.schema);
  auto result = hydra.Regenerate(env.ccs);
  HYDRA_CHECK_MSG(result.ok(), result.status().ToString());
  TupleGenerator gen(result->summary);
  const int r = env.schema.RelationIndex("R");
  uint64_t tuples = 0;
  for (auto _ : state) {
    gen.Scan(r, [&](const Row& row) {
      benchmark::DoNotOptimize(row.data());
      ++tuples;
    });
  }
  state.SetItemsProcessed(tuples);
}
BENCHMARK(BM_TupleGenerationThroughput);

void BM_ExecutorAqp(benchmark::State& state) {
  // Full AQP collection over the toy query: morsel-parallel scan+filter
  // through the operator pipeline, then the join cardinality annotations.
  ToyEnvironment env = MakeToyEnvironment();
  HydraRegenerator hydra(env.schema);
  auto result = hydra.Regenerate(env.ccs);
  HYDRA_CHECK_MSG(result.ok(), result.status().ToString());
  auto db = MaterializeDatabase(result->summary);
  HYDRA_CHECK_OK(db.status());
  Executor ex(env.schema,
              ExecOptions{static_cast<int>(state.range(0)), 4096});
  for (auto _ : state) {
    auto aqp = ex.Execute(env.query, *db);
    HYDRA_CHECK_OK(aqp.status());
    benchmark::DoNotOptimize(aqp->steps);
  }
}
BENCHMARK(BM_ExecutorAqp)->Arg(1)->Arg(4);

// The robustness contract for failpoints (docs/robustness.md): a disabled
// point costs one relaxed atomic load, so production-path instrumentation
// (disk I/O, summary loads, scheduler grants) is free when no fault schedule
// is armed. Arg 0 benches the disabled fast path; arg 1 arms the point with
// a never-firing probability so the slow path's Fire() dispatch is visible
// for contrast.
void BM_FailpointCheck(benchmark::State& state) {
  static Failpoint fp("bench/failpoint_check");
  const bool armed = state.range(0) != 0;
  if (armed) {
    FailpointSpec spec;
    spec.kind = FailpointSpec::Kind::kDelay;
    spec.delay_ms = 0;
    spec.probability = 0.0;  // never triggers: measures dispatch, not faults
    fp.Arm(spec);
  }
  for (auto _ : state) {
    Status status = Status::OK();
    if (fp.armed()) status = fp.Fire();
    benchmark::DoNotOptimize(status);
  }
  fp.Disarm();
}
BENCHMARK(BM_FailpointCheck)->Arg(0)->Arg(1);

// The observability hot-path contract (docs/observability.md), same shape
// as BM_FailpointCheck: a counter bump and a histogram record are single
// relaxed RMWs, and a disabled TraceScope or gated latency timer is one
// relaxed load — cheap enough to live inside the serving hot loops.
void BM_CounterInc(benchmark::State& state) {
  static Counter counter("bench/counter_inc");
  for (auto _ : state) {
    counter.Inc();
  }
  benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_CounterInc);

void BM_HistogramRecord(benchmark::State& state) {
  static Histogram histogram("bench/histogram_record");
  uint64_t v = 12345;
  for (auto _ : state) {
    histogram.Record(v & 0xffffff);  // latency-like range, varied buckets
    v = v * 2862933555777941757ull + 3037000493ull;
  }
  benchmark::DoNotOptimize(histogram.count());
}
BENCHMARK(BM_HistogramRecord);

// Arg 0: tracing disabled (the production default the ~2ns budget holds
// to); arg 1: enabled, including the two clock reads and the ring append.
void BM_TraceScope(benchmark::State& state) {
  trace::SetEnabled(state.range(0) != 0);
  for (auto _ : state) {
    trace::TraceScope scope("bench/trace_scope");
    benchmark::DoNotOptimize(&scope);
  }
  trace::SetEnabled(false);
  trace::Clear();
}
BENCHMARK(BM_TraceScope)->Arg(0)->Arg(1);

// Arg 0: HYDRA_METRICS=off path (one relaxed load, no clock); arg 1: the
// default timed path (two clock reads + a histogram record).
void BM_ScopedLatencyTimer(benchmark::State& state) {
  static Histogram histogram("bench/latency_timer");
  metrics::SetTimingEnabled(state.range(0) != 0);
  for (auto _ : state) {
    ScopedLatencyTimer timer(&histogram);
    benchmark::DoNotOptimize(&timer);
  }
  metrics::SetTimingEnabled(true);
}
BENCHMARK(BM_ScopedLatencyTimer)->Arg(0)->Arg(1);

void BM_RandomAccessTuple(benchmark::State& state) {
  ToyEnvironment env = MakeToyEnvironment();
  HydraRegenerator hydra(env.schema);
  auto result = hydra.Regenerate(env.ccs);
  HYDRA_CHECK_MSG(result.ok(), result.status().ToString());
  TupleGenerator gen(result->summary);
  const int r = env.schema.RelationIndex("R");
  const int64_t n = static_cast<int64_t>(gen.RowCount(r));
  Rng rng(1);
  Row row;
  for (auto _ : state) {
    gen.GetTuple(r, rng.NextInt(0, n), &row);
    benchmark::DoNotOptimize(row.data());
  }
}
BENCHMARK(BM_RandomAccessTuple);

// --- Columnar kernel micro benches -----------------------------------------
// CI gates these (plus fig_query_exec) in the Release perf job.

RowBlock RandomBlock(int width, int64_t rows, uint64_t seed) {
  Rng rng(seed);
  RowBlock block(width);
  block.ResizeUninitialized(rows);
  for (int c = 0; c < width; ++c) {
    Value* col = block.MutableColumn(c);
    for (int64_t i = 0; i < rows; ++i) col[i] = rng.NextInt(-100, 100);
  }
  return block;
}

// Args: {rows}.
void BM_PredEval(benchmark::State& state) {
  const int64_t n = state.range(0);
  const RowBlock block = RandomBlock(2, n, 17);
  // Two conjuncts sharing a column, so the bench covers the per-atom mask
  // kernels and the conjunct AND / disjunct OR combines.
  const DnfPredicate dnf =
      PredicateAllOf({Atom{0, IntervalSet(Interval(0, 40))},
                      Atom{1, IntervalSet(Interval(-50, 0))}})
          .Or(PredicateOf(Atom{0, IntervalSet(Interval(60, 90))}));
  const kernels::BlockPredicate pred(dnf);
  SelVector sel;
  for (auto _ : state) {
    pred.Select(block, &sel);
    benchmark::DoNotOptimize(sel.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PredEval)->Arg(4096)->Arg(65536);

// Args: {rows}.
void BM_HashKeys(benchmark::State& state) {
  const int64_t n = state.range(0);
  const RowBlock block = RandomBlock(1, n, 23);
  std::vector<uint64_t> hashes(n);
  for (auto _ : state) {
    kernels::HashKeys(block.Column(0), n, hashes.data());
    benchmark::DoNotOptimize(hashes.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_HashKeys)->Arg(4096)->Arg(65536);

// Columnar generator fill of a whole relation (the batched replacement for
// the row-at-a-time Fill path).
void BM_GeneratorFill(benchmark::State& state) {
  ToyEnvironment env = MakeToyEnvironment();
  HydraRegenerator hydra(env.schema);
  auto result = hydra.Regenerate(env.ccs);
  HYDRA_CHECK_MSG(result.ok(), result.status().ToString());
  TupleGenerator gen(result->summary);
  const int r = env.schema.RelationIndex("R");
  const int64_t n = static_cast<int64_t>(gen.RowCount(r));
  const int width = env.schema.relation(r).num_attributes();
  RowBlock block(width);
  for (auto _ : state) {
    block.Reset(width);
    gen.FillBlockRange(r, 0, n, &block);
    benchmark::DoNotOptimize(block.Column(0));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_GeneratorFill);

// The shared-scan multicast core (src/serve/scan_group.h): one generator
// pass fills a chunk-sized block, then every co-resident member derives its
// own bytes from it with its compiled predicate over the chunk slice plus a
// Gather. shared=0 is the unicast baseline — each member runs its own
// generation pass before filtering — so the ratio is the multicast win at
// that fan-out. Args: {members, shared}.
void BM_SharedFanout(benchmark::State& state) {
  const int members = static_cast<int>(state.range(0));
  const bool shared = state.range(1) != 0;
  ToyEnvironment env = MakeToyEnvironment();
  HydraRegenerator hydra(env.schema);
  auto result = hydra.Regenerate(env.ccs);
  HYDRA_CHECK_MSG(result.ok(), result.status().ToString());
  TupleGenerator gen(result->summary);
  const int r = env.schema.RelationIndex("R");
  const int width = env.schema.relation(r).num_attributes();
  const int64_t chunk = std::min<int64_t>(
      16384, static_cast<int64_t>(gen.RowCount(r)));
  // Per-member filters over the S_fk column, each selecting a different
  // slice of the domain — the members genuinely differ.
  std::vector<kernels::BlockPredicate> filters;
  std::vector<RowBlock> outs;
  for (int c = 0; c < members; ++c) {
    const int64_t lo = (c * 53) % 500;
    filters.emplace_back(
        PredicateOf(AtomRange(/*column=*/1, lo, lo + 250)));
    outs.emplace_back(width);
  }
  RowBlock block(width);
  SelVector sel;
  for (auto _ : state) {
    if (shared) {
      block.Reset(width);
      gen.FillBlockRange(r, 0, chunk, &block);
    }
    for (int c = 0; c < members; ++c) {
      if (!shared) {
        block.Reset(width);
        gen.FillBlockRange(r, 0, chunk, &block);
      }
      filters[c].SelectRange(block, 0, chunk, &sel);
      const int64_t kept = static_cast<int64_t>(sel.size());
      outs[c].ResizeUninitialized(kept);
      for (int col = 0; col < width; ++col) {
        kernels::Gather(block.Column(col), sel.data(), kept,
                        outs[c].MutableColumn(col));
      }
      benchmark::DoNotOptimize(outs[c].Column(0));
    }
  }
  state.SetItemsProcessed(state.iterations() * members * chunk);
}
BENCHMARK(BM_SharedFanout)
    ->Args({8, 0})
    ->Args({8, 1})
    ->Args({32, 0})
    ->Args({32, 1});

// Bridges google-benchmark runs into the JsonReporter trajectory records:
// one {name, seconds-per-iteration, iterations} record per run.
class JsonRunReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonRunReporter(bench::JsonReporter* json) : json_(json) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.iterations == 0) continue;
      json_->Record(run.benchmark_name(),
                    run.real_accumulated_time / run.iterations,
                    run.iterations);
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  bench::JsonReporter* json_;
};

}  // namespace
}  // namespace hydra

int main(int argc, char** argv) {
  hydra::bench::JsonReporter json("micro_core", argc, argv);
  // Strip the --json flag(s) before gbenchmark sees (and rejects) them.
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json", 6) != 0) args.push_back(argv[i]);
  }
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
    return 1;
  }
  hydra::JsonRunReporter reporter(&json);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  return 0;
}
