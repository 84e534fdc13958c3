// regen_wlc: the vendor regenerates a summary from the complex workload
// (TPC-DS sf 4, WLc: 131 queries). Keeps the LP and formulator layers busy
// and leaves generation, engine, serve and net idle. LP time is the
// paper's headline (Fig. 13).

#include <algorithm>
#include <map>
#include <string>
#include <memory>
#include <tuple>

#include "bench.h"
#include "common/thread_pool.h"
#include "hydra/formulator.h"
#include "hydra/preprocessor.h"
#include "hydra/regenerator.h"
#include "hydra/summary_generator.h"
#include "hydra/summary_io.h"
#include "inputs.h"
#include "lp/integerize.h"
#include "lp/simplex.h"

namespace perfbench {
namespace {

struct RegenSetup {
  explicit RegenSetup(hydra::ClientSite s) : site(std::move(s)) {}
  hydra::ClientSite site;
  std::unique_ptr<hydra::HydraRegenerator> regenerator;  // over site.schema
};

uint64_t RepresentedRows(const hydra::DatabaseSummary& summary) {
  uint64_t rows = 0;
  for (const hydra::RelationSummary& rs : summary.relations) {
    rows += static_cast<uint64_t>(rs.TotalCount());
  }
  return rows;
}

// Seconds per layer of one traced pipeline run, plus its counts.
struct TracedRep {
  hydra::DatabaseSummary summary;
  hydra::DatabaseSummary read_back;
  double preprocess_s = 0, formulate_s = 0, solve_s = 0, integerize_s = 0,
         summary_s = 0, write_s = 0, read_s = 0;
  uint64_t lp_variables = 0;
  uint64_t subviews = 0;
  uint64_t iterations = 0;
  int offered = 0;   // views handed a warm-start basis
  int accepted = 0;  // ... whose basis the solver kept
  int64_t max_abs_violation = 0;
  double compute_s = 0;  // regeneration proper, without the summary file IO
  double wall_s = 0;     // including WriteSummary + ReadSummary

  double LayerSeconds() const {
    return preprocess_s + formulate_s + solve_s + integerize_s + summary_s +
           write_s + read_s;
  }
};

// The regeneration pipeline composed from its public stages, each call in
// a span. It mirrors HydraRegenerator::Regenerate, run sequentially: views
// are grouped into warm-start chains by LP signature, and each chain is
// solved in view order from its predecessor's basis. The summary is
// therefore the one Regenerate produces at any width, and the oracle in
// RunRegenWlc holds it to that.
hydra::Status TracedRegenerate(
    const hydra::Schema& schema,
    const std::vector<hydra::CardinalityConstraint>& ccs,
    const std::string& path, TracedRep* rep) {
  const hydra::HydraOptions defaults;
  const double t0 = NowSeconds();
  const hydra::Preprocessor pre(schema);
  std::vector<hydra::View> views;
  std::vector<std::vector<hydra::ViewConstraint>> mapped;
  {
    Span span("hydra.preprocessor", "Preprocessor", 0, &rep->preprocess_s);
    HYDRA_ASSIGN_OR_RETURN(views, pre.BuildViews());
    HYDRA_ASSIGN_OR_RETURN(mapped, pre.MapConstraints(views, ccs));
  }
  const int num_views = static_cast<int>(views.size());
  std::vector<hydra::ViewLp> lps(num_views);
  for (int v = 0; v < num_views; ++v) {
    Span span("hydra.formulator", "FormulateViewLp", 0, &rep->formulate_s);
    HYDRA_ASSIGN_OR_RETURN(lps[v],
                           hydra::FormulateViewLp(views[v], mapped[v]));
    rep->lp_variables += static_cast<uint64_t>(lps[v].problem.num_vars());
    rep->subviews += lps[v].subviews.size();
  }
  std::vector<std::vector<int>> chains;
  std::map<std::tuple<int, int, uint64_t>, int> chain_of;
  for (int v = 0; v < num_views; ++v) {
    const auto key = std::make_tuple(lps[v].problem.num_constraints(),
                                     lps[v].problem.num_vars(),
                                     lps[v].problem.NumNonZeros());
    const auto [it, inserted] =
        chain_of.emplace(key, static_cast<int>(chains.size()));
    if (inserted) chains.emplace_back();
    chains[it->second].push_back(v);
  }
  const hydra::SummaryGenerator generator(schema);
  std::vector<hydra::ViewSummary> summaries(num_views);
  for (const std::vector<int>& chain : chains) {
    hydra::SimplexBasis prev;
    for (int v : chain) {
      hydra::SimplexOptions simplex = defaults.simplex;
      hydra::SimplexBasis exported;
      simplex.warm_start = prev.empty() ? nullptr : &prev;
      simplex.export_basis = &exported;
      rep->offered += prev.empty() ? 0 : 1;
      hydra::StatusOr<hydra::LpSolution> solution = hydra::LpSolution{};
      {
        Span span("lp.simplex", "SolveFeasibility", 0, &rep->solve_s);
        solution = hydra::SolveFeasibility(lps[v].problem, simplex);
      }
      HYDRA_RETURN_IF_ERROR(solution.status());
      rep->accepted += solution->warm_started ? 1 : 0;
      rep->iterations += static_cast<uint64_t>(solution->iterations);
      hydra::IntegerizeResult integers;
      {
        Span span("lp.integerize", "IntegerizeSolution", 0,
                  &rep->integerize_s);
        integers = hydra::IntegerizeSolution(lps[v].problem, solution->values,
                                             defaults.integerize_passes);
      }
      rep->max_abs_violation =
          std::max(rep->max_abs_violation, integers.max_absolute_violation);
      {
        Span span("hydra.summary_generator", "BuildViewSummary", 0,
                  &rep->summary_s);
        HYDRA_ASSIGN_OR_RETURN(
            summaries[v],
            generator.BuildViewSummary(views[v], lps[v], integers.values));
      }
      prev = std::move(exported);
    }
  }
  {
    Span span("hydra.summary_generator", "BuildDatabaseSummary", 0,
              &rep->summary_s);
    HYDRA_ASSIGN_OR_RETURN(
        rep->summary,
        generator.BuildDatabaseSummary(views, std::move(summaries)));
  }
  rep->compute_s = NowSeconds() - t0;
  {
    Span span("hydra.summary_io", "WriteSummary", 0, &rep->write_s);
    HYDRA_RETURN_IF_ERROR(hydra::WriteSummary(rep->summary, path).status());
  }
  {
    Span span("hydra.summary_io", "ReadSummary", 0, &rep->read_s);
    HYDRA_ASSIGN_OR_RETURN(rep->read_back, hydra::ReadSummary(path));
  }
  rep->wall_s = NowSeconds() - t0;
  return hydra::Status::OK();
}

// Per-call view statistics of Regenerate at its default width.
struct ViewStats {
  int width = 1;
  Samples efficiency;  // sum of per-view seconds / (wall * width)
  Samples max_view_ms;
};

// Calls Regenerate until `deadline`, at least `min_reps` times. Every
// summary must serialize to `*reference_bytes`; when that is empty, the
// first call sets it and its summary is kept in `*kept`.
Samples RegenerateUntil(const hydra::HydraRegenerator& regenerator,
                        const RegenSetup& setup, double deadline,
                        int min_reps, const std::string& path,
                        std::string* reference_bytes,
                        hydra::DatabaseSummary* kept, ViewStats* views,
                        Result* result) {
  Samples seconds;
  while (static_cast<int>(seconds.size()) < min_reps ||
         NowSeconds() < deadline) {
    const double t0 = NowSeconds();
    auto regen = regenerator.Regenerate(setup.site.ccs);
    const double t = NowSeconds() - t0;
    if (!regen.ok()) {
      result->Check(false, "Regenerate: " + regen.status().ToString());
      break;
    }
    seconds.Add(t);
    const std::string bytes = SummaryFileBytes(regen->summary, path);
    if (reference_bytes->empty()) {
      *reference_bytes = bytes;
      *kept = std::move(regen->summary);
    }
    result->Check(bytes == *reference_bytes,
                  "Regenerate: summary bytes differ from the reference");
    if (views != nullptr) {
      double busy = 0, slowest = 0;
      for (const hydra::ViewReport& v : regen->views) {
        const double s = v.formulate_seconds + v.solve_seconds;
        busy += s;
        slowest = std::max(slowest, s);
      }
      views->efficiency.Add(busy / (t * views->width));
      views->max_view_ms.Add(slowest * 1e3);
    }
  }
  return seconds;
}

}  // namespace

void RunRegenWlc(const Args& args, Result* result) {
  Samples site_s;
  auto setup = RepeatedSetup<RegenSetup>(5, result, [&] {
    const double t0 = NowSeconds();
    auto s = std::make_unique<RegenSetup>(BuildTpcdsSite(
        4.0, hydra::TpcdsWorkloadKind::kComplex, 131, args.seed));
    site_s.Add(NowSeconds() - t0);
    s->regenerator = std::make_unique<hydra::HydraRegenerator>(s->site.schema);
    return s;
  });
  result->Set("workload.client_site_ms", site_s.Median() * 1e3, "ms",
              site_s.size());
  const std::string path = args.out_dir + "/regen_wlc.summary";
  const double start = NowSeconds();

  // Headline: Regenerate at the default width, untraced. A traced run
  // spends 30% of its time here, 20% running the stage-by-stage pipeline
  // untraced (the baseline of the tracing overhead), and the rest running
  // it traced.
  ViewStats views;
  views.width = std::min(setup->site.schema.num_relations(),
                         hydra::ThreadPool::DefaultThreads());
  std::string summary_bytes;
  hydra::DatabaseSummary summary;
  const Samples regen_s = RegenerateUntil(
      *setup->regenerator, *setup, start + (args.trace ? 0.3 : 1.0) *
                                               args.seconds,
      3, path, &summary_bytes, &summary, &views, result);
  if (summary_bytes.empty()) return;
  result->Set("op_p50_ms", regen_s.Median() * 1e3, "ms", regen_s.size());
  result->Set("client.op_p99_ms", regen_s.Percentile(0.99) * 1e3, "ms",
              regen_s.size());
  result->Set("client.rows_per_s",
              static_cast<double>(RepresentedRows(summary)) /
                  regen_s.Median(),
              "rows/s", regen_s.size());
  result->Set("hydra.summary_io.summary_bytes",
              static_cast<double>(summary_bytes.size()), "B");
  result->Set("common.thread_pool.view_parallel_efficiency",
              views.efficiency.Median(), "ratio", views.efficiency.size());
  result->Set("regen.max_view_ms", views.max_view_ms.Median(), "ms",
              views.max_view_ms.size());

  // Oracle: the summary equals the sequential (num_threads = 1) one.
  hydra::HydraOptions sequential_options;
  sequential_options.num_threads = 1;
  const hydra::HydraRegenerator sequential(setup->site.schema,
                                           sequential_options);
  hydra::DatabaseSummary unused;
  RegenerateUntil(sequential, *setup, 0, 1, path, &summary_bytes, &unused,
                  nullptr, result);

  // Oracle: vendor-side volumetric similarity over dynamically generated
  // tuples covers every CC, and every error is one-sided positive.
  {
    const hydra::TupleGenerator generator(summary);
    const double t0 = NowSeconds();
    auto report = hydra::MeasureVolumetricSimilarity(
        setup->site, generator, hydra::ExecOptions{1, 4096});
    const double t = NowSeconds() - t0;
    result->Check(report.ok() &&
                      report->entries.size() == setup->site.ccs.size() &&
                      report->CountNegative() == 0,
                  "similarity: a CC is missing or has negative error");
    if (report.ok()) {
      result->Set("workload.similarity.cc_max_rel_err", report->MaxAbsError(),
                  "ratio", report->entries.size());
      result->Set("workload.similarity_ms", t * 1e3, "ms");
    }
  }
  if (!args.trace) return;

  // The pipeline stage by stage, first untraced, then with each public
  // call in a span.
  Samples untraced_s;
  while (untraced_s.size() < 3 || NowSeconds() < start + 0.5 * args.seconds) {
    TracedRep rep;
    const hydra::Status status =
        TracedRegenerate(setup->site.schema, setup->site.ccs, path, &rep);
    if (!status.ok()) {
      result->Check(false, "stage pipeline: " + status.ToString());
      return;
    }
    untraced_s.Add(rep.compute_s);
  }
  Tracer::Get().set_enabled(true);
  const double deadline = start + args.seconds;
  Samples compute_s, refactorize_ms;
  Samples preprocess_ms, formulate_ms, solve_ms, integerize_ms, summary_ms,
      write_ms, read_ms;
  TracedRep last;
  double wall_total = 0, layer_total = 0;
  while (compute_s.size() < 3 || NowSeconds() < deadline) {
    TracedRep rep;
    RegistryDelta delta;
    const hydra::Status status =
        TracedRegenerate(setup->site.schema, setup->site.ccs, path, &rep);
    delta.Finish();
    if (!status.ok()) {
      result->Check(false, "traced pipeline: " + status.ToString());
      break;
    }
    result->Check(SummaryFileBytes(rep.summary, path) == summary_bytes &&
                      SummaryFileBytes(rep.read_back, path) == summary_bytes,
                  "traced pipeline: summary bytes differ from Regenerate");
    compute_s.Add(rep.compute_s);
    refactorize_ms.Add(
        static_cast<double>(delta.Histogram("lp/refactorize_us").sum) / 1e3);
    preprocess_ms.Add(rep.preprocess_s * 1e3);
    formulate_ms.Add(rep.formulate_s * 1e3);
    solve_ms.Add(rep.solve_s * 1e3);
    integerize_ms.Add(rep.integerize_s * 1e3);
    summary_ms.Add(rep.summary_s * 1e3);
    write_ms.Add(rep.write_s * 1e3);
    read_ms.Add(rep.read_s * 1e3);
    wall_total += rep.wall_s;
    layer_total += rep.LayerSeconds();
    last = std::move(rep);
  }
  Tracer::Get().set_enabled(false);
  if (compute_s.size() == 0) return;
  const uint64_t reps = compute_s.size();
  result->Set("hydra.preprocessor.build_ms", preprocess_ms.Median(), "ms",
              reps);
  result->Set("hydra.formulator.formulate_ms", formulate_ms.Median(), "ms",
              reps);
  result->Set("hydra.formulator.lp_variables",
              static_cast<double>(last.lp_variables), "count");
  result->Set("hydra.formulator.subviews", static_cast<double>(last.subviews),
              "count");
  result->Set("lp.simplex.solve_ms", solve_ms.Median(), "ms", reps);
  result->Set("lp.simplex.iterations", static_cast<double>(last.iterations),
              "count");
  result->Set("lp.simplex.warm_accept_ratio",
              last.offered == 0 ? 0.0
                                : static_cast<double>(last.accepted) /
                                      last.offered,
              "ratio", static_cast<uint64_t>(last.offered));
  result->Set("lp.simplex.refactorize_ms", refactorize_ms.Median(), "ms",
              reps);
  result->Set("lp.integerize.integerize_ms", integerize_ms.Median(), "ms",
              reps);
  result->Set("lp.integerize.max_abs_violation",
              static_cast<double>(last.max_abs_violation), "count");
  result->Set("hydra.summary_generator.build_ms", summary_ms.Median(), "ms",
              reps);
  result->Set("hydra.summary_io.write_ms", write_ms.Median(), "ms", reps);
  result->Set("hydra.summary_io.read_ms", read_ms.Median(), "ms", reps);
  result->Set("trace_layer_coverage", layer_total / wall_total, "ratio",
              reps);
  result->Set("trace_overhead_frac",
              compute_s.Median() / untraced_s.Median() - 1.0, "ratio", reps);
  result->Check(layer_total >= 0.9 * wall_total,
                "traced regen: layer spans cover under 90% of the wall time");
}

}  // namespace perfbench
