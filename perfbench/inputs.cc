#include "inputs.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "hydra/summary_io.h"

namespace perfbench {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

hydra::ClientSite BuildTpcdsSite(double scale_factor,
                                 hydra::TpcdsWorkloadKind kind,
                                 int num_queries, uint64_t seed) {
  // The canonical workload seeds of the WLc and WLs figure benches.
  const uint64_t query_seed =
      kind == hydra::TpcdsWorkloadKind::kComplex ? 424242 : 515151;
  hydra::Schema schema = hydra::TpcdsSchema(scale_factor);
  std::vector<hydra::Query> queries =
      hydra::TpcdsWorkload(schema, kind, num_queries, query_seed);
  Rng rng(SubSeed(seed, 1));
  rng.Shuffle(&queries);
  hydra::DataGenOptions data;
  data.seed = SubSeed(seed, 2);
  // The client collects its AQPs sequentially: the site is the same at any
  // width, and a sequential client keeps set-up time clear of the thread
  // handoffs that host CPU steal slows down.
  auto site = hydra::BuildClientSite(schema, data, std::move(queries),
                                     hydra::ExecOptions{1, 4096});
  if (!site.ok()) {
    throw std::runtime_error("BuildClientSite: " + site.status().ToString());
  }
  return std::move(*site);
}

hydra::DatabaseSummary FragmentedSummary(int64_t rows, int attrs,
                                         uint64_t seed) {
  hydra::Schema schema;
  hydra::Relation f("F", static_cast<uint64_t>(rows));
  f.AddPrimaryKey("F_pk");
  for (int a = 0; a < attrs; ++a) {
    f.AddDataAttribute("d" + std::to_string(a), hydra::Interval(0, 1000));
  }
  schema.AddRelation(std::move(f));
  hydra::DatabaseSummary summary;
  summary.schema = std::move(schema);
  hydra::RelationSummary rs;
  rs.relation = 0;
  for (int a = 0; a < attrs; ++a) rs.attr_indices.push_back(1 + a);
  Rng rng(SubSeed(seed, 3));
  rs.rows.resize(static_cast<size_t>(rows));
  for (hydra::SolutionRow& row : rs.rows) {
    row.count = 1;
    row.values.resize(static_cast<size_t>(attrs));
    for (hydra::Value& v : row.values) {
      v = static_cast<hydra::Value>(rng.Below(1000));
    }
  }
  rs.Finalize();
  summary.relations.push_back(std::move(rs));
  summary.extra_tuples.assign(1, 0);
  return summary;
}

std::string SummaryFileBytes(const hydra::DatabaseSummary& summary,
                             const std::string& path) {
  auto written = hydra::WriteSummary(summary, path);
  if (!written.ok()) {
    throw std::runtime_error("WriteSummary: " + written.status().ToString());
  }
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

std::vector<int> LargestRelations(const hydra::DatabaseSummary& summary,
                                  int count) {
  std::vector<int> order;
  for (int r = 0; r < static_cast<int>(summary.relations.size()); ++r) {
    order.push_back(r);
  }
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return summary.relations[a].TotalCount() >
           summary.relations[b].TotalCount();
  });
  if (static_cast<int>(order.size()) > count) order.resize(count);
  return order;
}

}  // namespace perfbench
