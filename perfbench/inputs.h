// Seeded inputs. Everything the program receives is generated here from
// the workload seed; the program never sees the seed itself.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "hydra/summary.h"
#include "workload/tpcds.h"
#include "workload/workload_runner.h"

namespace perfbench {

// Deterministic generator for benchmark-side choices (splitmix64).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  // Uniform in [0, n).
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[Below(i)]);
    }
  }

 private:
  uint64_t state_;
};

// A TPC-DS client site: the seed picks the client data and the order in
// which the workload's queries run (and so the order of the CCs handed to
// the regenerator). The query set itself is the fixed WLc/WLs workload:
// query sets drawn from other generator seeds differ up to 30x in LP size
// (880 to 26,504 variables over seeds 1-6 of the complex generator), which
// would make the spread across benchmark seeds measure the query
// generator rather than the program.
hydra::ClientSite BuildTpcdsSite(double scale_factor,
                                 hydra::TpcdsWorkloadKind kind,
                                 int num_queries, uint64_t seed);

// A single-relation summary with one tuple per summary run (the regime of
// a heavily constrained relation): `rows` tuples over `attrs` data
// attributes with seeded values in [0, 1000).
hydra::DatabaseSummary FragmentedSummary(int64_t rows, int attrs,
                                         uint64_t seed);

// Writes `summary` to `path` and returns the file's bytes (the shipped
// artifact that the regeneration oracles compare).
std::string SummaryFileBytes(const hydra::DatabaseSummary& summary,
                             const std::string& path);

// Relations ordered by generated row count, largest first.
std::vector<int> LargestRelations(const hydra::DatabaseSummary& summary,
                                  int count);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
