// The two serving workloads.
//
// serve_mixed: tenants share an in-process RegenServer. A closed loop of
// nproc client threads, each drawing a seeded mix of filtered, projected
// cursor scans over disjoint rank ranges, 500-key Lookup bursts and
// ExecuteQuery pipelines, over two summaries: WLs TPC-DS and a finely
// fragmented single relation. cache_bytes holds the larger summary but not
// both, so the summary store evicts and reloads. Scan groups form but share
// nothing, and net is idle. Chosen because dynamic regeneration serves many
// consumers at once, with a working set larger than the program's cache.
//
// serve_shared_wire: nproc NetClient connections on localhost to a
// NetServer in the same process, all repeatedly streaming the same full
// rank range of the fragmented relation, each with its own projection and
// filter; the cache holds everything. Scan-group multicast and the wire do
// most of the work. Chosen so scan-group and wire changes have a workload
// that uses them, while serve_mixed runs the same scan-group code with no
// sharing and bypasses net.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bench.h"
#include "engine/executor.h"
#include "hydra/regenerator.h"
#include "hydra/summary_io.h"
#include "hydra/tuple_generator.h"
#include "inputs.h"
#include "net/client.h"
#include "net/net_server.h"
#include "serve/server.h"

namespace perfbench {
namespace {

// Fragmented summaries: serve_shared_wire streams kWireFragRows tuples;
// serve_mixed reloads its smaller one after every eviction.
constexpr int kWireFragRows = 65536;
constexpr int kMixedFragRows = 8192;
constexpr int kFragAttrs = 20;
constexpr int kLookupsPerBurst = 500;

void CheckOk(const hydra::Status& status, const char* what) {
  if (!status.ok()) {
    throw std::runtime_error(std::string(what) + ": " + status.ToString());
  }
}

hydra::OpenSessionRequest SessionOn(const std::string& summary_id) {
  hydra::OpenSessionRequest request;
  request.summary_id = summary_id;
  return request;
}

// A summary as the benchmark knows it: its file (what the server loads)
// and the benchmark's own in-memory copy with a generator over it, the
// independent reference path of every serving oracle. Plans point at it
// and its generator points into it, so it never moves.
struct ServedSummary {
  ServedSummary() = default;
  ServedSummary(const ServedSummary&) = delete;
  ServedSummary& operator=(const ServedSummary&) = delete;

  std::string id;
  std::string path;
  hydra::DatabaseSummary summary;
  std::unique_ptr<hydra::TupleGenerator> generator;

  void Init(std::string summary_id, std::string file,
            hydra::DatabaseSummary s) {
    id = std::move(summary_id);
    path = std::move(file);
    summary = std::move(s);
    generator = std::make_unique<hydra::TupleGenerator>(summary);
    CheckOk(hydra::WriteSummary(summary, path).status(), "WriteSummary");
  }
};

// Reference digest of a cursor's stream computed straight from the
// TupleGenerator: the spec's filter evaluated row by row and its projection
// applied, independent of the server's column kernels.
uint64_t ReferenceDigest(const hydra::TupleGenerator& generator,
                         const hydra::CursorSpec& spec, int64_t* end_rank) {
  const int64_t rows =
      static_cast<int64_t>(generator.RowCount(spec.relation));
  const int64_t end =
      spec.end_rank < 0 ? rows : std::min<int64_t>(spec.end_rank, rows);
  *end_rank = end;
  StreamDigest digest;
  hydra::Row out(spec.projection.size());
  int64_t position = 0;
  generator.ScanRange(spec.relation, spec.begin_rank, end,
                      [&](const hydra::Row& row) {
                        if (!spec.filter.Eval(row)) return;
                        if (spec.projection.empty()) {
                          digest.AddRow(row.data(),
                                        static_cast<int>(row.size()),
                                        position++);
                          return;
                        }
                        for (size_t i = 0; i < spec.projection.size(); ++i) {
                          out[i] = row[spec.projection[i]];
                        }
                        digest.AddRow(out.data(),
                                      static_cast<int>(out.size()),
                                      position++);
                      });
  return digest.value();
}

// A seeded filter (one range atom over half the domain of a data
// attribute) and a projection of `width` distinct columns.
hydra::CursorSpec RandomSpec(const hydra::Schema& schema, int relation,
                             int64_t begin, int64_t end, int width,
                             Rng* rng) {
  const hydra::Relation& rel = schema.relation(relation);
  hydra::CursorSpec spec;
  spec.relation = relation;
  spec.begin_rank = begin;
  spec.end_rank = end;
  const std::vector<int> data = rel.DataAttrIndices();
  if (!data.empty()) {
    const int col = data[rng->Below(data.size())];
    const hydra::Interval domain = rel.attribute(col).domain;
    const int64_t span = std::max<int64_t>(1, domain.hi - domain.lo);
    const int64_t lo =
        domain.lo + static_cast<int64_t>(rng->Below(span / 2 + 1));
    spec.filter =
        hydra::PredicateOf(hydra::AtomRange(col, lo, lo + span / 2));
  }
  std::vector<int> cols(rel.num_attributes());
  for (int i = 0; i < rel.num_attributes(); ++i) cols[i] = i;
  rng->Shuffle(&cols);
  cols.resize(std::min<size_t>(cols.size(), width));
  spec.projection = cols;
  return spec;
}

// Outcome of one streamed cursor.
struct StreamOutcome {
  bool ok = false;
  uint64_t digest = 0;
  int64_t rows = 0;  // rows that passed the filter
  int64_t final_rank = -1;
};

// Ranks a cursor scanned: the rows it generated, before its filter. The
// throughput metrics count these, so they do not depend on how selective
// a seed's filters happen to be.
int64_t RanksScanned(const StreamOutcome& outcome,
                     const hydra::CursorSpec& spec) {
  return outcome.ok ? outcome.final_rank - spec.begin_rank : 0;
}

// Opens a session and a cursor over `spec`, streams it to the end, and
// closes the session. `Api` is RegenServer or NetClient: the same typed
// surface in process and over the wire. Each NextBatch is timed into
// `batch_s`; `sample` keeps a copy of one non-empty batch.
template <typename Api>
StreamOutcome StreamCursor(Api& api, const std::string& summary_id,
                           const hydra::CursorSpec& spec, const char* layer,
                           uint64_t request, Samples* batch_s,
                           hydra::RowBlock* sample) {
  StreamOutcome outcome;
  hydra::StatusOr<hydra::SessionHandle> session = hydra::SessionHandle{};
  {
    Span span(layer, "OpenSession", request);
    session = api.OpenSession(SessionOn(summary_id));
  }
  if (!session.ok()) return outcome;
  hydra::StatusOr<hydra::CursorHandle> cursor = hydra::CursorHandle{};
  {
    Span span(layer, "OpenCursor", request);
    cursor = api.OpenCursor(*session, spec);
  }
  StreamDigest digest;
  hydra::RowBlock block;
  bool ok = cursor.ok();
  while (ok) {
    const double t0 = NowSeconds();
    hydra::StatusOr<hydra::BatchResult> batch = hydra::BatchResult{};
    {
      Span span(layer, "NextBatch", request);
      batch = api.NextBatch(*session, *cursor, std::move(block));
    }
    batch_s->Add(NowSeconds() - t0);
    if (!batch.ok()) {
      ok = false;
      break;
    }
    outcome.final_rank = batch->rank;
    if (batch->done) break;
    digest.AddBlock(batch->rows, digest.rows());
    if (sample != nullptr && sample->num_rows() == 0) {
      sample->Reset(batch->rows.num_columns());
      sample->AppendBlock(batch->rows);
    }
    block = std::move(batch->rows);
  }
  {
    Span span(layer, "CloseSession", request);
    ok = api.CloseSession(*session).ok() && ok;
  }
  outcome.ok = ok;
  outcome.digest = digest.value();
  outcome.rows = digest.rows();
  return outcome;
}

// Checks a streamed outcome against its reference and counts it.
void CheckStream(const StreamOutcome& got, uint64_t want_digest,
                 int64_t want_end, const std::string& what, Result* result) {
  result->Check(got.ok && got.digest == want_digest &&
                    got.final_rank == want_end,
                what + ": stream differs from the TupleGenerator reference");
}

// Self-check of the stream oracle on one altered summary byte: a copy of
// the fragmented summary file with the low byte of row 0's first value
// flipped, served under its own id, must stream something other than the
// reference (or fail).
template <typename Api>
void SelfCheckAlteredSummary(Api& api, const ServedSummary& frag,
                             const std::string& altered_id,
                             Result* result) {
  hydra::CursorSpec spec;
  spec.relation = 0;
  spec.end_rank = 16;
  int64_t end = 0;
  const uint64_t want = ReferenceDigest(*frag.generator, spec, &end);
  Samples ignored;
  const StreamOutcome got =
      StreamCursor(api, altered_id, spec, "self-check", 0, &ignored, nullptr);
  result->Check(!got.ok || got.digest != want,
                "self-check: stream oracle missed an altered summary byte");
}

std::string WriteAlteredCopy(const ServedSummary& frag) {
  const size_t rows = frag.summary.relations[0].rows.size();
  std::ifstream in(frag.path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  // File tail: rows x (count, values), then one extra_tuples word. The
  // altered byte is the low byte of row 0's first value.
  const size_t tail = rows * 8 * (1 + kFragAttrs) + 8;
  if (bytes.size() < tail) throw std::runtime_error("short summary file");
  bytes[bytes.size() - tail + 8] ^= 1;
  const std::string path = frag.path + ".altered";
  std::ofstream out(path, std::ios::binary);
  out << bytes;
  return path;
}

// Counter and histogram readings over one measured phase.
struct ServePhase {
  hydra::ServeStats before;
  hydra::ServeStats after;
  hydra::ScanGroup::Counters groups_before;
  hydra::ScanGroup::Counters groups_after;
  hydra::NetStats net_before;
  hydra::NetStats net_after;
  std::unique_ptr<RegistryDelta> registry;
  uint64_t peak_fanout = 0;  // sampled on serve_shared_wire only

  void Begin(const hydra::RegenServer& server, const hydra::NetServer* net) {
    registry = std::make_unique<RegistryDelta>();
    before = server.stats();
    groups_before = server.scan_group_totals();
    if (net != nullptr) net_before = net->stats();
  }
  void End(const hydra::RegenServer& server, const hydra::NetServer* net) {
    registry->Finish();
    after = server.stats();
    groups_after = server.scan_group_totals();
    if (net != nullptr) net_after = net->stats();
  }
  double HistUs(const char* name, double q) const {
    return static_cast<double>(registry->Histogram(name).Percentile(q));
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

void SleepUntil(double until) {
  const double left = until - NowSeconds();
  if (left > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(left));
  }
}

// Waits until `until`, sampling the live scan groups' fan-out.
void SampleFanoutUntil(const hydra::RegenServer& server, double until,
                       uint64_t* peak) {
  while (NowSeconds() < until) {
    for (const hydra::ScanGroupInfo& g : server.scan_group_infos()) {
      *peak = std::max(*peak, g.fanout);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

void SetCommonServeMetrics(const ServePhase& phase, Result* result) {
  result->Set("serve.server.next_batch_us_p50",
              phase.HistUs("serve/next_batch_us", 0.5), "us");
  result->Set("serve.server.next_batch_us_p99",
              phase.HistUs("serve/next_batch_us", 0.99), "us");
  result->Set("serve.server.open_session_us_p50",
              phase.HistUs("serve/open_session_us", 0.5), "us");
  result->Set("serve.scheduler.admission_wait_us_p50",
              phase.HistUs("serve/admission_wait_us", 0.5), "us");
  result->Set("serve.scheduler.admission_wait_us_p99",
              phase.HistUs("serve/admission_wait_us", 0.99), "us");
  const double fills = static_cast<double>(phase.after.shared_chunk_fills -
                                           phase.before.shared_chunk_fills);
  const double hits = static_cast<double>(phase.after.shared_chunk_hits -
                                          phase.before.shared_chunk_hits);
  result->Set("serve.scan_group.fills", fills, "count");
  result->Set("serve.scan_group.hit_ratio", Ratio(hits, hits + fills),
              "ratio");
}

// Keeps the clients of a workload in rounds: nobody starts the next phase
// until everybody finished this one. The last thread to arrive decides
// whether the run goes on.
class RoundBarrier {
 public:
  explicit RoundBarrier(int parties) : parties_(parties) {}
  // Returns false once the run is over: the last arrival found `end`
  // passed and at least kMinRounds rounds done.
  bool Arrive(double end) {
    std::unique_lock<std::mutex> lock(mu_);
    const uint64_t generation = generation_;
    if (++waiting_ == parties_) {
      waiting_ = 0;
      ++generation_;
      go_on_ = generation_ <= kMinRounds || NowSeconds() < end;
      cv_.notify_all();
    } else {
      cv_.wait(lock, [&] { return generation_ != generation; });
    }
    return go_on_;
  }

 private:
  static constexpr uint64_t kMinRounds = 3;
  const int parties_;
  std::mutex mu_;
  std::condition_variable cv_;
  int waiting_ = 0;
  uint64_t generation_ = 0;
  bool go_on_ = true;
};

// --- serve_mixed ---------------------------------------------------------

struct MixedOp {
  enum class Kind { kScan, kLookup, kExec } kind = Kind::kScan;
  const ServedSummary* target = nullptr;
  hydra::CursorSpec spec;     // kScan
  int relation = 0;           // kLookup
  std::vector<int64_t> keys;  // kLookup
  int query = 0;              // kExec
};

struct MixedSetup {
  std::vector<hydra::Query> queries;
  ServedSummary wls;
  ServedSummary frag;
  std::string altered_path;
  std::unique_ptr<hydra::RegenServer> server;
  // One plan per client and summary, each cycled through round by round.
  std::vector<std::vector<MixedOp>> wls_plans;
  std::vector<std::vector<MixedOp>> frag_plans;
};

// What one client thread saw; checked after the threads are joined.
struct MixedLog {
  struct Scan {
    const MixedOp* op;
    StreamOutcome outcome;
  };
  struct Exec {
    int query;
    bool ok;
    std::vector<uint64_t> cards;
  };
  std::vector<Scan> scans;
  std::vector<Exec> execs;
  std::vector<bool> lookup_bursts_ok;
  Samples batch_s[2], lookup_s[2], exec_s[2];  // [untraced, traced]
  int64_t ranks[2] = {0, 0};
  hydra::RowBlock sample_batch;
  hydra::Row sample_row;
};

// Every round, each client runs kWlsOpsPerRound ops on the WLs summary,
// then, after all clients are done with those, kFragOpsPerRound ops on the
// fragmented one. The store holds only one of the two, so each switch
// evicts one and reloads the other: the working set is larger than the
// cache, with the same number of reloads per round on every seed.
constexpr int kWlsOpsPerRound = 8;
constexpr int kFragOpsPerRound = 2;

// A client's seeded plan on one summary: `scans` cursor scans over slices
// of the largest relation that no other client reads concurrently,
// `lookups` 500-key Lookup bursts and, when `with_queries`, one
// ExecuteQuery pipeline per workload query. The counts are fixed so every
// seed offers the same mix; the seed picks the specifics and the order.
std::vector<MixedOp> MixedPlan(const ServedSummary& target,
                               const std::vector<hydra::Query>& queries,
                               int client, int clients, int scans,
                               int lookups, bool with_queries, Rng* rng) {
  const std::vector<int> rels = LargestRelations(target.summary, 5);
  const int64_t rows =
      static_cast<int64_t>(target.generator->RowCount(rels[0]));
  const int64_t length = std::min<int64_t>(16384, rows / clients);
  const int64_t slices = rows / length;
  std::vector<MixedOp> plan;
  for (int i = 0; i < scans; ++i) {
    MixedOp op;
    op.target = &target;
    // Client c's i-th scan reads slice i * clients + c of at least
    // `clients` slices.
    const int64_t slice = (static_cast<int64_t>(i) * clients + client) % slices;
    op.spec = RandomSpec(target.summary.schema, rels[0], slice * length,
                         (slice + 1) * length, 3, rng);
    plan.push_back(std::move(op));
  }
  for (int i = 0; i < lookups; ++i) {
    MixedOp op;
    op.kind = MixedOp::Kind::kLookup;
    op.target = &target;
    op.relation = rels[rng->Below(rels.size())];
    const uint64_t rel_rows = target.generator->RowCount(op.relation);
    for (int k = 0; k < kLookupsPerBurst; ++k) {
      op.keys.push_back(static_cast<int64_t>(rng->Below(rel_rows)));
    }
    plan.push_back(std::move(op));
  }
  for (size_t i = 0; with_queries && i < queries.size(); ++i) {
    MixedOp op;
    op.kind = MixedOp::Kind::kExec;
    op.target = &target;
    op.query = static_cast<int>(i);
    plan.push_back(std::move(op));
  }
  rng->Shuffle(&plan);
  return plan;
}

void RunMixedOp(hydra::RegenServer& server,
                const std::vector<hydra::Query>& queries, const MixedOp& op,
                int phase, uint64_t request, MixedLog* log) {
  switch (op.kind) {
    case MixedOp::Kind::kScan: {
      const StreamOutcome outcome =
          StreamCursor(server, op.target->id, op.spec, "serve.server",
                       request, &log->batch_s[phase], &log->sample_batch);
      log->ranks[phase] += RanksScanned(outcome, op.spec);
      log->scans.push_back({&op, outcome});
      return;
    }
    case MixedOp::Kind::kLookup: {
      auto session = server.OpenSession(SessionOn(op.target->id));
      if (!session.ok()) {
        log->lookup_bursts_ok.push_back(false);
        return;
      }
      bool ok = true;
      hydra::Row want;
      Span burst("serve.server", "Lookup x500", request);
      for (const int64_t key : op.keys) {
        const double t0 = NowSeconds();
        hydra::StatusOr<hydra::Row> row = server.Lookup(*session, op.relation,
                                                        key);
        log->lookup_s[phase].Add(NowSeconds() - t0);
        op.target->generator->GetTuple(op.relation, key, &want);
        ok = ok && row.ok() && *row == want;
        if (row.ok() && log->sample_row.empty()) log->sample_row = *row;
      }
      log->lookup_bursts_ok.push_back(server.CloseSession(*session).ok() &&
                                      ok);
      return;
    }
    case MixedOp::Kind::kExec: {
      MixedLog::Exec exec{op.query, false, {}};
      auto session = server.OpenSession(SessionOn(op.target->id));
      if (session.ok()) {
        const double t0 = NowSeconds();
        hydra::StatusOr<hydra::AnnotatedQueryPlan> aqp = hydra::Status::OK();
        {
          Span span("serve.server", "ExecuteQuery", request);
          aqp = server.ExecuteQuery(*session, queries[op.query]);
        }
        log->exec_s[phase].Add(NowSeconds() - t0);
        if (aqp.ok()) {
          exec.ok = true;
          for (const hydra::AqpStep& step : aqp->steps) {
            exec.cards.push_back(step.cardinality);
          }
        }
        exec.ok = server.CloseSession(*session).ok() && exec.ok;
      }
      log->execs.push_back(std::move(exec));
      return;
    }
  }
}

}  // namespace

void RunServeMixed(const Args& args, Result* result) {
  const int clients = Nproc();
  Samples site_s;
  auto setup = RepeatedSetup<MixedSetup>(5, result, [&] {
    auto s = std::make_unique<MixedSetup>();
    const double t0 = NowSeconds();
    hydra::ClientSite site = BuildTpcdsSite(
        8.0, hydra::TpcdsWorkloadKind::kSimple, 80, args.seed);
    site_s.Add(NowSeconds() - t0);
    auto regen = hydra::HydraRegenerator(site.schema).Regenerate(site.ccs);
    CheckOk(regen.status(), "Regenerate");
    s->queries = std::move(site.queries);
    s->wls.Init("wls", args.out_dir + "/serve_mixed_wls.summary",
                std::move(regen->summary));
    s->frag.Init("frag", args.out_dir + "/serve_mixed_frag.summary",
                 FragmentedSummary(kMixedFragRows, kFragAttrs, args.seed));
    s->altered_path = WriteAlteredCopy(s->frag);
    const uint64_t a = s->wls.summary.ByteSize();
    const uint64_t b = s->frag.summary.ByteSize();
    hydra::ServeOptions options;
    options.num_threads = clients;
    // At least the larger summary, less than both: the store evicts.
    options.cache_bytes = std::max(a, b) + std::min(a, b) / 2;
    s->server = std::make_unique<hydra::RegenServer>(options);
    CheckOk(s->server->RegisterSummary(s->wls.id, s->wls.path), "Register");
    CheckOk(s->server->RegisterSummary(s->frag.id, s->frag.path),
            "Register");
    CheckOk(s->server->RegisterSummary("altered", s->altered_path),
            "Register");
    for (int c = 0; c < clients; ++c) {
      Rng rng(SubSeed(args.seed, 100 + c));
      // WLs ops in the ratio 4 scans : 2 lookup bursts : 10 queries (the
      // slowest op, yet the one whose p99 needs the most samples).
      const int queries = static_cast<int>(s->queries.size());
      s->wls_plans.push_back(MixedPlan(s->wls, s->queries, c, clients,
                                       queries * 2 / 5, queries / 5, true,
                                       &rng));
      s->frag_plans.push_back(
          MixedPlan(s->frag, s->queries, c, clients, 1, 1, false, &rng));
    }
    return s;
  });
  result->Set("workload.client_site_ms", site_s.Median() * 1e3, "ms",
              site_s.size());
  hydra::RegenServer& server = *setup->server;

  // Closed loop in rounds until the end. A traced run measures its first
  // half untraced and its second traced.
  const double start = NowSeconds();
  const double end = start + args.seconds;
  const double boundary = args.trace ? start + 0.5 * args.seconds : end;
  std::vector<MixedLog> logs(clients);
  RoundBarrier barrier(clients);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const std::vector<MixedOp>& wls = setup->wls_plans[c];
      const std::vector<MixedOp>& frag = setup->frag_plans[c];
      uint64_t request = uint64_t(c) << 32;
      for (uint64_t round = 0; barrier.Arrive(end); ++round) {
        const int p = NowSeconds() >= boundary ? 1 : 0;
        for (int k = 0; k < kWlsOpsPerRound; ++k) {
          RunMixedOp(server, setup->queries,
                     wls[(round * kWlsOpsPerRound + k) % wls.size()], p,
                     ++request, &logs[c]);
        }
        barrier.Arrive(std::numeric_limits<double>::infinity());
        for (int k = 0; k < kFragOpsPerRound; ++k) {
          RunMixedOp(server, setup->queries,
                     frag[(round * kFragOpsPerRound + k) % frag.size()], p,
                     ++request, &logs[c]);
        }
      }
    });
  }
  ServePhase phase;
  if (args.trace) {
    SleepUntil(boundary);
    phase.Begin(server, nullptr);
    Tracer::Get().set_enabled(true);
  }
  for (std::thread& t : threads) t.join();
  Tracer::Get().set_enabled(false);
  if (args.trace) phase.End(server, nullptr);
  const double wall = NowSeconds() - start;

  // Oracles, against the benchmark's own generators.
  std::map<const MixedOp*, std::pair<uint64_t, int64_t>> want_scan;
  std::map<int, std::vector<uint64_t>> want_exec;
  const hydra::Executor reference(setup->wls.summary.schema,
                                  hydra::ExecOptions{1, 4096});
  Samples batch_s[2], lookup_s[2], exec_s[2];
  int64_t ranks = 0;
  for (MixedLog& log : logs) {
    for (const MixedLog::Scan& scan : log.scans) {
      auto it = want_scan.find(scan.op);
      if (it == want_scan.end()) {
        int64_t end_rank = 0;
        const uint64_t digest = ReferenceDigest(*scan.op->target->generator,
                                                scan.op->spec, &end_rank);
        it = want_scan.emplace(scan.op, std::make_pair(digest, end_rank))
                 .first;
      }
      CheckStream(scan.outcome, it->second.first, it->second.second,
                  "serve_mixed scan", result);
    }
    for (const MixedLog::Exec& exec : log.execs) {
      auto it = want_exec.find(exec.query);
      if (it == want_exec.end()) {
        auto aqp = reference.Execute(setup->queries[exec.query],
                                     *setup->wls.generator);
        CheckOk(aqp.status(), "reference Execute");
        std::vector<uint64_t> cards;
        for (const hydra::AqpStep& step : aqp->steps) {
          cards.push_back(step.cardinality);
        }
        it = want_exec.emplace(exec.query, std::move(cards)).first;
      }
      result->Check(exec.ok && exec.cards == it->second,
                    "ExecuteQuery differs from Executor::Execute");
    }
    for (const bool ok : log.lookup_bursts_ok) {
      result->Check(ok, "Lookup differs from TupleGenerator::GetTuple");
    }
    for (int p = 0; p < 2; ++p) {
      batch_s[p].Append(log.batch_s[p]);
      lookup_s[p].Append(log.lookup_s[p]);
      exec_s[p].Append(log.exec_s[p]);
      ranks += log.ranks[p];
    }
  }

  // Self-checks: each oracle fires on a corrupted output.
  SelfCheckFlippedValue(logs[0].sample_batch, result);
  SelfCheckAlteredSummary(server, setup->frag, "altered", result);
  {
    hydra::Row copy = logs[0].sample_row;
    hydra::Row want = copy;
    if (!copy.empty()) copy[copy.size() / 2] ^= 1;
    result->Check(copy != want,
                  "self-check: lookup oracle missed a flipped value");
  }
  if (!want_exec.empty()) {
    std::vector<uint64_t> copy = want_exec.begin()->second;
    if (!copy.empty()) copy.back() += 1;
    result->Check(copy != want_exec.begin()->second,
                  "self-check: query oracle missed an altered cardinality");
  }

  const Samples& headline = batch_s[0];
  result->Set("op_p50_ms", headline.Median() * 1e3, "ms", headline.size());
  result->Set("client.op_p99_ms", headline.Percentile(0.99) * 1e3, "ms",
              headline.size());
  result->Set("client.rows_per_s", static_cast<double>(ranks) / wall,
              "rows/s", headline.size());
  if (!args.trace) return;
  const int t = 1;  // the traced half
  result->Set("client.lookup_p50_us", lookup_s[t].Median() * 1e6, "us",
              lookup_s[t].size());
  result->Set("client.lookup_p99_us", lookup_s[t].Percentile(0.99) * 1e6,
              "us", lookup_s[t].size());
  // Queries take milliseconds, so one span each costs nothing measurable;
  // both halves are pooled to give their p99 enough samples.
  exec_s[0].Append(exec_s[1]);
  result->Set("client.exec_p50_ms", exec_s[0].Median() * 1e3, "ms",
              exec_s[0].size());
  result->Set("client.exec_p99_ms", exec_s[0].Percentile(0.99) * 1e3, "ms",
              exec_s[0].size());
  result->Set("trace_overhead_frac",
              batch_s[t].Median() / batch_s[0].Median() - 1.0, "ratio",
              batch_s[t].size());
  SetCommonServeMetrics(phase, result);
  const hydra::ServeStats& a = phase.before;
  const hydra::ServeStats& b = phase.after;
  result->Set("serve.scheduler.admission_wait_us_sum",
              static_cast<double>(
                  phase.registry->Histogram("serve/admission_wait_us").sum),
              "us");
  result->Set("serve.scheduler.wait_ratio",
              Ratio(static_cast<double>(b.admission_waits - a.admission_waits),
                    static_cast<double>(b.admission_grants -
                                        a.admission_grants)),
              "ratio");
  const double hits = static_cast<double>(b.cache_hits - a.cache_hits);
  const double misses = static_cast<double>(b.cache_misses - a.cache_misses);
  result->Set("serve.summary_store.hit_ratio", Ratio(hits, hits + misses),
              "ratio");
  result->Set("serve.summary_store.evictions",
              static_cast<double>(b.evictions - a.evictions), "count");
  result->Set("serve.summary_store.load_ms",
              static_cast<double>(
                  phase.registry->Histogram("serve/summary_load_us").sum) /
                  1e3,
              "ms");
  result->Set("serve.summary_store.degraded_batches",
              static_cast<double>(b.degraded_batches - a.degraded_batches),
              "count");
  result->Set("hydra.tuple_generator.fill_ms",
              static_cast<double>(
                  phase.registry->Histogram("gen/fill_us").sum) /
                  1e3,
              "ms");
}

// --- serve_shared_wire -----------------------------------------------------

namespace {

constexpr int64_t kWireBatchRows = 8192;

struct WireSetup {
  ServedSummary frag;
  std::string altered_path;
  std::unique_ptr<hydra::RegenServer> server;
  std::unique_ptr<hydra::NetServer> net;  // over *server; stopped first
  std::vector<std::unique_ptr<hydra::NetClient>> connections;
  std::vector<hydra::CursorSpec> specs;  // one per client
  int64_t chunks = 0;                    // shared chunks per scan

  ~WireSetup() {
    connections.clear();
    if (net != nullptr) net->Stop();
  }
};

}  // namespace

void RunServeSharedWire(const Args& args, Result* result) {
  const int clients = Nproc();
  auto setup = RepeatedSetup<WireSetup>(9, result, [&] {
    auto s = std::make_unique<WireSetup>();
    s->frag.Init("frag", args.out_dir + "/serve_wire_frag.summary",
                 FragmentedSummary(kWireFragRows, kFragAttrs, args.seed));
    s->altered_path = WriteAlteredCopy(s->frag);
    hydra::ServeOptions options;
    options.num_threads = clients;
    options.cache_bytes = 4 * s->frag.summary.ByteSize();
    // Wire batches amortize a round trip; the ring holds the whole scan so
    // no member falls out of the shared window.
    options.batch_rows = kWireBatchRows;
    s->chunks = (kWireFragRows + kWireBatchRows - 1) / kWireBatchRows;
    options.shared_scan_chunks = static_cast<int>(s->chunks);
    s->server = std::make_unique<hydra::RegenServer>(options);
    CheckOk(s->server->RegisterSummary(s->frag.id, s->frag.path), "Register");
    CheckOk(s->server->RegisterSummary("altered", s->altered_path),
            "Register");
    s->net = std::make_unique<hydra::NetServer>(s->server.get());
    CheckOk(s->net->Start(), "NetServer::Start");
    Rng rng(SubSeed(args.seed, 200));
    for (int c = 0; c < clients; ++c) {
      auto client = std::make_unique<hydra::NetClient>();
      CheckOk(client->Connect("127.0.0.1", s->net->port()), "Connect");
      s->connections.push_back(std::move(client));
      s->specs.push_back(
          RandomSpec(s->frag.summary.schema, 0, 0, kWireFragRows, 3, &rng));
    }
    return s;
  });
  hydra::RegenServer& server = *setup->server;

  const double start = NowSeconds();
  const double end = start + args.seconds;
  const double boundary = args.trace ? start + 0.5 * args.seconds : end;
  RoundBarrier barrier(clients);
  std::vector<std::vector<StreamOutcome>> outcomes(clients);
  std::vector<Samples> batch_s[2];
  batch_s[0].resize(clients);
  batch_s[1].resize(clients);
  std::vector<int64_t> ranks(clients, 0);
  // Rounds (one stream per client each) run while traced.
  std::atomic<uint64_t> traced_rounds{0};
  std::vector<hydra::RowBlock> samples(clients);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (uint64_t round = 0; barrier.Arrive(end); ++round) {
        const int p = NowSeconds() >= boundary ? 1 : 0;
        const StreamOutcome outcome = StreamCursor(
            *setup->connections[c], setup->frag.id, setup->specs[c],
            "net.client", (uint64_t(c) << 32) | round, &batch_s[p][c],
            &samples[c]);
        if (p == 1 && c == 0) ++traced_rounds;
        ranks[c] += RanksScanned(outcome, setup->specs[c]);
        outcomes[c].push_back(outcome);
      }
    });
  }
  ServePhase phase;
  if (args.trace) {
    SleepUntil(boundary);
    phase.Begin(server, setup->net.get());
    Tracer::Get().set_enabled(true);
    SampleFanoutUntil(server, end, &phase.peak_fanout);
  }
  for (std::thread& t : threads) t.join();
  Tracer::Get().set_enabled(false);
  if (args.trace) phase.End(server, setup->net.get());
  const double wall = NowSeconds() - start;

  Samples all_batches[2];
  int64_t total_ranks = 0;
  for (int c = 0; c < clients; ++c) {
    int64_t end_rank = 0;
    const uint64_t want =
        ReferenceDigest(*setup->frag.generator, setup->specs[c], &end_rank);
    for (const StreamOutcome& outcome : outcomes[c]) {
      CheckStream(outcome, want, end_rank, "serve_shared_wire stream",
                  result);
    }
    all_batches[0].Append(batch_s[0][c]);
    all_batches[1].Append(batch_s[1][c]);
    total_ranks += ranks[c];
  }
  SelfCheckFlippedValue(samples[0], result);
  SelfCheckAlteredSummary(*setup->connections[0], setup->frag, "altered",
                          result);

  result->Set("op_p50_ms", all_batches[0].Median() * 1e3, "ms",
              all_batches[0].size());
  result->Set("client.op_p99_ms", all_batches[0].Percentile(0.99) * 1e3, "ms",
              all_batches[0].size());
  result->Set("client.rows_per_s", static_cast<double>(total_ranks) / wall,
              "rows/s", all_batches[0].size());
  if (!args.trace) return;
  result->Set("trace_overhead_frac",
              all_batches[1].Median() / all_batches[0].Median() - 1.0,
              "ratio", all_batches[1].size());
  SetCommonServeMetrics(phase, result);
  // Every round streams the relation's chunks once to the whole group.
  const double chunks_streamed =
      static_cast<double>(traced_rounds.load() * setup->chunks);
  const double fills = static_cast<double>(phase.after.shared_chunk_fills -
                                           phase.before.shared_chunk_fills);
  result->Set("serve.scan_group.passes_per_chunk",
              Ratio(fills, chunks_streamed), "ratio");
  result->Set("serve.scan_group.catch_up",
              static_cast<double>(phase.groups_after.catch_up -
                                  phase.groups_before.catch_up),
              "count");
  result->Set("serve.scan_group.pacing_waits",
              static_cast<double>(phase.groups_after.pacing_waits -
                                  phase.groups_before.pacing_waits),
              "count");
  result->Set("serve.scan_group.peak_fanout",
              static_cast<double>(phase.peak_fanout), "count");
  result->Set("net.dispatch_wait_us_p50",
              phase.HistUs("net/dispatch_wait_us", 0.5), "us");
  result->Set("net.dispatch_wait_us_p99",
              phase.HistUs("net/dispatch_wait_us", 0.99), "us");
  result->Set("net.handle_us_p50", phase.HistUs("net/handle_us", 0.5), "us");
  result->Set("net.handle_us_p99", phase.HistUs("net/handle_us", 0.99), "us");
  result->Set("net.write_us_p99", phase.HistUs("net/write_us", 0.99), "us");
  result->Set("net.frames_per_batch",
              Ratio(static_cast<double>(phase.net_after.frames_sent -
                                        phase.net_before.frames_sent),
                    static_cast<double>(all_batches[1].size())),
              "ratio");
}

}  // namespace perfbench
