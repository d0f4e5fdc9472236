// The repository benchmark: runs one named workload against the CaJaDE
// engine, checks its answers, and prints one JSON result line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <path>]
//
// Workloads (perfbench/README.md gives the reasoning and measured shares):
//   nba_serial      synthetic NBA, Qnba1-5 with the paper's questions, one
//                   direct serial Explainer, closed loop.
//   mimic_parallel  synthetic MIMIC, Qmimic1-5, one direct Explainer with 4
//                   worker threads and sharded APTs, closed loop.
//   serve_mixed     ExplainServer over synthetic MIMIC: 4 closed-loop
//                   clients, zipfian repeats served from the result cache,
//                   and rounds of small appends to `admissions`.
//
// --trace 0 measures the end-to-end metrics with no tracing. --trace 1 runs
// the same measured phase, then replays requests through the engine's
// public entry points, each once untraced and once traced, and reports
// per-layer metrics from the traced calls.
//
// Every answer is digested (perfbench/replay.h); a changed digest between
// repetitions, a replay that disagrees with Explain, a served answer that
// disagrees with a fresh Explainer, or a non-OK Status counts as a failed
// operation. A failed set-up, warm-up or append exits non-zero with no
// result line.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "perfbench/replay.h"
#include "perfbench/trace.h"
#include "src/datasets/mimic.h"
#include "src/datasets/nba.h"
#include "src/serve/explain_server.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace cajade {
namespace perfbench {
namespace {

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupReps = 3;
/// Closed-loop callers of serve_mixed and the width the pool-efficiency
/// figure is normalised to.
constexpr size_t kCallers = 4;

double SecondsSince(int64_t start_ns) { return (NowNs() - start_ns) * 1e-9; }

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t CombineDigests(const std::vector<uint64_t>& digests) {
  uint64_t h = 1469598103934665603ULL;
  for (uint64_t d : digests) h = SplitMix(h ^ d);
  return h;
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Nearest-rank quantile of `v` (copied: callers keep their order).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank > 0 ? rank - 1 : 0)];
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// Samples above the nearest-rank `q` quantile of `n` samples.
size_t SamplesBeyond(size_t n, double q) {
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return n - std::min(n, rank);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Throughput and latency per measurement window (a cycle of a direct
/// workload, a read phase of serve_mixed). The reported figures are medians
/// over windows, so a contention burst on a shared host that spoils a
/// minority of the windows does not move them.
struct WindowStats {
  std::vector<double> rps;
  std::vector<double> p50_ms;
  std::vector<double> p99_ms;
  size_t samples = 0;
  /// Fewest samples any window had beyond its p99.
  size_t min_beyond_p99 = SIZE_MAX;

  void Add(const std::vector<double>& latency_ms, double wall_s) {
    rps.push_back(Ratio(static_cast<double>(latency_ms.size()), wall_s));
    p50_ms.push_back(Median(latency_ms));
    p99_ms.push_back(Quantile(latency_ms, 0.99));
    samples += latency_ms.size();
    min_beyond_p99 =
        std::min(min_beyond_p99, SamplesBeyond(latency_ms.size(), 0.99));
  }
};

// ---- Result line -----------------------------------------------------------

/// Accumulates the run's result and prints it as one JSON object.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  /// `json` is a complete JSON value.
  void Detail(const std::string& key, const std::string& json) {
    details_.emplace_back(key, json);
  }
  /// Adds to the attempted/failed counts of phase `name`.
  void Phase(const std::string& name, size_t attempted, size_t failed) {
    auto it = std::find_if(phases_.begin(), phases_.end(),
                           [&](const PhaseCount& p) { return p.name == name; });
    if (it == phases_.end()) {
      phases_.push_back({name, attempted, failed});
    } else {
      it->attempted += attempted;
      it->failed += failed;
    }
    attempted_ += attempted;
    failed_ += failed;
  }
  void Fail(const std::string& what) {
    std::fprintf(stderr, "check failed: %s\n", what.c_str());
    ++check_failures_;
  }

  void Print(uint64_t digest) const {
    std::string out = "{\"correct\": ";
    out += failed_ == 0 && check_failures_ == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", metrics_[i].value);
      out += (i ? ", \"" : "\"") + metrics_[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    out += "}, \"digest\": \"" + Hex(digest) + "\", \"detail\": {";
    out += "\"phases\": {";
    for (size_t i = 0; i < phases_.size(); ++i) {
      out += (i ? ", \"" : "\"") + phases_[i].name + "\": {\"attempted\": " +
             std::to_string(phases_[i].attempted) +
             ", \"failed\": " + std::to_string(phases_[i].failed) + "}";
    }
    out += "}";
    for (const auto& [key, json] : details_) {
      out += ", \"" + key + "\": " + json;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
  }

 private:
  struct MetricValue {
    std::string name;
    double value;
    std::string unit;
  };
  struct PhaseCount {
    std::string name;
    size_t attempted;
    size_t failed;
  };
  std::vector<MetricValue> metrics_;
  std::vector<std::pair<std::string, std::string>> details_;
  std::vector<PhaseCount> phases_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
  size_t check_failures_ = 0;
};

std::string JsonNumbers(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.6g", i ? ", " : "", v[i]);
    out += buf;
  }
  return out + "]";
}

[[noreturn]] void Die(const std::string& what, const Status& status) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(2);
}

// ---- Datasets and requests --------------------------------------------------

struct Dataset {
  Database db;
  SchemaGraph schema_graph;
};

/// The generator's default dataset at `scale`. The run seed does not reach
/// the generators: mining work swings by up to +-20% from one dataset seed
/// to the next, more than the regressions the benchmark must resolve. It
/// drives the request streams and the appended rows instead.
Result<std::unique_ptr<Dataset>> MakeDataset(bool nba, double scale) {
  auto d = std::make_unique<Dataset>();
  if (nba) {
    NbaOptions options;
    options.scale_factor = scale;
    ASSIGN_OR_RETURN(d->db, MakeNbaDatabase(options));
    ASSIGN_OR_RETURN(d->schema_graph, MakeNbaSchemaGraph(d->db));
  } else {
    MimicOptions options;
    options.scale_factor = scale;
    ASSIGN_OR_RETURN(d->db, MakeMimicDatabase(options));
    ASSIGN_OR_RETURN(d->schema_graph, MakeMimicSchemaGraph(d->db));
  }
  return d;
}

// ---- Direct-Explainer workloads (nba_serial, mimic_parallel) ----------------

struct DirectSpec {
  bool nba;
  double scale;
  /// Passes over every request before timing; enough for resident memory
  /// to level off (worker-thread allocator arenas keep growing for several
  /// passes on mimic_parallel).
  int warmup_passes;
  int edges;
  int threads;
  size_t shard_rows;
};

struct DirectState {
  std::unique_ptr<Dataset> data;
  /// Installed through the public hook so its hits and peak bytes are
  /// observable; same bound as the Explainer's private one.
  std::unique_ptr<AptPrefixCache> prefix;
  std::unique_ptr<Explainer> explainer;
  std::vector<Request> requests;
  /// Per-request digests from the warm-up pass.
  std::vector<uint64_t> digests;
};

std::unique_ptr<DirectState> SetupDirect(const DirectSpec& spec,
                                         Report* report) {
  auto st = std::make_unique<DirectState>();
  CajadeConfig config;
  config.max_join_graph_edges = spec.edges;
  config.num_threads = spec.threads;
  config.apt_shard_rows = spec.shard_rows;
  Result<std::unique_ptr<Dataset>> data = MakeDataset(spec.nba, spec.scale);
  if (!data.ok()) Die("dataset generation", data.status());
  st->data = std::move(data).MoveValue();
  st->prefix = std::make_unique<AptPrefixCache>(config.apt_prefix_cache_bytes);
  st->explainer = std::make_unique<Explainer>(
      &st->data->db, &st->data->schema_graph, config);
  st->explainer->set_shared_prefix_cache(st->prefix.get());
  for (int q = 1; q <= 5; ++q) {
    // The paper's questions (Tables 4 and 6).
    st->requests.push_back(
        spec.nba ? Request{NbaQuerySql(q), bench::NbaQuestion(q)}
                 : Request{MimicQuerySql(q), bench::MimicQuestion(q)});
  }
  // Warm-up fills the executor's statistics and the prefix cache before
  // anything is timed.
  st->digests.resize(st->requests.size());
  for (int pass = 0; pass < spec.warmup_passes; ++pass) {
    for (size_t i = 0; i < st->requests.size(); ++i) {
      const Request& r = st->requests[i];
      Result<ExplainResult> res = st->explainer->Explain(r.sql, r.question);
      if (!res.ok()) Die("warm-up request", res.status());
      uint64_t digest = DigestExplanations(res->explanations);
      if (pass > 0 && digest != st->digests[i]) {
        Die("warm-up request",
            Status::Internal("answer changed between passes"));
      }
      st->digests[i] = digest;
    }
  }
  report->Phase("warmup", spec.warmup_passes * st->requests.size(), 0);
  return st;
}

struct DirectMeasure {
  WindowStats windows;
  /// Latencies per request index.
  std::vector<std::vector<double>> per_request_ms;
  std::vector<double> cycle_s;
  std::vector<double> rss_mb;
  double rss_start_mb = 0;
  size_t prefix_hits = 0;
  size_t prefix_builds = 0;
};

/// Closed loop, one caller: whole cycles over every request, each cycle in
/// a seeded order, until `seconds` have passed.
DirectMeasure MeasureDirect(DirectState* st, uint64_t seed, double seconds,
                            Report* report) {
  DirectMeasure m;
  m.per_request_ms.resize(st->requests.size());
  m.rss_start_mb = PeakRssMb();
  size_t hits0 = st->prefix->hits();
  size_t builds0 = st->prefix->builds();
  std::mt19937_64 rng(SplitMix(seed ^ 0x5eed0de7));
  std::vector<size_t> order(st->requests.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  size_t attempted = 0, failed = 0;
  int64_t start = NowNs();
  do {
    std::shuffle(order.begin(), order.end(), rng);
    std::vector<double> cycle_ms;
    int64_t cycle_start = NowNs();
    for (size_t i : order) {
      const Request& r = st->requests[i];
      int64_t t0 = NowNs();
      Result<ExplainResult> res = st->explainer->Explain(r.sql, r.question);
      double ms = SecondsSince(t0) * 1e3;
      ++attempted;
      if (!res.ok()) {
        std::fprintf(stderr, "request %zu failed: %s\n", i,
                     res.status().ToString().c_str());
        ++failed;
        continue;
      }
      if (DigestExplanations(res->explanations) != st->digests[i]) {
        std::fprintf(stderr, "request %zu: answer differs from warm-up\n",
                     i);
        ++failed;
      }
      cycle_ms.push_back(ms);
      m.per_request_ms[i].push_back(ms);
    }
    m.cycle_s.push_back(SecondsSince(cycle_start));
    m.windows.Add(cycle_ms, m.cycle_s.back());
    m.rss_mb.push_back(PeakRssMb());
  } while (SecondsSince(start) < seconds);
  m.prefix_hits = st->prefix->hits() - hits0;
  m.prefix_builds = st->prefix->builds() - builds0;
  report->Phase("measured", attempted, failed);
  return m;
}

// ---- serve_mixed ------------------------------------------------------------

constexpr double kServeScale = 0.5;
constexpr int kServeRounds = 8;
/// Rows appended per round as a share of `admissions`; over the measured
/// rounds plus the replay's round the table grows by under 1%.
constexpr double kAppendShare = 0.001;

ExplainServer::Options ServeOptions() {
  ExplainServer::Options options;
  options.config.max_join_graph_edges = 2;
  options.config.num_threads = 1;
  options.config.apt_shard_rows = 0;
  options.num_explainers = kCallers;
  options.pool_threads = static_cast<int>(kCallers);
  options.enable_result_cache = true;
  return options;
}

/// Five MIMIC queries x {paper question, swapped, single-point on t1}, in
/// popularity order for the zipfian draw.
std::vector<Request> ServeUniverse() {
  std::vector<Request> u;
  for (int variant = 0; variant < 3; ++variant) {
    for (int q = 1; q <= 5; ++q) {
      UserQuestion paper = bench::MimicQuestion(q);
      UserQuestion question =
          variant == 0   ? paper
          : variant == 1 ? UserQuestion::TwoPoint(paper.t2, paper.t1)
                         : UserQuestion::SinglePoint(paper.t1);
      u.push_back({MimicQuerySql(q), std::move(question)});
    }
  }
  return u;
}

struct ServeState {
  std::unique_ptr<Dataset> data;
  std::unique_ptr<ExplainServer> server;
  std::vector<Request> universe;
  /// What each request type is currently served as (from the last sweep).
  std::vector<std::shared_ptr<const ExplainResult>> served;
  std::vector<uint64_t> digests;
  int64_t next_hadm_id = 0;
  size_t base_admissions = 0;
  size_t appended = 0;
};

/// Serves every request type once, `kCallers` threads pulling from a shared
/// index; returns the wall time. Results land in st->served / st->digests;
/// `busy_s` (optional) receives the summed request latencies.
double Sweep(ServeState* st, size_t* failed, double* busy_s = nullptr) {
  std::atomic<size_t> next{0};
  std::atomic<size_t> failures{0};
  std::atomic<int64_t> busy_ns{0};
  int64_t t0 = NowNs();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kCallers; ++c) {
    threads.emplace_back([&] {
      for (size_t i = next++; i < st->universe.size(); i = next++) {
        const Request& r = st->universe[i];
        int64_t start = NowNs();
        auto res = st->server->Explain(r.sql, r.question);
        busy_ns += NowNs() - start;
        if (!res.ok()) {
          std::fprintf(stderr, "sweep request %zu failed: %s\n", i,
                       res.status().ToString().c_str());
          ++failures;
          st->served[i] = nullptr;
          continue;
        }
        st->served[i] = *res;
        st->digests[i] = DigestExplanations(st->served[i]->explanations);
      }
    });
  }
  for (auto& t : threads) t.join();
  *failed = failures.load();
  if (busy_s != nullptr) *busy_s = busy_ns.load() * 1e-9;
  return SecondsSince(t0);
}

std::unique_ptr<ServeState> SetupServe(Report* report) {
  auto st = std::make_unique<ServeState>();
  Result<std::unique_ptr<Dataset>> data = MakeDataset(false, kServeScale);
  if (!data.ok()) Die("dataset generation", data.status());
  st->data = std::move(data).MoveValue();
  st->server = std::make_unique<ExplainServer>(
      &st->data->db, &st->data->schema_graph, ServeOptions());
  st->universe = ServeUniverse();
  st->served.resize(st->universe.size());
  st->digests.resize(st->universe.size());

  Result<TablePtr> adm = st->data->db.GetTable("admissions");
  if (!adm.ok()) Die("admissions table", adm.status());
  int col = (*adm)->schema().FindColumn("hadm_id");
  for (size_t r = 0; r < (*adm)->num_rows(); ++r) {
    st->next_hadm_id =
        std::max(st->next_hadm_id, (*adm)->GetValue(r, col).AsInt() + 1);
  }
  st->base_admissions = (*adm)->num_rows();

  size_t failed = 0;
  Sweep(st.get(), &failed);
  if (failed != 0) Die("warm-up sweep", Status::Internal("request failed"));
  report->Phase("warmup", st->universe.size(), 0);
  return st;
}

/// Appends a seeded batch of admissions: copies of existing rows under
/// fresh hadm_ids. Every client is paused while this runs.
void AppendBatch(ServeState* st, std::mt19937_64* rng) {
  Result<TablePtr> adm = st->data->db.GetTable("admissions");
  if (!adm.ok()) Die("admissions table", adm.status());
  Table& table = **adm;
  int id_col = table.schema().FindColumn("hadm_id");
  size_t batch = std::max<size_t>(
      1, static_cast<size_t>(kAppendShare * st->base_admissions));
  for (size_t i = 0; i < batch; ++i) {
    size_t src = (*rng)() % st->base_admissions;
    std::vector<Value> row;
    for (size_t c = 0; c < table.num_columns(); ++c) {
      row.push_back(table.GetValue(src, c));
    }
    row[id_col] = Value(st->next_hadm_id++);
    Status s = table.AppendRow(row);
    if (!s.ok()) Die("append", s);
    ++st->appended;
  }
}

/// Inverse-CDF zipfian sampler over ranks 0..n-1.
class Zipfian {
 public:
  Zipfian(size_t n, double s) : cdf_(n) {
    double sum = 0;
    for (size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  size_t Sample(std::mt19937_64& rng) const {
    double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    size_t rank = std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
    return std::min(cdf_.size() - 1, rank);
  }

 private:
  std::vector<double> cdf_;
};

struct Client {
  std::mt19937_64 rng;
  size_t prev = 0;
  bool has_prev = false;
  std::vector<double> latency_ms;
  size_t attempted = 0;
  size_t failed = 0;
};

/// Read phase: every client issues requests back to back until the
/// deadline; half of the picks repeat the client's previous request.
double ReadPhase(ServeState* st, std::vector<Client>* clients,
                 const Zipfian& zipf, double seconds) {
  int64_t start = NowNs();
  int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (Client& c : *clients) {
    threads.emplace_back([&st, &zipf, &c, deadline] {
      std::uniform_real_distribution<double> coin(0.0, 1.0);
      while (NowNs() < deadline) {
        size_t pick =
            c.has_prev && coin(c.rng) < 0.5 ? c.prev : zipf.Sample(c.rng);
        c.prev = pick;
        c.has_prev = true;
        const Request& r = st->universe[pick];
        int64_t t0 = NowNs();
        auto res = st->server->Explain(r.sql, r.question);
        double ms = SecondsSince(t0) * 1e3;
        ++c.attempted;
        if (!res.ok()) {
          ++c.failed;
          continue;
        }
        c.latency_ms.push_back(ms);
        if (res->get() != st->served[pick].get() &&
            DigestExplanations((*res)->explanations) != st->digests[pick]) {
          ++c.failed;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  return SecondsSince(start);
}

struct ServeMeasure {
  WindowStats windows;
  std::vector<double> refresh_s;
  double refresh_wall_s = 0;
  double refresh_busy_s = 0;
  std::vector<double> rss_mb;
  double rss_start_mb = 0;
  ExplainServer::Counters before;
  ExplainServer::Counters after;
};

ServeMeasure MeasureServe(ServeState* st, uint64_t seed, double seconds,
                          std::mt19937_64* append_rng, Report* report) {
  ServeMeasure m;
  m.rss_start_mb = PeakRssMb();
  m.before = st->server->counters();
  Zipfian zipf(st->universe.size(), 0.99);
  std::vector<Client> clients(kCallers);
  for (size_t c = 0; c < kCallers; ++c) {
    clients[c].rng.seed(SplitMix(seed * 7919 + c + 1));
  }
  size_t refresh_failed = 0;
  for (int round = 0; round < kServeRounds; ++round) {
    double wall_s = ReadPhase(st, &clients, zipf, seconds / kServeRounds);
    std::vector<double> round_ms;
    for (Client& c : clients) {
      round_ms.insert(round_ms.end(), c.latency_ms.begin(),
                      c.latency_ms.end());
      c.latency_ms.clear();
    }
    m.windows.Add(round_ms, wall_s);
    AppendBatch(st, append_rng);
    size_t failed = 0;
    double busy_s = 0;
    m.refresh_s.push_back(Sweep(st, &failed, &busy_s));
    m.refresh_wall_s += m.refresh_s.back();
    m.refresh_busy_s += busy_s;
    refresh_failed += failed;
    m.rss_mb.push_back(PeakRssMb());
  }
  m.after = st->server->counters();
  size_t attempted = 0, failed = 0;
  for (const Client& c : clients) {
    attempted += c.attempted;
    failed += c.failed;
  }
  report->Phase("read", attempted, failed);
  report->Phase("refresh", kServeRounds * st->universe.size(), refresh_failed);
  return m;
}

/// Every request type's served answer must equal a fresh direct Explainer's
/// on the final database.
void CheckServed(ServeState* st, Report* report) {
  CajadeConfig config = st->server->options().config;
  config.num_threads = static_cast<int>(kCallers);
  Explainer fresh(&st->data->db, &st->data->schema_graph, config);
  size_t failed = 0;
  for (size_t i = 0; i < st->universe.size(); ++i) {
    const Request& r = st->universe[i];
    auto served = st->server->Explain(r.sql, r.question);
    Result<ExplainResult> direct = fresh.Explain(r.sql, r.question);
    if (!served.ok() || !direct.ok() ||
        DigestExplanations((*served)->explanations) !=
            DigestExplanations(direct->explanations)) {
      std::fprintf(stderr, "request type %zu: served answer is stale\n", i);
      ++failed;
    }
  }
  report->Phase("final_check", st->universe.size(), failed);
}

// ---- Traced replay ----------------------------------------------------------

struct ReplayOutcome {
  ReplayCounters counters;
  std::map<std::string, double> self_s;
  double untraced_wall = 0;
  double traced_wall = 0;
  double top_level_s = 0;
};

/// Replays every request twice, once untraced and once traced, alternating
/// which goes first from one request to the next so that drift in host
/// speed and warm caches favour neither; both answers must match
/// `expected`.
ReplayOutcome RunReplay(const ReplayEnv& env, const std::vector<Request>& reqs,
                        const std::vector<uint64_t>& expected,
                        const std::string& trace_out, Report* report) {
  ReplayOutcome out;
  Tracer tracers[2] = {Tracer(false), Tracer(true)};
  ReplayCounters counters[2];
  double wall[2] = {0, 0};
  size_t failed = 0;
  for (size_t i = 0; i < reqs.size(); ++i) {
    for (int k = 0; k < 2; ++k) {
      int traced = (i + k) % 2;
      int64_t t0 = NowNs();
      auto res = ReplayRequest(env, reqs[i], static_cast<uint32_t>(i),
                               &tracers[traced], &counters[traced]);
      wall[traced] += SecondsSince(t0);
      if (!res.ok()) {
        std::fprintf(stderr, "replay of request %zu failed: %s\n", i,
                     res.status().ToString().c_str());
        ++failed;
      } else if (DigestExplanations(*res) != expected[i]) {
        std::fprintf(stderr, "replay of request %zu differs from Explain\n", i);
        ++failed;
      }
    }
  }
  const Tracer& traced = tracers[1];
  out.untraced_wall = wall[0];
  out.traced_wall = wall[1];
  out.counters = counters[1];
  out.self_s = traced.SelfSeconds();
  out.top_level_s = traced.TopLevelSeconds();
  if (!trace_out.empty() && !traced.WriteJson(trace_out)) {
    std::fprintf(stderr, "could not write %s\n", trace_out.c_str());
  }
  report->Phase("replay", 2 * reqs.size(), failed);
  return out;
}

/// Least share of the traced wall the top-level spans must cover for the
/// per-layer figures to be trusted.
constexpr double kMinTraceCoverage = 0.95;

/// Per-layer metrics shared by every workload. Times are per replayed
/// request.
void ReportLayers(const ReplayOutcome& r, Report* report) {
  const double n = std::max<size_t>(1, r.counters.requests);
  auto self_ms = [&](const char* name) {
    auto it = r.self_s.find(name);
    return it == r.self_s.end() ? 0.0 : it->second * 1e3 / n;
  };
  auto per_req = [&](double v) { return v / n; };
  const ReplayCounters& c = r.counters;
  report->Metric("sql.parse_ms", self_ms("sql.parse"), "ms");
  report->Metric("provenance.compute_ms", self_ms("provenance.compute"), "ms");
  report->Metric("provenance.pt_rows", per_req(c.pt_rows), "count");
  report->Metric("core.prepare_ms", self_ms("core.prepare"), "ms");
  report->Metric("graph.enumerate_ms", self_ms("graph.enumerate"), "ms");
  report->Metric("graph.valid", per_req(c.graphs_valid), "count");
  report->Metric("graph.pruned_cost", per_req(c.graphs_pruned_cost), "count");
  report->Metric("graph.pruned_pk", per_req(c.graphs_pruned_pk), "count");
  report->Metric("apt.materialize_ms", self_ms("apt.materialize"), "ms");
  report->Metric("apt.rows", per_req(c.apt_rows), "count");
  report->Metric("apt.shards", per_req(c.apt_shards), "count");
  report->Metric("apt.peak_state_bytes",
                 static_cast<double>(c.apt_peak_state_bytes), "bytes");
  report->Metric("apt.skipped_oversize", c.apt_skipped_oversize, "count");
  report->Metric("miner.mine_ms", self_ms("miner.mine"), "ms");
  report->Metric("miner.patterns_evaluated", per_req(c.patterns_evaluated),
                 "count");
  report->Metric("miner.budget_exhausted", c.budget_exhausted, "count");
  report->Metric("miner.lca_candidates", per_req(c.lca_candidates), "count");
  report->Metric("miner.selected_attrs", per_req(c.selected_attrs), "count");
  report->Metric("miner.attrs", per_req(c.attrs), "count");
  const StepProfiler& p = c.miner_stages;
  report->Metric("miner.stage.feature_selection_ms",
                 p.Get("Feature Selection") * 1e3 / n, "ms");
  report->Metric("miner.stage.lca_ms", p.Get("Gen. Pat. Cand.") * 1e3 / n,
                 "ms");
  report->Metric("miner.stage.fscore_ms", p.Get("F-score Calc.") * 1e3 / n,
                 "ms");
  report->Metric("miner.stage.refine_ms", p.Get("Refine Patterns") * 1e3 / n,
                 "ms");
  report->Metric("miner.stage.sampling_ms", p.Get("Sampling for F1") * 1e3 / n,
                 "ms");
  report->Metric("core.graph_ms", self_ms("core.graph"), "ms");
  report->Metric("core.assemble_ms", self_ms("core.assemble"), "ms");
  report->Metric("core.rank_ms", self_ms("core.rank"), "ms");
  double coverage = Ratio(r.top_level_s, r.traced_wall);
  report->Metric("trace.coverage", coverage, "ratio");
  if (coverage < kMinTraceCoverage) {
    report->Fail("top-level spans cover too little of the traced wall");
  }
  report->Metric("trace.overhead", Ratio(r.traced_wall, r.untraced_wall),
                 "ratio");

  // Stage shares of the traced top-level time, for the workload rationale.
  std::string shares = "{";
  bool first = true;
  for (const auto& [name, s] : r.self_s) {
    if (name == "request") continue;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %.4f", first ? "" : ", ",
                  name.c_str(), Ratio(s, r.top_level_s));
    shares += buf;
    first = false;
  }
  report->Detail("span_shares", shares + "}");
}

/// The end-to-end metrics (untraced runs only) and, in every run, the
/// per-window figures behind them.
void ReportEndToEnd(const std::vector<double>& setup_s, const WindowStats& w,
                    const std::vector<double>& refresh_s, double peak_rss_mb,
                    bool trace, Report* report) {
  report->Detail("setup_s", JsonNumbers(setup_s));
  report->Detail("window_rps", JsonNumbers(w.rps));
  report->Detail("window_p50_ms", JsonNumbers(w.p50_ms));
  report->Detail("window_p99_ms", JsonNumbers(w.p99_ms));
  report->Detail("refresh_s", JsonNumbers(refresh_s));
  report->Detail("latency_samples", std::to_string(w.samples));
  report->Detail("window_min_beyond_p99", std::to_string(w.min_beyond_p99));
  if (trace) return;
  report->Metric("setup_s", Median(setup_s), "s");
  report->Metric("throughput_rps", Median(w.rps), "1/s");
  report->Metric("latency_p50_ms", Median(w.p50_ms), "ms");
  report->Metric("latency_p99_ms", Median(w.p99_ms), "ms");
  report->Metric("refresh_s", Median(refresh_s), "s");
  report->Metric("peak_rss_mb", peak_rss_mb, "MB");
}

// ---- Workloads --------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

/// Returns the digest of the run's answers.
uint64_t RunDirect(const DirectSpec& spec, const Args& args, Report* report) {
  std::vector<double> setup_s;
  std::unique_ptr<DirectState> st;
  for (int rep = 0; rep < (args.trace ? 1 : kSetupReps); ++rep) {
    st.reset();
    int64_t t0 = NowNs();
    st = SetupDirect(spec, report);
    setup_s.push_back(SecondsSince(t0));
  }
  DirectMeasure m = MeasureDirect(st.get(), args.seed, args.seconds, report);
  double peak_rss = PeakRssMb();
  uint64_t digest = CombineDigests(st->digests);
  report->Detail("rss_mb_after_cycle", JsonNumbers(m.rss_mb));
  // No appends here: a cycle is the time until every request has been
  // served again.
  ReportEndToEnd(setup_s, m.windows, m.cycle_s, peak_rss, args.trace, report);
  if (!args.trace) return digest;

  // Replay every request on the measured Explainer's warm prefix cache.
  QueryExecutor executor(&st->data->db);
  StatsCatalog stats;
  ReplayEnv env;
  env.db = &st->data->db;
  env.schema_graph = &st->data->schema_graph;
  env.config = st->explainer->config();
  env.preparer = st->explainer.get();
  env.executor = &executor;
  env.stats = &stats;
  env.prefix_cache = st->prefix.get();
  ReplayOutcome r =
      RunReplay(env, st->requests, st->digests, args.trace_out, report);
  ReportLayers(r, report);
  // The replay's serial per-graph work against 4 threads' worth of the wall
  // the measured run spent on the same requests.
  double untraced_wall_s = 0;
  for (const auto& ms : m.per_request_ms) {
    untraced_wall_s += Median(ms) / 1e3;
  }
  double graph_work_s = 0;
  for (const char* name :
       {"core.graph", "apt.materialize", "miner.mine", "core.assemble"}) {
    auto it = r.self_s.find(name);
    if (it != r.self_s.end()) graph_work_s += it->second;
  }
  report->Metric("pool.efficiency",
                 Ratio(graph_work_s, kCallers * untraced_wall_s), "ratio");
  report->Metric("serve.hit_ratio", 0, "ratio");
  report->Metric("serve.invalidations", 0, "count");
  report->Metric("serve.overhead_ms", 0, "ms");
  report->Metric("apt.prefix_hit_ratio",
                 Ratio(m.prefix_hits, m.prefix_hits + m.prefix_builds),
                 "ratio");
  // Each Explain builds its join indexes in a cache of its own, so the
  // replay's per-request caches are where index reuse shows.
  report->Metric("apt.index_hit_ratio",
                 Ratio(r.counters.index_hits,
                       r.counters.index_hits + r.counters.index_builds),
                 "ratio");
  report->Metric("cache.prefix_peak_bytes",
                 static_cast<double>(st->prefix->peak_bytes()), "bytes");
  report->Metric("cache.index_peak_bytes",
                 static_cast<double>(r.counters.index_peak_bytes), "bytes");
  report->Metric("mem.rss_growth_mb", peak_rss - m.rss_start_mb, "MB");
  return digest;
}

/// Returns the digest of the final served answers.
uint64_t RunServe(const Args& args, Report* report) {
  std::vector<double> setup_s;
  std::unique_ptr<ServeState> st;
  for (int rep = 0; rep < (args.trace ? 1 : kSetupReps); ++rep) {
    st.reset();
    int64_t t0 = NowNs();
    st = SetupServe(report);
    setup_s.push_back(SecondsSince(t0));
  }
  std::mt19937_64 append_rng(SplitMix(args.seed ^ 0xa99e7d));
  ServeMeasure m = MeasureServe(st.get(), args.seed, args.seconds, &append_rng,
                                report);
  double peak_rss = PeakRssMb();
  CheckServed(st.get(), report);
  uint64_t digest = CombineDigests(st->digests);

  report->Detail("rss_mb_after_round", JsonNumbers(m.rss_mb));
  report->Detail("admissions_growth",
                 std::to_string(Ratio(st->appended, st->base_admissions)));
  ReportEndToEnd(setup_s, m.windows, m.refresh_s, peak_rss, args.trace, report);
  if (!args.trace) return digest;

  // Replay against the server's warm caches, after one more append round so
  // the replayed answers are the ones just served.
  AppendBatch(st.get(), &append_rng);
  size_t sweep_failed = 0;
  Sweep(st.get(), &sweep_failed);
  report->Phase("replay_refresh", st->universe.size(), sweep_failed);
  Explainer preparer(&st->data->db, &st->data->schema_graph,
                     st->server->options().config);
  preparer.set_shared_prefix_cache(&st->server->prefix_cache());
  preparer.set_shared_index_cache(&st->server->index_cache());
  QueryExecutor executor(&st->data->db);
  StatsCatalog stats;
  ReplayEnv env;
  env.db = &st->data->db;
  env.schema_graph = &st->data->schema_graph;
  env.config = st->server->options().config;
  env.preparer = &preparer;
  env.executor = &executor;
  env.stats = &stats;
  env.prefix_cache = &st->server->prefix_cache();
  env.index_cache = &st->server->index_cache();
  env.server = st->server.get();
  // The paper's five questions lead the universe; replaying only those keeps
  // the traced run within its time budget.
  std::vector<Request> reqs(st->universe.begin(), st->universe.begin() + 5);
  std::vector<uint64_t> expected(st->digests.begin(), st->digests.begin() + 5);
  ReplayOutcome r = RunReplay(env, reqs, expected, args.trace_out, report);
  ReportLayers(r, report);
  // Requests run single-threaded, so the 4 callers are the pool: their
  // busy share during the refresh sweeps, where the mining happens.
  report->Metric("pool.efficiency",
                 Ratio(m.refresh_busy_s, kCallers * m.refresh_wall_s),
                 "ratio");
  const double n = std::max<size_t>(1, r.counters.requests);
  auto self = [&](const char* name) {
    auto it = r.self_s.find(name);
    return it == r.self_s.end() ? 0.0 : it->second;
  };
  const ExplainServer::Counters& a = m.after;
  const ExplainServer::Counters& b = m.before;
  double hits = static_cast<double>(a.result_hits - b.result_hits);
  double misses = static_cast<double>(a.result_misses - b.result_misses);
  report->Metric("serve.hit_ratio", Ratio(hits, hits + misses), "ratio");
  report->Metric("serve.invalidations",
                 static_cast<double>(a.result_invalidations -
                                     b.result_invalidations),
                 "count");
  report->Metric("serve.overhead_ms",
                 (self("serve.hit") - self("core.prepare")) * 1e3 / n, "ms");
  double prefix_hits = static_cast<double>(a.prefix_hits - b.prefix_hits);
  double prefix_builds = static_cast<double>(a.prefix_builds - b.prefix_builds);
  report->Metric("apt.prefix_hit_ratio",
                 Ratio(prefix_hits, prefix_hits + prefix_builds), "ratio");
  double index_hits = static_cast<double>(a.index_hits - b.index_hits);
  double index_builds = static_cast<double>(a.index_builds - b.index_builds);
  report->Metric("apt.index_hit_ratio",
                 Ratio(index_hits, index_hits + index_builds), "ratio");
  report->Metric("cache.prefix_peak_bytes",
                 static_cast<double>(a.prefix_peak_bytes), "bytes");
  report->Metric("cache.index_peak_bytes",
                 static_cast<double>(a.index_peak_bytes), "bytes");
  report->Metric("mem.rss_growth_mb", peak_rss - m.rss_start_mb, "MB");
  if (r.counters.serve_hits != r.counters.serve_calls) {
    report->Fail("replayed serve calls were not all cache hits");
  }
  return digest;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <nba_serial|mimic_parallel|"
                 "serve_mixed> [--seed N] [--seconds S] [--trace 0|1] "
                 "[--trace-out PATH]\n");
    return 2;
  }
  Report report;
  uint64_t digest = 0;
  if (args.workload == "nba_serial") {
    // lambda#edges = 1 keeps a five-question pass near 1.4 s at SF 0.1
    // (lambda = 2 takes ~24 s), so several passes fit in one run.
    digest = RunDirect({/*nba=*/true, /*scale=*/0.1, /*warmup_passes=*/1,
                        /*edges=*/1,
               /*threads=*/1, /*shard_rows=*/0},
              args, &report);
  } else if (args.workload == "mimic_parallel") {
    digest = RunDirect({/*nba=*/false, /*scale=*/0.5, /*warmup_passes=*/4,
                        /*edges=*/2,
               /*threads=*/4, /*shard_rows=*/1024},
              args, &report);
  } else if (args.workload == "serve_mixed") {
    digest = RunServe(args, &report);
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  char env[256];
  std::snprintf(env, sizeof(env),
                "{\"nproc\": %u, \"compiler\": \"%s\", \"build_type\": \"%s\"}",
                std::thread::hardware_concurrency(), __VERSION__,
                PERFBENCH_BUILD_TYPE);
  report.Detail("env", env);
  report.Print(digest);
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace cajade

int main(int argc, char** argv) { return cajade::perfbench::Main(argc, argv); }
