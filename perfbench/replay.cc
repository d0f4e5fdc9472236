#include "perfbench/replay.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>

#include "src/sql/parser.h"

namespace cajade {
namespace perfbench {

namespace {

class Fnv64 {
 public:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ULL;
    }
  }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void F64(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

}  // namespace

uint64_t DigestExplanations(const std::vector<Explanation>& ranked) {
  Fnv64 h;
  h.U64(ranked.size());
  for (const Explanation& e : ranked) {
    h.Str(e.join_graph);
    h.Str(e.join_conditions);
    h.Str(e.pattern);
    h.U64(static_cast<uint64_t>(e.primary));
    h.Str(e.primary_tuple);
    h.F64(e.precision);
    h.F64(e.recall);
    h.F64(e.fscore);
    h.F64(e.fscore_sampled);
    h.U64(static_cast<uint64_t>(e.support_primary));
    h.U64(static_cast<uint64_t>(e.total_primary));
    h.U64(static_cast<uint64_t>(e.support_other));
    h.U64(static_cast<uint64_t>(e.total_other));
    h.U64(static_cast<uint64_t>(e.pattern_size));
  }
  return h.value();
}

Result<std::vector<Explanation>> ReplayRequest(const ReplayEnv& env,
                                               const Request& request,
                                               uint32_t request_id,
                                               Tracer* tracer,
                                               ReplayCounters* counters) {
  const CajadeConfig& config = env.config;
  tracer->set_request(request_id);
  ScopedSpan root(tracer, "request");
  ++counters->requests;

  ParsedQuery query;
  {
    ScopedSpan span(tracer, "sql.parse");
    ASSIGN_OR_RETURN(query, ParseQuery(request.sql));
  }
  // Provenance alone first: it also brings the base tables into the CPU
  // caches, so Prepare and the served hit below are timed alike and their
  // difference is the serving layer's own cost.
  size_t pt_size = 0;
  {
    ScopedSpan span(tracer, "provenance.compute");
    ASSIGN_OR_RETURN(ProvenanceTable pt,
                     ComputeProvenance(*env.executor, query));
    pt_size = pt.table.num_rows();
  }
  PreparedExplain prepared;
  {
    ScopedSpan span(tracer, "core.prepare");
    ASSIGN_OR_RETURN(prepared, env.preparer->Prepare(query, request.question));
  }
  if (pt_size != prepared.pt.table.num_rows()) {
    return Status::Internal("replayed provenance differs from Prepare's");
  }
  counters->pt_rows += static_cast<double>(prepared.pt_rows.size());
  if (env.server != nullptr) {
    size_t hits_before = env.server->result_cache().hits();
    {
      ScopedSpan span(tracer, "serve.hit");
      ASSIGN_OR_RETURN(auto served,
                       env.server->Explain(request.sql, request.question));
      (void)served;
    }
    ++counters->serve_calls;
    counters->serve_hits += env.server->result_cache().hits() - hits_before;
  }

  const ProvenanceTable& pt = prepared.pt;
  const std::vector<int64_t>& pt_rows = prepared.pt_rows;
  std::vector<JoinGraph> graphs;
  {
    ScopedSpan span(tracer, "graph.enumerate");
    JoinGraphEnumerator::Options opts;
    opts.max_edges = config.max_join_graph_edges;
    opts.cost_threshold = config.cost_threshold;
    opts.check_cost = config.enable_cost_pruning;
    opts.pk_check = !config.enable_pk_pruning ? PkCheckMode::kOff
                    : config.pk_check_strict  ? PkCheckMode::kAllAttrs
                                              : PkCheckMode::kAnyAttr;
    opts.include_pt_only = config.include_pt_only_graph;
    JoinGraphEnumerator enumerator(env.schema_graph, env.db, pt.relations,
                                   opts, env.stats);
    RETURN_NOT_OK(enumerator.Enumerate(
        static_cast<double>(pt_rows.size()), pt.table.schema().num_columns(),
        [&](const JoinGraph& graph) -> Status {
          graphs.push_back(graph);
          return Status::OK();
        }));
    counters->graphs_valid += enumerator.stats().valid;
    counters->graphs_pruned_cost += enumerator.stats().pruned_cost;
    counters->graphs_pruned_pk += enumerator.stats().pruned_pk;
  }

  Rng rng(config.seed);
  std::vector<Rng> graph_rngs;
  graph_rngs.reserve(graphs.size());
  for (size_t i = 0; i < graphs.size(); ++i) graph_rngs.push_back(rng.Fork());

  std::unique_ptr<AptIndexCache> local_index;
  AptIndexCache* index_cache = env.index_cache;
  if (index_cache == nullptr) {
    local_index = std::make_unique<AptIndexCache>(config.apt_index_cache_bytes);
    index_cache = local_index.get();
  }
  size_t index_hits_before = index_cache->hits();
  size_t index_builds_before = index_cache->num_builds();
  AptMaterializeMetrics apt_metrics;
  AptMaterializeOptions apt_options;
  apt_options.stats = env.stats;
  apt_options.prefix_cache = env.prefix_cache;
  apt_options.index_cache = index_cache;
  apt_options.row_limit = config.max_apt_rows;
  apt_options.pt_fingerprint = prepared.pt_fingerprint;
  apt_options.metrics = &apt_metrics;
  const bool sharded = config.apt_shard_rows > 0;

  std::vector<Explanation> ranked;
  for (size_t gi = 0; gi < graphs.size(); ++gi) {
    // Declared first so the APT is freed inside the graph's span, as it is
    // inside the explainer's per-graph task.
    ScopedSpan graph_span(tracer, "core.graph");
    const JoinGraph& graph = graphs[gi];
    Apt apt;
    ShardedApt sapt;
    Status mat_status = Status::OK();
    {
      ScopedSpan span(tracer, "apt.materialize");
      if (sharded) {
        Result<ShardedApt> r = MaterializeAptSharded(
            pt, pt_rows, graph, *env.schema_graph, *env.db, apt_options,
            config.apt_shard_rows);
        mat_status = r.status();
        if (r.ok()) sapt = std::move(r).MoveValue();
      } else {
        Result<Apt> r = MaterializeApt(pt, pt_rows, graph, *env.schema_graph,
                                       *env.db, apt_options);
        mat_status = r.status();
        if (r.ok()) apt = std::move(r).MoveValue();
      }
    }
    if (mat_status.code() == StatusCode::kOutOfRange) {
      ++counters->apt_skipped_oversize;
      continue;
    }
    RETURN_NOT_OK(mat_status);
    size_t rows = sharded ? sapt.num_rows() : apt.num_rows();
    counters->apt_rows += static_cast<double>(rows);
    if (rows == 0) continue;

    MineResult mined;
    {
      ScopedSpan span(tracer, "miner.mine");
      Rng graph_rng = graph_rngs[gi];
      PatternMiner miner(&config, &counters->miner_stages);
      ASSIGN_OR_RETURN(
          mined, sharded ? miner.Mine(sapt, prepared.classes, &graph_rng)
                         : miner.Mine(apt, prepared.classes, &graph_rng));
    }
    counters->patterns_evaluated +=
        static_cast<double>(mined.patterns_evaluated);
    counters->budget_exhausted += mined.budget_exhausted ? 1 : 0;
    counters->lca_candidates += static_cast<double>(mined.lca_candidates);
    counters->selected_attrs += static_cast<double>(mined.selected_attributes);
    counters->attrs += static_cast<double>(mined.num_attributes);

    ScopedSpan span(tracer, "core.assemble");
    const Table& describe_table = sharded ? sapt.schema_table() : apt.table;
    for (const MinedPattern& mp : mined.top_k) {
      Explanation e;
      e.join_graph = graph.Describe();
      e.join_conditions = graph.DescribeEdges(*env.schema_graph);
      e.pattern = mp.pattern.Describe(describe_table);
      e.primary = mp.primary;
      e.primary_tuple =
          mp.primary == 0 ? prepared.t1_description : prepared.t2_description;
      e.precision = mp.exact.precision;
      e.recall = mp.exact.recall;
      e.fscore = mp.exact.fscore;
      e.fscore_sampled = mp.scores.fscore;
      e.support_primary = mp.support_primary;
      e.total_primary = mp.total_primary;
      e.support_other = mp.support_other;
      e.total_other = mp.total_other;
      e.pattern_size = static_cast<int>(mp.pattern.size());
      ranked.push_back(std::move(e));
    }
  }
  {
    ScopedSpan span(tracer, "core.rank");
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const Explanation& a, const Explanation& b) {
                       return a.fscore > b.fscore;
                     });
  }
  counters->apt_shards += static_cast<double>(apt_metrics.shards.load());
  counters->apt_peak_state_bytes =
      std::max(counters->apt_peak_state_bytes,
               apt_metrics.peak_state_bytes.load());
  counters->index_hits += index_cache->hits() - index_hits_before;
  counters->index_builds += index_cache->num_builds() - index_builds_before;
  counters->index_peak_bytes =
      std::max(counters->index_peak_bytes, index_cache->peak_bytes());
  return ranked;
}

}  // namespace perfbench
}  // namespace cajade
