// The benchmark's replay of one Explain request through the engine's public
// entry points, one layer at a time:
//
//   ParseQuery -> ComputeProvenance -> Explainer::Prepare on the same input
//   (provenance plus question resolution and fingerprinting; the separate
//   provenance call splits the two) -> [ExplainServer::Explain, served
//   from cache] ->
//   JoinGraphEnumerator::Enumerate -> per join graph MaterializeAptSharded
//   (or MaterializeApt) then PatternMiner::Mine -> global ranking.
//
// The per-graph part mirrors Explainer::ExplainPrepared serially (RNG
// streams forked in enumeration order, oversize graphs skipped, stable
// ranking by F-score), so the replay's ranked explanations must equal what
// Explain returns for the same question; the benchmark checks that before
// it trusts the spans.

#ifndef CAJADE_PERFBENCH_REPLAY_H_
#define CAJADE_PERFBENCH_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/trace.h"
#include "src/core/explainer.h"
#include "src/serve/explain_server.h"

namespace cajade {
namespace perfbench {

/// One request type: a query and a user question.
struct Request {
  std::string sql;
  UserQuestion question;
};

/// Layer counters summed over the replayed requests.
struct ReplayCounters {
  size_t requests = 0;
  double pt_rows = 0;
  double graphs_valid = 0;
  double graphs_pruned_cost = 0;
  double graphs_pruned_pk = 0;
  double apt_rows = 0;
  double apt_shards = 0;
  size_t apt_peak_state_bytes = 0;
  double apt_skipped_oversize = 0;
  double patterns_evaluated = 0;
  double budget_exhausted = 0;
  double lca_candidates = 0;
  double selected_attrs = 0;
  double attrs = 0;
  size_t index_hits = 0;
  size_t index_builds = 0;
  size_t index_peak_bytes = 0;
  /// ExplainServer cache hits observed on the replayed serve calls.
  size_t serve_hits = 0;
  size_t serve_calls = 0;
  /// The StepProfiler handed to PatternMiner, summed as reported.
  StepProfiler miner_stages;
};

/// Engine state the replay runs against. The caches are the ones the
/// measured program used, so the replay sees the same warm state.
struct ReplayEnv {
  const Database* db = nullptr;
  const SchemaGraph* schema_graph = nullptr;
  /// Result-affecting configuration; the replay is serial whatever
  /// num_threads says.
  CajadeConfig config;
  /// Explainer whose Prepare entry point the replay calls.
  const Explainer* preparer = nullptr;
  /// Executor for the separate ComputeProvenance call.
  const QueryExecutor* executor = nullptr;
  /// Statistics catalog for enumeration and materialization.
  StatsCatalog* stats = nullptr;
  /// Prefix-state cache (nullptr when the config disables it).
  AptPrefixCache* prefix_cache = nullptr;
  /// Shared join-index cache; nullptr builds a per-request cache, as a
  /// direct Explainer does.
  AptIndexCache* index_cache = nullptr;
  /// When set, the replay also times a served (cached) answer.
  ExplainServer* server = nullptr;
};

/// Replays `request`, recording spans into `tracer` under request id
/// `request_id`. Returns the ranked explanations.
Result<std::vector<Explanation>> ReplayRequest(const ReplayEnv& env,
                                               const Request& request,
                                               uint32_t request_id,
                                               Tracer* tracer,
                                               ReplayCounters* counters);

/// Order-sensitive FNV-1a digest of a ranked explanation list: every field,
/// with doubles by bit pattern, so equal digests mean bit-identical output.
uint64_t DigestExplanations(const std::vector<Explanation>& ranked);

}  // namespace perfbench
}  // namespace cajade

#endif  // CAJADE_PERFBENCH_REPLAY_H_
