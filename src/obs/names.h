#ifndef PCDB_OBS_NAMES_H_
#define PCDB_OBS_NAMES_H_

/// \file
/// The observability name registry: every metric and trace-span name in
/// the engine is declared exactly once here, as a constant that call
/// sites reference by identifier. A name that exists only as a string
/// literal at a call site can silently drift from the dashboards, the
/// trace validator, and the docs that consume it — so pcdb-analyze
/// (obs-registry checker) enforces that in src/ the name argument of
/// GetCounter / GetGauge / GetHistogram / PCDB_TRACE_SPAN / TraceSpan /
/// RecordInterval is one of these constants, that every constant below
/// appears in its kAll* table, that values are unique, and that no
/// constant is dead. tools/check_trace.py closes the loop at runtime:
/// a span name in a trace dump that is not in kAllSpanNames fails CI.
///
/// Adding a name: declare the constant, add it to the kAll* table
/// (the checker fails on a missing entry), and use it at the site.
///
/// Span naming convention: `<layer>.<operation>` (server.query,
/// minimize.all_at_once, pattern.join); the two legacy top-level names
/// (evaluate_annotated, compute_query_patterns) predate the convention
/// and are kept — renaming spans breaks saved traces and dashboards.
/// Metric convention: snake_case, `_total` suffix for counters that
/// count events (not states), `engine_` prefix for the process-wide
/// GlobalMetrics() registry shared across Server instances.

namespace pcdb {

// --- Trace-span names (obs/trace.h). The tracer stores the pointer,
// never copies, so these being process-lifetime constants is load-
// bearing, not just style.

// SQL front end.
inline constexpr char kSpanSqlPlan[] = "sql.plan";

// Server request path (server/server.cc).
inline constexpr char kSpanServerAccept[] = "server.accept";
inline constexpr char kSpanServerFrame[] = "server.frame";
inline constexpr char kSpanServerQuery[] = "server.query";
inline constexpr char kSpanServerEncode[] = "server.encode";
inline constexpr char kSpanServerFlush[] = "server.flush";
inline constexpr char kSpanServerIngest[] = "server.ingest";
inline constexpr char kSpanServerWriteBatch[] = "server.write_batch";
/// Explicitly-timed interval (Tracer::RecordInterval), not an RAII
/// span: measures queue wait on another thread's timeline, so
/// check_trace.py exempts it from the nesting check.
inline constexpr char kSpanServerQueueWait[] = "server.queue_wait";

// Answer cache (server/answer_cache.cc).
inline constexpr char kSpanCacheGet[] = "cache.get";
inline constexpr char kSpanCachePut[] = "cache.put";

// Annotated evaluation entry points (pattern/annotated_eval.cc).
inline constexpr char kSpanEvaluateAnnotated[] = "evaluate_annotated";
inline constexpr char kSpanComputeQueryPatterns[] = "compute_query_patterns";

// Data operators (relational/evaluator.cc, one per ExprKind).
inline constexpr char kSpanEvalScan[] = "eval.scan";
inline constexpr char kSpanEvalSelectConst[] = "eval.select_const";
inline constexpr char kSpanEvalSelectAttrEq[] = "eval.select_attr_eq";
inline constexpr char kSpanEvalProjectOut[] = "eval.project_out";
inline constexpr char kSpanEvalRearrange[] = "eval.rearrange";
inline constexpr char kSpanEvalJoin[] = "eval.join";
inline constexpr char kSpanEvalAggregate[] = "eval.aggregate";
inline constexpr char kSpanEvalSort[] = "eval.sort";
inline constexpr char kSpanEvalLimit[] = "eval.limit";
inline constexpr char kSpanEvalUnion[] = "eval.union";
inline constexpr char kSpanEvalOperator[] = "eval.operator";

// Pattern operators (pattern/annotated_eval.cc, the metadata half).
inline constexpr char kSpanPatternScan[] = "pattern.scan";
inline constexpr char kSpanPatternSelectConst[] = "pattern.select_const";
inline constexpr char kSpanPatternSelectAttrEq[] = "pattern.select_attr_eq";
inline constexpr char kSpanPatternProjectOut[] = "pattern.project_out";
inline constexpr char kSpanPatternRearrange[] = "pattern.rearrange";
inline constexpr char kSpanPatternJoin[] = "pattern.join";
inline constexpr char kSpanPatternAggregate[] = "pattern.aggregate";
inline constexpr char kSpanPatternSort[] = "pattern.sort";
inline constexpr char kSpanPatternLimit[] = "pattern.limit";
inline constexpr char kSpanPatternUnion[] = "pattern.union";
inline constexpr char kSpanPatternOperator[] = "pattern.operator";

// Durability (durability/wal.cc, durability/checkpoint.cc,
// server/server.cc recovery path).
inline constexpr char kSpanWalAppendBatch[] = "wal.append_batch";
inline constexpr char kSpanCheckpointSave[] = "checkpoint.save";
inline constexpr char kSpanRecoveryCheckpoint[] = "recovery.checkpoint";
inline constexpr char kSpanRecoveryReplay[] = "recovery.replay";

// Distributed coordinator (dist/coordinator.cc).
inline constexpr char kSpanDistQuery[] = "dist.query";
inline constexpr char kSpanDistScatter[] = "dist.scatter";
inline constexpr char kSpanDistMerge[] = "dist.merge";
inline constexpr char kSpanDistWrite[] = "dist.write";
/// First-contact SHARD_INFO verification of one shard connection; its
/// rtt_micros arg is the clock-skew bound tools/trace_merge.py uses
/// when stitching that shard's dump into the fleet timeline.
inline constexpr char kSpanDistHandshake[] = "dist.handshake";

// Minimization (pattern/minimize.cc, one per MinimizeApproach).
inline constexpr char kSpanMinimizeAllAtOnce[] = "minimize.all_at_once";
inline constexpr char kSpanMinimizeIncremental[] = "minimize.incremental";
inline constexpr char kSpanMinimizeSortedIncremental[] =
    "minimize.sorted_incremental";
inline constexpr char kSpanMinimize[] = "minimize";

/// Every span name the engine can emit. check_trace.py fails a trace
/// dump containing a name outside this table; the obs-registry checker
/// fails the build tree when a kSpan* constant is missing from it.
inline constexpr const char* kAllSpanNames[] = {
    kSpanSqlPlan,
    kSpanServerAccept,
    kSpanServerFrame,
    kSpanServerQuery,
    kSpanServerEncode,
    kSpanServerFlush,
    kSpanServerIngest,
    kSpanServerWriteBatch,
    kSpanServerQueueWait,
    kSpanCacheGet,
    kSpanCachePut,
    kSpanEvaluateAnnotated,
    kSpanComputeQueryPatterns,
    kSpanEvalScan,
    kSpanEvalSelectConst,
    kSpanEvalSelectAttrEq,
    kSpanEvalProjectOut,
    kSpanEvalRearrange,
    kSpanEvalJoin,
    kSpanEvalAggregate,
    kSpanEvalSort,
    kSpanEvalLimit,
    kSpanEvalUnion,
    kSpanEvalOperator,
    kSpanPatternScan,
    kSpanPatternSelectConst,
    kSpanPatternSelectAttrEq,
    kSpanPatternProjectOut,
    kSpanPatternRearrange,
    kSpanPatternJoin,
    kSpanPatternAggregate,
    kSpanPatternSort,
    kSpanPatternLimit,
    kSpanPatternUnion,
    kSpanPatternOperator,
    kSpanWalAppendBatch,
    kSpanCheckpointSave,
    kSpanRecoveryCheckpoint,
    kSpanRecoveryReplay,
    kSpanDistQuery,
    kSpanDistScatter,
    kSpanDistMerge,
    kSpanDistWrite,
    kSpanDistHandshake,
    kSpanMinimizeAllAtOnce,
    kSpanMinimizeIncremental,
    kSpanMinimizeSortedIncremental,
    kSpanMinimize,
};

// --- Metric names (obs/metrics.h).

// Per-server registry: counters. The front end (server/front_end.cc)
// registers the request, connection and admission metrics in the
// registry of whichever Server or Coordinator it serves.
inline constexpr char kMetricRequestsTotal[] = "requests_total";
inline constexpr char kMetricShedTotal[] = "shed_total";
inline constexpr char kMetricCacheHits[] = "cache_hits";
inline constexpr char kMetricCacheMisses[] = "cache_misses";
inline constexpr char kMetricErrorsTotal[] = "errors_total";
inline constexpr char kMetricCancelledTotal[] = "cancelled_total";
inline constexpr char kMetricTimeoutsTotal[] = "timeouts_total";
inline constexpr char kMetricConnectionsTotal[] = "connections_total";
inline constexpr char kMetricConnectionsRejected[] = "connections_rejected";
inline constexpr char kMetricConnectionFaults[] = "connection_faults";
inline constexpr char kMetricProtocolErrors[] = "protocol_errors";
inline constexpr char kMetricEvalTaskFaults[] = "eval_task_faults";
inline constexpr char kMetricPollErrors[] = "poll_errors";
inline constexpr char kMetricIngestRowsTotal[] = "ingest_rows_total";
inline constexpr char kMetricIngestRejectedTotal[] = "ingest_rejected_total";
inline constexpr char kMetricPunctuationsTotal[] = "punctuations_total";
inline constexpr char kMetricPatternsRetractedTotal[] =
    "patterns_retracted_total";
inline constexpr char kMetricWritesShedTotal[] = "writes_shed_total";
inline constexpr char kMetricWriteBatches[] = "write_batches";
/// Read-side admission: queries shed because the tenant exceeded
/// ServerOptions::tenant_read_quota. Per-tenant breakdowns are dynamic
/// names composed as `queries_shed_total.<tenant>` from this prefix —
/// only for tenants configured in ServerOptions::tenant_tiers; unknown
/// (wire-supplied) tenants share `queries_shed_total.other`.
inline constexpr char kMetricQueriesShedTotal[] = "queries_shed_total";

// Per-Server registry: durability (WAL / checkpoint / recovery /
// idempotent-retry dedup).
inline constexpr char kMetricWalRecordsTotal[] = "wal_records_total";
inline constexpr char kMetricWalFsyncsTotal[] = "wal_fsyncs_total";
inline constexpr char kMetricWalRecoveredRecords[] = "wal_recovered_records";
inline constexpr char kMetricWalTornTailTotal[] = "wal_torn_tail_total";
inline constexpr char kMetricCheckpointsTotal[] = "checkpoints_total";
inline constexpr char kMetricWritesDedupedTotal[] = "writes_deduped_total";

// Per-Server registry: gauges and histograms.
inline constexpr char kMetricConnectionsOpen[] = "connections_open";
inline constexpr char kMetricInflight[] = "inflight";
inline constexpr char kMetricPendingWrites[] = "pending_writes";
inline constexpr char kMetricRequestLatency[] = "request_latency";

// Coordinator registry (dist/coordinator.cc). Per-shard latency
// histograms are dynamic names composed as `shard_latency.<i>` from
// this prefix.
inline constexpr char kMetricShardLatency[] = "shard_latency";
inline constexpr char kMetricShardErrorsTotal[] = "shard_errors_total";
/// STATS requests the coordinator answered with fleet-aggregated
/// metrics (counter sums + histogram bucket merges across shards).
inline constexpr char kMetricFleetStatsTotal[] = "fleet_stats_total";
/// Broadcast queries whose per-shard EXPLAIN ANALYZE profiles were
/// merged into a fleet profile.
inline constexpr char kMetricProfileMergesTotal[] = "profile_merges_total";

// Process-wide GlobalMetrics() registry (obs/metrics.cc).
inline constexpr char kMetricEnginePatternsMinimized[] =
    "engine_patterns_minimized";
inline constexpr char kMetricEngineSubsumptionProbes[] =
    "engine_subsumption_probes";
inline constexpr char kMetricEngineDegradedToSummary[] =
    "engine_degraded_to_summary";
inline constexpr char kMetricEngineFailpointTrips[] =
    "engine_failpoint_trips";
/// Client-side (server/client.cc), hence no engine_ prefix: transparent
/// reconnects performed by Client retry logic, process-wide because a
/// Client has no per-Server registry to report into.
inline constexpr char kMetricClientReconnectsTotal[] =
    "client_reconnects_total";

/// Every metric name the engine registers, for the same completeness
/// checks as kAllSpanNames.
inline constexpr const char* kAllMetricNames[] = {
    kMetricRequestsTotal,
    kMetricShedTotal,
    kMetricCacheHits,
    kMetricCacheMisses,
    kMetricErrorsTotal,
    kMetricCancelledTotal,
    kMetricTimeoutsTotal,
    kMetricConnectionsTotal,
    kMetricConnectionsRejected,
    kMetricConnectionFaults,
    kMetricProtocolErrors,
    kMetricEvalTaskFaults,
    kMetricPollErrors,
    kMetricIngestRowsTotal,
    kMetricIngestRejectedTotal,
    kMetricPunctuationsTotal,
    kMetricPatternsRetractedTotal,
    kMetricWritesShedTotal,
    kMetricWriteBatches,
    kMetricQueriesShedTotal,
    kMetricWalRecordsTotal,
    kMetricWalFsyncsTotal,
    kMetricWalRecoveredRecords,
    kMetricWalTornTailTotal,
    kMetricCheckpointsTotal,
    kMetricWritesDedupedTotal,
    kMetricConnectionsOpen,
    kMetricInflight,
    kMetricPendingWrites,
    kMetricRequestLatency,
    kMetricShardLatency,
    kMetricShardErrorsTotal,
    kMetricFleetStatsTotal,
    kMetricProfileMergesTotal,
    kMetricEnginePatternsMinimized,
    kMetricEngineSubsumptionProbes,
    kMetricEngineDegradedToSummary,
    kMetricEngineFailpointTrips,
    kMetricClientReconnectsTotal,
};

}  // namespace pcdb

#endif  // PCDB_OBS_NAMES_H_
