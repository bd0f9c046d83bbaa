// Package exec is a vectorized, pull-based query executor over columnar
// int64 data. It executes the physical plans produced by the optimizers —
// table/index/segment scans with pushed-down selections, hash join,
// sort-merge join, index nested-loops join, sort, and hash aggregation —
// and collects per-operator actual output cardinalities, which the adaptive
// layer feeds back into incremental re-optimization (the paper's §5.2.2
// "changes based on real execution" and §5.4 loop).
//
// Operators implement VecIterator and exchange column-major batches — up to
// BatchSize rows held as one contiguous []int64 per column, with a selection
// vector for pushed-down predicates (batch.go). Leaf scans hand out
// zero-copy column windows over column-major base-table storage
// (catalog.Table.ColumnSnapshot), so a filtering scan reads only the columns
// its conditions touch; the hot kernels — per-operator predicate selection,
// vectorized multiplicative hashing, join result stitching via Gather,
// flat-table aggregation — are tight loops over contiguous slices
// dispatched once per batch (kernels.go, exprkernels.go, vecjoin.go,
// agg.go). Batch column slices are recycled, so consumers copy values out
// before the producer's next call; DrainVec and the operator-internal
// materializing drains do exactly one such copy per row. Under the
// compiler's Parallelism option, parallelism is morsel-driven and extends
// across whole pipelines (pipeline.go): right-spine hash-join chains over a
// large leaf scan fuse into a parallelPipelineOp whose workers each run the
// full scan → probe cascade → partial-aggregate chain privately — join
// tables are built once with a partitioned parallel insert and shared
// read-only, aggregation state is worker-local in a flat open-addressing
// aggTable (agg.go, no per-row key allocation), and partial aggregates and
// exact per-operator cardinality counts merge once at the end, so RunStats
// feedback is byte-identical at any parallelism. Plans that don't match the
// pipeline shape fall back to morsel-driven parallel leaf scans behind an
// exchange channel (parallel.go). Results and RunStats are checked against
// the plan-independent reference evaluator in internal/testkit.
package exec

// Row is one materialized tuple, as returned by DrainVec. Strings and
// decimals are dictionary/fixed-point encoded by the workload generators,
// so the executor is integer-only.
type Row []int64
