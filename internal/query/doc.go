// Package query plans and executes relational read pipelines over live
// slates, cluster-wide: the "top retailers by checkin count right now"
// class of question the paper motivates Muppet with, answered without
// downloading every slate.
//
// A query is a Spec — one scan plus optional filter, projection, and
// grouped aggregation — executed as scan -> σ -> π -> γ:
//
//   - scan: a prefix/range walk over one updater's slates. The
//     node-local input is the cache-resident slates (the freshest
//     value, possibly dirty and not yet flushed) and then the durable
//     store's rows for the keys the cache did not answer (flushed values
//     the cache may have evicted); when both hold a key the cache wins.
//   - σ (Where): predicate filter over fields.
//   - π (Fields): field projection, addressed by dotted path; on scalar
//     slates (a plain counter) any field other than "key" resolves to
//     the value itself.
//   - γ (Agg): grouped aggregation — count, sum, min, max, or topk with
//     a bounded heap. The group key defaults to the slate key for topk
//     and to one global group otherwise; GroupBy names a field instead.
//
// # One executor, two row views
//
// Compile plans a Spec once — paths split, predicate literals parsed,
// projection names ordered — and the Executor then folds rows as they
// arrive (Cached, Raw), so nothing proportional to the scan stays
// resident: key-grouped topk goes straight into a heap of K, group-by
// into a map of Group values, a global aggregate into one Group, a row
// scan into a Limit-bounded set. Execute is the slice-fed adapter over
// it. There is one fold for every aggregation kind; what differs per
// query is only how a row's fields are read:
//
//   - The typed view: the codec implements slate.FieldCodec and compiled
//     this query's paths into a FieldReader. A cache-resident decoded
//     slate is then read as the Go object it is — a few field loads
//     under the cache's shard lock, no encoding — and a slate held as
//     bytes is decoded by the codec once and read through the same
//     reader. core's JSONCodec adapter offers this for slate types whose
//     JSON view it can reproduce exactly.
//   - The JSON view: the slate's encoding parsed into an `any` tree
//     (through the codec and back through JSON when there is one). It is
//     the definition of a field's value, and the view of every query the
//     codec declines: custom codecs, RawCodec and byte slates; slate
//     types with embedded or unexported fields, tag options, pointers,
//     maps, slices, interfaces or Marshalers; and any path that names an
//     object rather than a scalar — the whole value of a struct slate
//     included, so whole-value rows keep json.Marshal's sorted keys.
//
// The typed view must equal the JSON view — integers as the float64
// their decimal form parses to, a slate holding a non-finite float a
// decode error, a missing field absent — and core's FuzzFieldView holds
// it to that. A query uses one view for all its rows.
//
// # Fold order
//
// Rows arrive in cache-shard order (Go map order) and then store order,
// and float addition is not associative. So a query whose groups' Sum
// has more than one term — sum, and topk by a field over GroupBy groups
// — buffers its surviving (key, group, value) triples and folds them in
// key order at Result; the same slates give the same bits, and a
// standing sum watch does not flap. Count, min, max and key-grouped
// topk (one row per group) are order-free and fold as rows arrive; min
// and max therefore leave Group.Sum zero.
//
// # Pushdown
//
// The Coordinator scatter-gathers the WHOLE pipeline: each owning node
// runs scan->σ->π->γ locally and ships only its reduced partial result
// (projected rows, or partial aggregate groups) back; the coordinator
// merges partials — summing counts and sums, folding mins and maxes,
// re-ranking top-k — so bytes on the wire scale with the answer, not
// with the slate set. ExecStats records both BytesScanned (what a
// fetch-all would have moved) and WireBytes (what actually crossed),
// which is the pushdown win stated as data.
//
// # Consistency model
//
// Reads are per-slate atomic, cross-slate best-effort: each row is one
// consistent snapshot of one slate (the cache's current value — a slate
// mid-update is read when its updater lets go, see slate.Sharded.Scan —
// or the store's last flushed one), but rows are collected while
// ingest runs, so two slates may be observed at different flush
// epochs. There is no cross-slate transaction — the same model as the
// paper's slate reads, widened from one key to a scan. A node whose
// caches provably hold every stored slate it owns skips the store pass,
// which could only have skipped rows the cache answered (see the
// runtime's queryLocal). Ownership
// filtering (each node contributes only keys its ring currently routes
// to it) plus coordinator-side key dedup keep a key from being counted
// twice during failover handoffs.
//
// Continuous queries re-run a standing Spec on flush-epoch cadence
// (Watcher) and emit a result only when the answer changed, feeding
// the engine's Subscribe machinery so clients stream deltas.
package query
