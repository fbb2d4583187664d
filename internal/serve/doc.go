// Package serve is the compound-threat analysis server: a long-running
// HTTP layer that answers sweep, figure, and placement queries against
// disaster ensembles loaded once at startup, turning the batch pipeline
// (hazard ensemble → failure matrix → compressed patterns → attack tables →
// operational-state profile) into an interactive what-if service for
// planners iterating over architectures and placements (the workflow
// behind the paper's Figures 6-11 and §VII placement question).
//
// Endpoints (see docs/API.md for schemas and examples):
//
//	GET  /v1/healthz      liveness + loaded-ensemble inventory
//	GET  /v1/report       live compoundthreat/run-report/v2 snapshot
//	GET  /v1/sweep        per-configuration state probabilities
//	POST /v1/sweep        same, JSON request body
//	GET  /v1/figure/{id}  paper figures 6-11, bit-identical to compoundsim
//	GET  /v1/placement    ranked (second site, data center) candidates
//
// The hot path reuses the analysis engine end to end and is built
// around three serving mechanisms:
//
//   - Caching. Compiling an ensemble's failure bits into a bit-packed
//     matrix and deduplicating its rows is the expensive part of a
//     query; evaluating the 2-3 distinct flood patterns afterwards is
//     nearly free. The server therefore compiles once per (ensemble
//     hash, asset-universe fingerprint) pair and keeps the compiled
//     view — matrix and compressed rows — in a bounded LRU cache. One
//     server-wide engine.Tables holds the attack table of every
//     configuration shape the server has met, shared by all views.
//   - Coalescing. Concurrent identical queries (a stampede after a
//     restart) trigger exactly one compile: the first request starts
//     it, every other request for the same key waits on the same
//     in-flight entry, singleflight style. A request that times out
//     while waiting abandons the wait, not the compile — the result
//     still lands in the cache for the retry.
//   - Bounded work. Query evaluation runs from a fixed pool of request
//     slots (Options.MaxInflight); saturated servers queue requests
//     until a slot frees or their deadline expires. Every request
//     carries a per-request timeout (Options.Timeout), and parameter
//     and body-size validation rejects malformed queries before they
//     reach the engine.
//
// Long work runs as async jobs: k-site placement searches (POST
// /v1/placement/search) and ensemble generation (POST /v1/ensembles).
// One generic job registry serves both kinds — it coalesces identical
// submissions by content key, keeps finished jobs pollable up to
// Options.JobRetention, and cancels running jobs on Close — and one
// runner gives each job its Options.JobTimeout deadline, its own
// trace, a watcher that surfaces the deadline or Close at once, and
// one inflight slot, so jobs and interactive queries share the same
// work bound. A job kind adds only its fields, its work function and
// the step that records its result.
//
// Concurrency invariants: ensembles and compiled views are immutable
// after construction, so any number of handler goroutines read them
// without locks; the only mutable shared state is the cache index
// (one mutex, held only for map/list operations, never during a
// compile) and the attack tables (read without a lock; a mutex only
// publishes a newly built table). Evaluation itself is
// allocation-free per cell on the engine's weighted path. Results are
// bit-identical to the batch CLIs because the cells run the same
// engine code over the same compiled bits.
//
// Observability: when a recorder is enabled before construction
// (obs.Enable), the server records per-endpoint request counters and
// latency histograms, cache hit/miss/coalesce/evict counters, an
// in-flight request gauge, and compile spans, all visible live at
// /v1/report.
package serve
