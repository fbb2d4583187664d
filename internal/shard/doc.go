// Package shard is the routing tier of the sharded serving deployment:
// a thin stateless router that consistent-hashes each query's compiled
// view onto a fixed pool of threatserver workers, so every view is
// compiled (and its LRU slot paid for) on exactly one worker.
//
// The router holds no ensemble data. It parses each read with the
// serve package's read-query parse (serve.ParseSweepQuery and its
// siblings) — the same parse the workers answer from, so router and
// worker can never disagree about which queries share a view or which
// requests are malformed — routes on the parsed query's shard identity,
// and resolves ensemble names to content fingerprints from the
// workers' /v1/healthz responses. A request the parse rejects is
// answered at the router with the worker's exact error envelope.
//
// Three mechanisms ride on top of the ring:
//
//   - The response memo: a repeated read is answered at the router from
//     a 4 MiB LRU of finished answers, keyed on the ensemble's content
//     fingerprint plus the parsed query's response key, with no backend
//     call. An
//     answer is stored on its key's second fetch, only if it is a 200
//     from a worker advertising the key's fingerprint. Concurrent
//     identical misses collapse into one backend call whose waiters
//     replay the leader's response byte-for-byte. A worker restarted
//     with other content under the same name is seen at the next
//     health probe; until then the memo, like routing, uses the old
//     fingerprint. Hits, admissions, evictions and stored bytes are
//     shard.memo_hits, shard.memo_admits, shard.memo_evictions and
//     shard.memo_bytes; the misses' leaders/joined split is
//     shard.batch_leaders and shard.batch_joined.
//   - Retry and hedging: 2xx/4xx backend responses are deterministic
//     verdicts returned as-is; 5xx and transport errors fail over to
//     the next backend on the key's ring sequence, one attempt after
//     another on the handler goroutine. With a hedge delay configured,
//     a slow primary races a second backend and the first verdict
//     wins.
//   - Client identity: every proxied request carries the client's
//     serve.ClientKey as X-Client-ID, so workers charge upload quotas
//     to the client, not to the router.
//   - Job stickiness: async placement jobs are worker-local, so the
//     router learns job_id → backend from 202 submissions and
//     broadcasts polls for unknown or orphaned jobs (e.g. inherited
//     over a warm handoff) across the live pool.
package shard
