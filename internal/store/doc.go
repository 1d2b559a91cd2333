// Package store is the durability layer under the synthesis service:
// an append-only job journal (a write-ahead log of submit/start/cancel/
// finish records) plus a persistent, TTL'd result store keyed by the
// canonical system fingerprint, so a restarted mcs-serve re-runs the
// jobs it had accepted and serves already-computed results byte-
// identically to a cold run.
//
// The package deliberately knows nothing about the service's job types:
// records carry opaque strings (kind, state, strategy) and raw request
// payloads, so the journal grammar is stable against service-side
// refactors and the Store interface can later be backed by an external
// broker instead of the file-backed default.
//
// # Journal
//
// A journal is a directory of numbered segment files. Each record is a
// JSON-encoded Record framed as
//
//	[4-byte little-endian payload length]
//	[4-byte little-endian CRC-32C of the payload]
//	[payload]
//
// Appends are fsynced before they are acknowledged (except OpStart
// records, which replay does not need; the next durable append covers
// them), the active segment rotates once it exceeds the configured
// size, and compaction rewrites the sealed segments down to the live
// job state (see FileStore.Compact for the crash-safety argument).
//
// # Result store
//
// Results are opaque byte blobs keyed by the request key (system
// fingerprint + option digest, computed by the service). They live in
// the results log, numbered segments of frames in the journal's framing
// whose payload is the key, the put stamp and the raw result bytes; an
// in-memory index maps each key to its latest frame's offset, so a put
// is one write and one fsync of an open file and a lookup one read. A
// result older than the configured TTL is evicted on lookup and during
// compaction sweeps, which rewrite the log down to its live frames once
// the dead ones outweigh them; TTL zero keeps results forever. Time is
// read through the injected Clock so tests drive expiry on a fake
// clock; the system clock lives behind the single SystemClock
// constructor.
//
// # Segment log
//
// Both logs are one segment-log type (segments.go), which owns segment
// naming, rotation, appends at the tracked end, sealing, installing a
// rewritten segment, and recovery. Recovery keeps the longest valid
// frame prefix of the whole log: a torn or corrupt frame stops the scan
// there, the segments after it are removed and the damaged one is
// truncated, and the damage is reported — never silently dropped —
// through ReplayReport and Stats. Each log keeps only its payload
// codec, its in-memory state, its lock and its compaction policy.
package store
