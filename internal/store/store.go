package store

import "encoding/json"

// Op enumerates the journal record kinds — the verbs of the job
// lifecycle WAL.
type Op string

const (
	// OpSubmit records an accepted job: identity, request key and the
	// raw request payload needed to re-run it after a crash. Compaction
	// re-emits terminal jobs' submits without the payload.
	OpSubmit Op = "submit"
	// OpStart records that a runner picked the job up. Replay treats
	// started-but-unfinished jobs exactly like queued ones: the work is
	// deterministic, so re-running from scratch is safe.
	OpStart Op = "start"
	// OpCancel records a client cancellation request. A job with a
	// cancel but no finish (the process died first) is not re-enqueued.
	OpCancel Op = "cancel"
	// OpFinish records the terminal state; done results live in the
	// result store under the record's request key.
	OpFinish Op = "finish"
)

// Journal-level job states, shared with the service's wire states by
// value so records translate without a mapping table.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateCanceled = "canceled"
	StateFailed   = "failed"
)

// terminal reports whether a journal state is final.
func terminal(state string) bool {
	return state == StateDone || state == StateCanceled || state == StateFailed
}

// Record is one journal entry. All fields beyond Op and Job are
// optional per op; unknown fields in persisted records are ignored so
// the grammar can grow without a migration.
type Record struct {
	Op  Op     `json:"op"`
	Job string `json:"job"`
	// Kind, Fingerprint, Key and Strategy describe the job on OpSubmit
	// (Kind/Strategy as opaque service strings; Key is the persistent
	// result cache key).
	Kind        string `json:"kind,omitempty"`
	Fingerprint string `json:"fp,omitempty"`
	Key         string `json:"key,omitempty"`
	Strategy    string `json:"strategy,omitempty"`
	// Request is the raw wire request of OpSubmit, replayed verbatim to
	// re-run the job. Compaction drops it for terminal jobs.
	Request json.RawMessage `json:"request,omitempty"`
	// State and Error carry the outcome of OpFinish.
	State string `json:"state,omitempty"`
	Error string `json:"error,omitempty"`
	// Unix is the append timestamp (metadata only — replay never
	// branches on it, so fake clocks and clock skew are harmless).
	Unix int64 `json:"unix,omitempty"`
}

// Store is the pluggable persistence seam of the service: the file-
// backed FileStore is the default implementation; an external broker
// or database can substitute without touching the service.
//
// The service guarantees it is the only writer: records are appended
// before the matching state transition is acknowledged on the wire.
type Store interface {
	// Append durably appends one journal record. An error means the
	// record is not guaranteed on disk and the caller must not
	// acknowledge the transition.
	Append(rec Record) error
	// Replay returns the records recovered at open time, in append
	// order, with the recovery report (torn tails, dropped segments).
	// It never touches the disk: recovery happens once, at open.
	Replay() ([]Record, ReplayReport)
	// Compact rewrites the journal down to the live records. The
	// snapshot callback runs after the active segment is sealed, so
	// records appended concurrently are never lost (see FileStore).
	Compact(snapshot func() []Record) error
	// PutResult persists the canonical result bytes for a request key.
	PutResult(key string, result []byte) error
	// GetResult returns the unexpired result bytes for a key; ok is
	// false on a miss, an expired entry, or a frame that no longer
	// reads back intact.
	GetResult(key string) (result []byte, ok bool)
	// Stats snapshots the durability counters for health endpoints.
	Stats() Stats
	// Close releases the journal; further appends fail. Idempotent.
	Close() error
}

// TornTail describes an invalid journal or results-log suffix found
// during recovery: a torn final write, a corrupt frame, or a frame
// whose payload is not a record (or not a result). Everything before
// Offset was recovered; Dropped bytes from Offset on were not.
type TornTail struct {
	Segment string `json:"segment"`
	Offset  int64  `json:"offset"`
	Dropped int64  `json:"dropped"`
	Reason  string `json:"reason"`
}

// ReplayReport summarizes the recovery of both logs, the journal and
// the results log. Segments, Records and Bytes describe the replayed
// journal; Torn is non-empty whenever bytes were dropped from either
// log — recovery reports damage, it never hides it.
type ReplayReport struct {
	Segments int        `json:"segments"`
	Records  int        `json:"records"`
	Bytes    int64      `json:"bytes"`
	Torn     []TornTail `json:"torn,omitempty"`
	// SegmentsDropped counts whole segments removed because an earlier
	// segment of the same log was corrupt mid-file: replaying records
	// that were written after a lost record would reorder history, so
	// recovery stops at the longest valid prefix of the whole log.
	SegmentsDropped int `json:"segmentsDropped,omitempty"`
}

// Stats is a point-in-time snapshot of the durability counters,
// embedded into the service's /healthz stats.
type Stats struct {
	// Segments and JournalBytes describe the current journal footprint.
	Segments     int   `json:"segments"`
	JournalBytes int64 `json:"journalBytes"`
	// Appends and AppendBytes count records written since open.
	Appends     int64 `json:"appends"`
	AppendBytes int64 `json:"appendBytes"`
	// ReplayedRecords/TornTails/SegmentsDropped mirror the open-time
	// recovery report.
	ReplayedRecords int `json:"replayedRecords"`
	TornTails       int `json:"tornTails"`
	SegmentsDropped int `json:"segmentsDropped,omitempty"`
	// Compactions counts journal rewrites since open.
	Compactions int64 `json:"compactions"`
	// Fsyncs counts file and directory fsyncs since open: one per
	// durable journal record and one per result, plus one per segment
	// created and the few a compaction adds.
	Fsyncs int64 `json:"fsyncs"`
	// Result-store counters: stored results, cache hits and misses,
	// TTL evictions.
	ResultsStored    int64 `json:"resultsStored"`
	PersistentHits   int64 `json:"persistentHits"`
	PersistentMisses int64 `json:"persistentMisses"`
	ResultsExpired   int64 `json:"resultsExpired"`
	// ResultsLiveBytes is the results-log footprint of the latest
	// unexpired result of every key; ResultsDeadBytes the rest (results
	// overwritten or evicted), which a compaction sweep reclaims once it
	// exceeds the live bytes.
	ResultsLiveBytes int64 `json:"resultsLiveBytes"`
	ResultsDeadBytes int64 `json:"resultsDeadBytes"`
}
