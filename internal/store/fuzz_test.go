package store

import (
	"bytes"
	"fmt"
	"testing"
)

// decodeJournal scans a journal segment held in memory the way Open
// does: scanFrames with whole payloads, decodeRecord on each.
func decodeJournal(t *testing.T, data []byte) ([]Record, int64, string) {
	var recs []Record
	consumed, reason, err := scanFrames(bytes.NewReader(data), maxRecordBytes, func(payload []byte, _, _ int64) string {
		rec, bad := decodeRecord(payload)
		if bad == "" {
			recs = append(recs, rec)
		}
		return bad
	})
	if err != nil {
		t.Fatalf("scanning an in-memory journal failed: %v", err)
	}
	return recs, consumed, reason
}

// FuzzJournalReplay pins the recovery contract of the journal's scan:
// on ANY byte sequence — truncated, bit-flipped, duplicated, or pure
// garbage — it never panics, recovers the longest valid record prefix,
// and reports (never silently drops) whatever follows.
func FuzzJournalReplay(f *testing.F) {
	var valid []byte
	for i := 1; i <= 3; i++ {
		var err error
		if valid, err = encodeFrame(valid, submitRec(i)); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(valid)                   // clean journal
	f.Add(valid[:len(valid)-5])    // torn tail mid-frame
	f.Add(valid[:3])               // torn header
	f.Add(append(valid, valid...)) // duplicated records
	f.Add(append(valid, 0xFF))     // trailing garbage
	f.Add([]byte{})                // empty journal
	f.Add([]byte("not a journal")) // pure garbage
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x01
	f.Add(flipped) // bit flip mid-payload

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, consumed, reason := decodeJournal(t, data)
		if consumed < 0 || consumed > int64(len(data)) {
			t.Fatalf("consumed %d of %d bytes", consumed, len(data))
		}
		if reason == "" && consumed != int64(len(data)) {
			t.Fatalf("no rejection reason but only %d of %d bytes consumed", consumed, len(data))
		}
		if reason != "" && consumed == int64(len(data)) {
			t.Fatalf("rejection reason %q with the whole buffer consumed", reason)
		}
		// The recovered prefix must be self-consistent: decoding exactly
		// the consumed bytes yields the same records and no damage.
		again, consumed2, reason2 := decodeJournal(t, data[:consumed])
		if reason2 != "" || consumed2 != consumed || len(again) != len(recs) {
			t.Fatalf("prefix not self-consistent: %d/%d records, %d/%d bytes, reason %q",
				len(again), len(recs), consumed2, consumed, reason2)
		}
		// Re-encoding the recovered records must round-trip: recovery
		// yields real records, not partially-filled ones.
		var reenc []byte
		for _, rec := range recs {
			var err error
			if reenc, err = encodeFrame(reenc, rec); err != nil {
				t.Fatalf("recovered record does not re-encode: %v", err)
			}
		}
		if rt, _, _ := decodeJournal(t, reenc); len(rt) != len(recs) {
			t.Fatalf("re-encoded prefix decodes to %d records, want %d", len(rt), len(recs))
		}
		// The replay state machine must accept whatever the decoder
		// recovered without panicking, for any record contents.
		for _, js := range Reduce(recs) {
			if js.ID == "" {
				t.Fatal("Reduce produced a snapshot with no ID")
			}
			if !terminal(js.State) && js.State != StateQueued {
				t.Fatalf("Reduce left job %q in non-final, non-queued state %q", js.ID, js.State)
			}
		}
		_ = bytes.Equal(reenc, data[:consumed]) // encodings may differ (JSON field order); only record equality matters
	})
}

// FuzzResultsLog pins the recovery contract of the results log's scan
// (scanFrames with result heads, splitResult on each) the way
// FuzzJournalReplay pins the journal's: on any byte sequence it
// never panics, visits contiguous frames from offset 0, stops at the
// longest valid prefix and explains the rest, and rescanning exactly
// that prefix visits the same frames with no damage.
func FuzzResultsLog(f *testing.F) {
	var valid []byte
	for i := 1; i <= 3; i++ {
		frame, err := encodeResult(fmt.Sprintf("deadbeef.%016x", i), 1_700_000_000, []byte(`{"x":1}`))
		if err != nil {
			f.Fatal(err)
		}
		valid = append(valid, frame...)
	}
	journal, err := encodeFrame(nil, submitRec(1))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)                   // clean log
	f.Add(valid[:len(valid)-5])    // torn tail mid-frame
	f.Add(valid[:3])               // torn header
	f.Add(append(valid, valid...)) // duplicated keys
	f.Add(append(valid, 0xFF))     // trailing garbage
	f.Add([]byte{})                // empty log
	f.Add(journal)                 // a valid frame that is not a result
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x01
	f.Add(flipped) // bit flip mid-payload

	type visit struct{ off, size int64 }
	scan := func(t *testing.T, data []byte) ([]visit, int64, string) {
		var seen []visit
		consumed, reason, err := scanFrames(bytes.NewReader(data), resultFixed+maxKeyBytes, func(head []byte, off, size int64) string {
			key, _, bad := splitResult(head, size-frameHeader)
			if bad != "" {
				return bad
			}
			if !validKey(string(key)) {
				t.Fatalf("visited an invalid key %q", key)
			}
			seen = append(seen, visit{off, size})
			return ""
		})
		if err != nil {
			t.Fatalf("scanning an in-memory log failed: %v", err)
		}
		return seen, consumed, reason
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		seen, consumed, reason := scan(t, data)
		if consumed < 0 || consumed > int64(len(data)) {
			t.Fatalf("consumed %d of %d bytes", consumed, len(data))
		}
		if (reason == "") != (consumed == int64(len(data))) {
			t.Fatalf("reason %q with %d of %d bytes consumed", reason, consumed, len(data))
		}
		next := int64(0)
		for _, v := range seen {
			if v.off != next {
				t.Fatalf("frame at %d, want %d: frames are not contiguous", v.off, next)
			}
			next += v.size
		}
		if next != consumed {
			t.Fatalf("visited frames span %d bytes, consumed %d", next, consumed)
		}
		again, consumed2, reason2 := scan(t, data[:consumed])
		if reason2 != "" || consumed2 != consumed || len(again) != len(seen) {
			t.Fatalf("prefix not self-consistent: %d/%d frames, %d/%d bytes, reason %q",
				len(again), len(seen), consumed2, consumed, reason2)
		}
	})
}
