package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
)

// Frame layout: 4-byte little-endian payload length, 4-byte
// little-endian CRC-32C of the payload, then the payload (a JSON-
// encoded Record in the journal, a result in the results log). The CRC covers only the payload; a corrupt length
// manifests as an impossible size or a CRC mismatch one frame later,
// either of which stops recovery at this offset.
const frameHeader = 8

// maxRecordBytes caps a single record (matching the service's request
// body cap, the largest thing a submit record carries). A length
// prefix beyond it is treated as corruption, so a flipped length bit
// can never drive a multi-gigabyte allocation during recovery.
const maxRecordBytes = 64 << 20

// castagnoli is the CRC-32C table (the polynomial used by ext4, iSCSI
// and most storage formats, with hardware support on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// encodeFrame appends the framed encoding of rec to buf.
func encodeFrame(buf []byte, rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return buf, fmt.Errorf("store: encoding record: %w", err)
	}
	if len(payload) > maxRecordBytes {
		return buf, fmt.Errorf("store: record of %d bytes exceeds the %d byte frame cap", len(payload), maxRecordBytes)
	}
	start := len(buf)
	buf = append(buf, make([]byte, frameHeader)...)
	buf = append(buf, payload...)
	putFrameHeader(buf[start:])
	return buf, nil
}

// putFrameHeader fills the header of a frame whose payload is already
// in place after it. The journal and the results log share it, so both
// files have one framing.
func putFrameHeader(frame []byte) {
	payload := frame[frameHeader:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
}

// frameSize reads a frame header: the payload length, or the reason
// the header cannot start a valid frame.
func frameSize(hdr []byte) (int64, string) {
	size := int64(binary.LittleEndian.Uint32(hdr[0:4]))
	if size > maxRecordBytes {
		return 0, fmt.Sprintf("frame length %d exceeds the %d byte cap", size, maxRecordBytes)
	}
	return size, ""
}

// frameCRC checks a payload against its frame header's checksum.
func frameCRC(hdr, payload []byte) string {
	if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(hdr[4:8]); got != want {
		return fmt.Sprintf("CRC mismatch: %08x != %08x", got, want)
	}
	return ""
}

// decodeFrames recovers the longest valid prefix of framed records
// from data. It returns the decoded records, the number of bytes
// consumed by valid frames, and — when consumed < len(data) — the
// reason the remaining suffix was rejected (empty reason means the
// whole buffer decoded cleanly). It never panics on any input; the
// FuzzJournalReplay target pins that.
func decodeFrames(data []byte) (recs []Record, consumed int64, reason string) {
	off := int64(0)
	for off < int64(len(data)) {
		rest := data[off:]
		if len(rest) < frameHeader {
			return recs, off, fmt.Sprintf("torn frame header: %d trailing bytes", len(rest))
		}
		size, bad := frameSize(rest)
		if bad != "" {
			return recs, off, bad
		}
		if int64(len(rest)) < frameHeader+size {
			return recs, off, fmt.Sprintf("torn frame payload: %d of %d bytes", int64(len(rest))-frameHeader, size)
		}
		payload := rest[frameHeader : frameHeader+size]
		if bad := frameCRC(rest, payload); bad != "" {
			return recs, off, bad
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return recs, off, fmt.Sprintf("frame payload is not a record: %v", err)
		}
		recs = append(recs, rec)
		off += frameHeader + size
	}
	return recs, off, ""
}
