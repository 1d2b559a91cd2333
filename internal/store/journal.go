package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
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

// decodeRecord decodes a journal frame's payload, or says why it is
// not a record.
func decodeRecord(payload []byte) (Record, string) {
	var rec Record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return rec, fmt.Sprintf("frame payload is not a record: %v", err)
	}
	return rec, ""
}

// scanFrames reads frames from r until the first invalid one, the
// longest-valid-prefix rule both logs recover by. For each frame whose
// length and CRC check out it calls visit with the first keep bytes of
// the payload (all of it when shorter; valid only during the call) and
// the frame's offset and whole size; visit returns why the payload is
// not one the log holds, or "". scanFrames returns the bytes the
// accepted frames span and, when it stopped before the end of r, why.
// Payload bytes past keep are checksummed as they stream by, never
// held, and the head grows only with bytes actually read, so a corrupt
// length cannot drive a large allocation. Only a failed read (not a
// short one) is an error. FuzzJournalReplay and FuzzResultsLog pin that
// it never panics and that its prefix is self-consistent.
func scanFrames(r io.Reader, keep int64, visit func(head []byte, off, size int64) string) (consumed int64, reason string, err error) {
	br := bufio.NewReaderSize(r, 64<<10)
	var hdr [frameHeader]byte
	var head bytes.Buffer
	var lr io.LimitedReader
	skip := make([]byte, 32<<10)
	sum := crc32.New(castagnoli)
	for {
		n, err := io.ReadFull(br, hdr[:])
		switch {
		case err == io.EOF:
			return consumed, "", nil
		case err == io.ErrUnexpectedEOF:
			return consumed, fmt.Sprintf("torn frame header: %d trailing bytes", n), nil
		case err != nil:
			return consumed, "", err
		}
		size, bad := frameSize(hdr[:])
		if bad != "" {
			return consumed, bad, nil
		}
		head.Reset()
		lr.R, lr.N = br, min(size, keep)
		got, err := head.ReadFrom(&lr)
		if err == nil {
			sum.Reset()
			sum.Write(head.Bytes())
			var rest int64
			lr.N = size - got
			rest, err = io.CopyBuffer(sum, &lr, skip)
			got += rest
		}
		switch {
		case err != nil:
			return consumed, "", err
		case got < size:
			return consumed, fmt.Sprintf("torn frame payload: %d of %d bytes", got, size), nil
		}
		if crc, want := sum.Sum32(), binary.LittleEndian.Uint32(hdr[4:8]); crc != want {
			return consumed, fmt.Sprintf("CRC mismatch: %08x != %08x", crc, want), nil
		}
		if bad := visit(head.Bytes(), consumed, frameHeader+size); bad != "" {
			return consumed, bad, nil
		}
		consumed += frameHeader + size
	}
}
