package persist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
)

// A Journal is an append-only JSONL log with a CRC32-C checksum on every
// record. Each line is a self-contained JSON object
//
//	{"crc":"xxxxxxxx","rec":<payload>}
//
// where crc is the checksum of the payload bytes exactly as they appear.
// Appends are fsynced, so a record that Append returned nil for survives
// a crash. A crash *during* an append leaves a torn final line (no
// newline, or a half-written record); OpenJournal discards it and
// truncates the file back to the last good record, which is the
// crash-consistency contract sweep manifests rely on. A bad record
// anywhere before the final line cannot be produced by an append crash
// and is reported as a *CorruptError instead of silently dropped. A
// failed append is rolled back to the last good record before Append
// returns, so later appends never land behind torn bytes.
type Journal struct {
	f    File
	path string
	size int64 // byte length of the good prefix; the next frame starts here
	err  error // sticky: once set, every Append refuses with it
}

// CorruptError reports a journal record that failed validation somewhere
// other than the (tolerated) torn tail.
type CorruptError struct {
	Path   string
	Line   int    // 1-based line number of the bad record
	Reason string // what failed: framing, checksum, ...
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("persist: corrupt journal %s: line %d: %s", e.Path, e.Line, e.Reason)
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func crcHex(payload []byte) string {
	return fmt.Sprintf("%08x", crc32.Checksum(payload, crcTable))
}

// The on-disk framing of one record is exactly framePrefix, the 8-digit
// lowercase hex checksum, frameMid, the payload bytes, and a closing
// brace. Replay accepts only this canonical form, so every replayed
// record re-frames to the bytes it was read from.
const (
	framePrefix = `{"crc":"`
	frameMid    = `","rec":`
	frameCRCLen = 8
)

// OpenJournal opens (creating if absent) the journal at path, replays its
// records, and returns the journal positioned for appending plus the
// replayed payloads in append order. A torn final record is discarded and
// counted under persist.journal.torn; earlier corruption returns a
// *CorruptError and no journal.
func OpenJournal(path string) (*Journal, [][]byte, error) {
	records, goodLen, size, err := readJournal(path)
	if err != nil {
		return nil, nil, err
	}
	if goodLen < size {
		// Torn tail from a crash mid-append: drop it so the next append
		// starts on a record boundary.
		if err := os.Truncate(path, goodLen); err != nil {
			return nil, nil, fmt.Errorf("persist: truncating torn journal %s: %w", path, err)
		}
	}
	osf, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	return &Journal{f: wrap(osf), path: path, size: goodLen}, records, nil
}

// ReadJournal replays the journal at path without opening it for append
// and without mutating it: a torn final record is discarded (and counted
// under persist.journal.torn) but the file is left exactly as found, so
// report tools can inspect a journal another process may still own.
// Earlier corruption is a *CorruptError, as in OpenJournal. A missing
// file reads as an empty journal.
func ReadJournal(path string) ([][]byte, error) {
	records, _, _, err := readJournal(path)
	return records, err
}

// readJournal reads and validates the journal at path (a missing file is
// empty) and returns the record payloads plus the byte lengths of the
// good prefix and of the whole file. Only the final line may be bad
// (torn, counted under persist.journal.torn); a bad earlier line is a
// *CorruptError.
func readJournal(path string) (records [][]byte, goodLen, size int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, 0, 0, err
	}
	off := 0
	for line := 1; off < len(data); line++ {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			// No terminating newline: torn tail, tolerated.
			break
		}
		payload, perr := parseLine(data[off : off+nl])
		if perr != nil {
			if off+nl+1 < len(data) {
				return nil, 0, 0, &CorruptError{Path: path, Line: line, Reason: perr.Error()}
			}
			// Bad final line (e.g. the crash raced the newline out but not
			// the record body): tolerated like a missing newline.
			break
		}
		records = append(records, payload)
		off += nl + 1
	}
	if off < len(data) {
		Count("persist.journal.torn")
	}
	return records, int64(off), int64(len(data)), nil
}

// FrameRecord wraps rec (which must be a single line of valid JSON) in
// the journal's on-disk framing — {"crc":"xxxxxxxx","rec":<payload>} plus
// a trailing newline, with the payload bytes exactly as given. It is
// exported so collectors that buffer records in memory (internal/obs
// event logs) can emit journal-compatible files through WriteTo instead
// of paying a per-record fsync.
func FrameRecord(rec []byte) ([]byte, error) {
	if !json.Valid(rec) {
		return nil, fmt.Errorf("persist: journal record is not valid JSON")
	}
	if bytes.IndexByte(rec, '\n') >= 0 {
		return nil, fmt.Errorf("persist: journal record contains a newline")
	}
	frame := append([]byte(framePrefix+crcHex(rec)+frameMid), rec...)
	return append(frame, '}', '\n'), nil
}

// parseLine unframes one journal line and verifies its checksum.
func parseLine(raw []byte) ([]byte, error) {
	crcEnd := len(framePrefix) + frameCRCLen
	head := crcEnd + len(frameMid)
	if len(raw) <= head || string(raw[:len(framePrefix)]) != framePrefix ||
		string(raw[crcEnd:head]) != frameMid || raw[len(raw)-1] != '}' {
		return nil, fmt.Errorf("unparseable frame")
	}
	crc := string(raw[len(framePrefix):crcEnd])
	payload := raw[head : len(raw)-1]
	if !json.Valid(payload) {
		return nil, fmt.Errorf("unparseable frame: payload is not JSON")
	}
	if got := crcHex(payload); got != crc {
		return nil, fmt.Errorf("checksum mismatch: frame says %s, payload is %s", crc, got)
	}
	return payload, nil
}

// Append frames rec (which must be a single line of valid JSON), writes
// it, and fsyncs. When Append returns nil the record is durable; when it
// returns an error the record is not in the journal.
func (j *Journal) Append(rec []byte) error {
	if j.err != nil {
		return j.err
	}
	frame, err := FrameRecord(rec)
	if err != nil {
		return fmt.Errorf("%w (journal %s)", err, j.path)
	}
	if _, err := j.f.Write(frame); err != nil {
		return j.rollback(fmt.Errorf("persist: appending to journal %s: %w", j.path, err))
	}
	if err := j.f.Sync(); err != nil {
		return j.rollback(fmt.Errorf("persist: syncing journal %s: %w", j.path, err))
	}
	j.size += int64(len(frame))
	Count("persist.journal.append")
	return nil
}

// rollback cuts the file back to the last good record after a failed
// write or sync. A torn frame left in place would turn the next append's
// line into mid-file corruption, and an unsynced one could replay a
// record Append reported as failed. If the cut itself fails, the journal
// refuses every later append with the cause.
func (j *Journal) rollback(cause error) error {
	if err := os.Truncate(j.path, j.size); err != nil {
		j.err = fmt.Errorf("%w; rollback failed, journal refuses further appends: %v", cause, err)
		return j.err
	}
	Count("persist.journal.rollback")
	return cause
}

// Close closes the journal's file handle; later appends fail. Records
// already appended remain durable; the journal can be reopened with
// OpenJournal.
func (j *Journal) Close() error {
	if j.err == nil {
		j.err = fmt.Errorf("persist: journal %s is closed", j.path)
	}
	return j.f.Close()
}
