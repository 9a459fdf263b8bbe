package persist

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// A Log is a durable state machine over a Journal of JSON records of type
// R. Every record reaches memory through one reducer, apply: OpenLog folds
// the journaled records through it, and Apply appends and fsyncs a record
// before it calls apply. Append-before-effect thus holds by construction,
// and replay cannot drift from the live path because both are the same
// function. Effects the reducer does not own (telemetry, logging,
// notifications) belong in the caller, after Apply returns nil.
type Log[R any] struct {
	j     *Journal
	apply func(R) error
}

// OpenLog opens (creating if absent) the journal at path and folds every
// record through apply, in append order. The journal's torn-tail and
// *CorruptError rules apply unchanged; a CRC-valid record that does not
// decode as an R is a *CorruptError too (a writer bug, not a torn tail).
// An error from apply aborts the open.
func OpenLog[R any](path string, apply func(R) error) (*Log[R], error) {
	j, raws, err := OpenJournal(path)
	if err != nil {
		return nil, err
	}
	for i, raw := range raws {
		var rec R
		if err := json.Unmarshal(raw, &rec); err != nil {
			_ = j.Close()
			return nil, &CorruptError{Path: path, Line: i + 1, Reason: "record does not decode: " + err.Error()}
		}
		if err := apply(rec); err != nil {
			_ = j.Close()
			return nil, fmt.Errorf("persist: replaying %s line %d: %w", path, i+1, err)
		}
	}
	return &Log[R]{j: j, apply: apply}, nil
}

// Apply journals rec durably, then applies it through the reducer. If the
// append fails the reducer does not run: the transition did not happen.
// A reducer error after a durable append is returned too, and the record
// replays at the next open.
func (l *Log[R]) Apply(rec R) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("persist: encoding record for %s: %w", l.j.path, err)
	}
	if err := l.j.Append(b); err != nil {
		return err
	}
	return l.apply(rec)
}

// Compact atomically replaces the journal with recs, a snapshot the caller
// derived from its current state, and reopens it for appends. The reducer
// does not run: memory already holds what recs describe. On a failed
// rewrite the previous journal stays intact and open.
func (l *Log[R]) Compact(recs []R) error {
	path := l.j.path
	var buf bytes.Buffer
	for _, rec := range recs {
		b, err := json.Marshal(rec)
		if err == nil {
			b, err = FrameRecord(b)
		}
		if err != nil {
			return fmt.Errorf("persist: compacting %s: %w", path, err)
		}
		buf.Write(b)
	}
	if err := l.j.Close(); err != nil {
		return fmt.Errorf("persist: compacting %s: %w", path, err)
	}
	writeErr := WriteFileAtomic(path, buf.Bytes(), 0o644)
	j, _, err := OpenJournal(path)
	if err != nil {
		// l.j stays closed, so later appends fail instead of landing in a
		// file the journal no longer describes.
		return fmt.Errorf("persist: reopening %s after compaction: %w", path, err)
	}
	l.j = j
	if writeErr != nil {
		return fmt.Errorf("persist: compacting %s: %w", path, writeErr)
	}
	return nil
}

// Close closes the journal; later Apply calls fail.
func (l *Log[R]) Close() error { return l.j.Close() }
