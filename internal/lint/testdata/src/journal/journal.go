// Package journal is the fixture stand-in for the persist package: the
// fixture harness builds its Programs with persist path "fix/journal", so
// calls into this package classify as persist writes and Journal.Append
// is the WAL append the wal-order rule keys on.
package journal

// Journal is the fixture WAL.
type Journal struct {
	n int
}

// Append journals one record.
func (j *Journal) Append(rec []byte) error {
	j.n++
	return nil
}

// Close closes the journal.
func (j *Journal) Close() error { return nil }

// Log is the fixture stand-in for persist.Log: a generic durable state
// machine whose Apply appends before it runs the reducer.
type Log[R any] struct {
	j     *Journal
	apply func(R) error
}

// Apply journals rec, then applies it.
func (l *Log[R]) Apply(rec R) error {
	if err := l.j.Append(nil); err != nil {
		return err
	}
	return l.apply(rec)
}
