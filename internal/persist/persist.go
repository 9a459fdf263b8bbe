// Package persist provides crash-safe file primitives for every artifact
// the module writes: CSV tables, reports, telemetry dumps, profiles, and
// the sweep manifest. The invariant throughout is that a reader never sees
// a torn file — an artifact either has its complete previous content or
// its complete new content, no matter where a crash, OOM kill, or SIGKILL
// lands.
//
// Four primitives:
//
//   - WriteFileAtomic writes a byte slice via a temp file in the target
//     directory, fsyncs it, renames it over the destination, and fsyncs
//     the directory — the classic atomic-replace sequence.
//   - Writer is the streaming version: an io.WriteCloser whose output
//     becomes visible only on Commit; Close before Commit aborts and
//     removes the temp file, so error paths cannot leak partial output.
//   - Journal is an append-only JSONL log with a CRC32-C checksum per
//     record. Replay tolerates a truncated or torn final record (the
//     signature of a crash mid-append) by discarding it; corruption
//     anywhere earlier is reported as a *CorruptError. A failed append is
//     rolled back, so it never leaves torn bytes ahead of a later record.
//   - Log[R] is a durable state machine on a Journal: one reducer folds
//     the replayed records at open, and Log.Apply appends and fsyncs each
//     new record before the same reducer applies it. Append-before-effect
//     holds by construction, and replay cannot drift from the live path.
//     The graphiod job WAL, the dist coordinator WAL and the sweep
//     manifest all run on it.
//
// AcquireLock adds single-writer mutual exclusion for directories that
// hold journals (a sweep's outDir): the lock file records the owner PID,
// and a lock left behind by a dead process is stolen rather than wedging
// every restart after a crash.
//
// The package is stdlib-only and imports nothing else from this module,
// so anything (including internal/obs) can build on it. Metrics are
// reported through the Count hook, which internal/obs points at its
// counter registry.
package persist

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"syscall"
)

// Count receives one call per notable event ("persist.commit",
// "persist.abort", "persist.journal.append", "persist.journal.torn",
// "persist.journal.rollback", "persist.stale_temp"). It is a hook rather
// than a direct dependency so the package stays import-free; internal/obs
// wires it to its counter registry at init. The default is a no-op.
var Count = func(name string) {}

// File is the subset of *os.File the writer and journal need. Crash
// consistency is tested by substituting failing implementations (see
// internal/faultinject.File) through WrapFile.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// WrapFile, when non-nil, wraps every temp or journal file the package
// opens. It exists so fault-injection tests can make writes, syncs, and
// closes fail deterministically; production code leaves it nil.
var WrapFile func(File) File

// Temp files follow this CreateTemp pattern so RemoveStaleTemps can
// recognize and sweep the debris a SIGKILL between create and rename
// leaves behind.
const (
	tmpPrefix = ".persist-"
	tmpSuffix = ".tmp"
)

func wrap(f File) File {
	if WrapFile != nil {
		return WrapFile(f)
	}
	return f
}

// WriteFileAtomic writes data to path with the atomic-replace sequence:
// temp file in path's directory, write, fsync, rename over path, fsync
// the directory. On any failure the temp file is removed and path keeps
// its previous content (or stays absent).
func WriteFileAtomic(path string, data []byte, perm fs.FileMode) error {
	w, err := NewWriterPerm(path, perm)
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		_ = w.Close()
		return err
	}
	return w.Commit()
}

// WriteTo streams write's output to path atomically: the callback writes
// into a temp file, and the result replaces path only if the callback and
// the commit sequence both succeed.
func WriteTo(path string, write func(io.Writer) error) error {
	w, err := NewWriter(path)
	if err != nil {
		return err
	}
	if err := write(w); err != nil {
		_ = w.Close()
		return err
	}
	return w.Commit()
}

// RemoveStaleTemps deletes temp files a previous crashed commit left in
// dir (created but never renamed) and returns how many were removed. Call
// it when taking ownership of an artifact directory — after AcquireLock,
// before writing — so a killed run's debris does not accumulate.
func RemoveStaleTemps(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	removed := 0
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, tmpPrefix) || !strings.HasSuffix(name, tmpSuffix) {
			continue
		}
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			return removed, err
		}
		removed++
		Count("persist.stale_temp")
	}
	return removed, nil
}

// syncDir fsyncs a directory so a just-committed rename survives power
// loss. Filesystems that cannot sync directories make this a no-op rather
// than an error: the rename itself already happened.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil && isSyncUnsupported(err) {
		return nil
	}
	return err
}

// isSyncUnsupported reports whether err means the filesystem rejects
// directory fsync (EINVAL/ENOTSUP on some network and FUSE mounts).
func isSyncUnsupported(err error) bool {
	return errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP)
}

// tempIn creates a temp file next to path (same directory, so the final
// rename never crosses a filesystem boundary).
func tempIn(path string) (*os.File, error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, tmpPrefix+"*"+tmpSuffix)
	if err != nil {
		return nil, fmt.Errorf("persist: creating temp for %s: %w", path, err)
	}
	return f, nil
}
