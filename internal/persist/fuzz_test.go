package persist_test

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"graphio/internal/persist"
)

// FuzzJournalReplay feeds arbitrary bytes to the journal readers. Neither
// may panic; each either reports *CorruptError or returns records whose
// re-framing is a prefix of the input. A journal OpenJournal accepted
// must take one more append and replay it after a reopen.
func FuzzJournalReplay(f *testing.F) {
	var good []byte
	for _, rec := range []string{`{"seq":1}`, `{"kind":"accept","id":"j000001"}`, `"s"`} {
		frame, err := persist.FrameRecord([]byte(rec))
		if err != nil {
			f.Fatal(err)
		}
		good = append(good, frame...)
	}
	f.Add([]byte{})
	f.Add(good)
	f.Add(good[:len(good)-5])
	f.Add(append(append([]byte{}, good...), "garbage\n"...))
	f.Add(bytes.Replace(good, []byte(`"seq":1`), []byte(`"seq":7`), 1))
	f.Add([]byte(`{"crc":"00000000","rec":}` + "\n"))
	// A payload that is valid but not compact JSON, framed by hand: it must
	// replay, and re-frame, byte for byte.
	spaced := `{"a": 1, "s": "<&>"}`
	f.Add([]byte(fmt.Sprintf(`{"crc":"%08x","rec":%s}`+"\n", crc32.Checksum([]byte(spaced), crc32.MakeTable(crc32.Castagnoli)), spaced)))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "j.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, err := persist.ReadJournal(path)
		checkReplay(t, data, recs, err)
		after, rerr := os.ReadFile(path)
		if rerr != nil || !bytes.Equal(after, data) {
			t.Fatal("ReadJournal modified the file")
		}

		j, recs2, err := persist.OpenJournal(path)
		checkReplay(t, data, recs2, err)
		if err != nil {
			return
		}
		if len(recs2) != len(recs) {
			t.Fatalf("OpenJournal replayed %d records, ReadJournal %d", len(recs2), len(recs))
		}
		if err := j.Append([]byte(`{"fuzz":true}`)); err != nil {
			t.Fatal(err)
		}
		j.Close()
		j, recs3, err := persist.OpenJournal(path)
		if err != nil {
			t.Fatalf("reopen after append: %v", err)
		}
		j.Close()
		if len(recs3) != len(recs2)+1 || string(recs3[len(recs2)]) != `{"fuzz":true}` {
			t.Fatalf("reopen replayed %d records, want %d ending in the append", len(recs3), len(recs2)+1)
		}
	})
}

func checkReplay(t *testing.T, data []byte, recs [][]byte, err error) {
	t.Helper()
	if err != nil {
		var ce *persist.CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("replay error %v is not a *CorruptError", err)
		}
		return
	}
	var reframed []byte
	for _, r := range recs {
		frame, ferr := persist.FrameRecord(r)
		if ferr != nil {
			t.Fatalf("replayed record %q does not re-frame: %v", r, ferr)
		}
		reframed = append(reframed, frame...)
	}
	if !bytes.HasPrefix(data, reframed) {
		t.Fatalf("re-framed records are not a prefix of the input")
	}
}
