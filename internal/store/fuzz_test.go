package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// FuzzStoreLoad writes arbitrary bytes as a cache entry and reads them
// back. Nothing may panic. Get hits only on the exact bytes Put writes
// for the payload it returns, and encoding/json's decode of those bytes
// agrees on the format, the key and the payload; Load hands its decoder
// that same payload. An entry that is Put's output for a non-null
// payload always hits. The seeds are a real Put entry, every truncation
// of it, and a null payload.
func FuzzStoreLoad(f *testing.F) {
	s, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	ref, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	key := KeyOf([]byte("fuzz"))
	if err := s.Put(key, json.RawMessage(`[1.5,-2,3e3]`)); err != nil {
		f.Fatal(err)
	}
	entry, err := os.ReadFile(s.path(key))
	if err != nil {
		f.Fatal(err)
	}
	for n := 0; n <= len(entry); n++ {
		f.Add(entry[:n])
	}
	f.Add([]byte(`{"format":"` + Format + `","key":"` + key + `","payload":null}` + "\n"))
	// putBytes is the file Put writes for payload, or nil if Put refuses it.
	putBytes := func(t *testing.T, payload []byte) []byte {
		if ref.Put(key, payload) != nil {
			return nil
		}
		b, err := os.ReadFile(ref.path(key))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(s.path(key), data, 0o644); err != nil {
			t.Fatal(err)
		}
		var env struct {
			Format  string          `json:"format"`
			Key     string          `json:"key"`
			Payload json.RawMessage `json:"payload"`
		}
		decoded := json.Unmarshal(data, &env) == nil && env.Format == Format && env.Key == key

		raw, ok := s.Get(key)
		if ok {
			if put := putBytes(t, raw); !bytes.Equal(put, data) {
				t.Fatalf("Get served %q from %q, but Put writes %q for it", raw, data, put)
			}
			if !decoded || !bytes.Equal(env.Payload, raw) {
				t.Fatalf("Get served %q from %q; encoding/json reads %+v", raw, data, env)
			}
		} else if decoded && len(env.Payload) > 0 && string(env.Payload) != "null" && bytes.Equal(putBytes(t, env.Payload), data) {
			t.Fatalf("Get missed %q, which is what Put writes", data)
		}
		var handed []byte
		_, lok := Load(s, key, func(p []byte) (struct{}, bool) { handed = bytes.Clone(p); return struct{}{}, true })
		if ok && (!lok || !bytes.Equal(handed, raw)) {
			t.Fatalf("Load handed %q, %v from the entry Get serves as %q", handed, lok, raw)
		}
	})
}

// FuzzJournalLoad writes arbitrary bytes as a journal file and opens it.
// Len and Done must report exactly the distinct lines that are a whole
// lowercase-hex SHA-256 key (a trailing CR forgiven), nothing may panic,
// and a Record followed by a reopen must keep every old key and add the
// new one. The seeds are a real three-key journal and every truncation
// of it.
func FuzzJournalLoad(f *testing.F) {
	path := filepath.Join(f.TempDir(), "journal")
	j, err := OpenJournal(path)
	if err != nil {
		f.Fatal(err)
	}
	for _, k := range []string{"a", "b", "c"} {
		if err := j.Record(KeyOf([]byte(k))); err != nil {
			f.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		f.Fatal(err)
	}
	journal, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	for n := 0; n <= len(journal); n++ {
		f.Add(journal[:n])
	}
	isKey := regexp.MustCompile(`^[0-9a-f]{64}\r?$`)
	fresh := KeyOf([]byte("fresh"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		want := map[string]bool{}
		for _, line := range bytes.Split(data, []byte{'\n'}) {
			if isKey.Match(line) {
				want[string(bytes.TrimSuffix(line, []byte{'\r'}))] = true
			}
		}
		check := func(j *Journal, extra string) {
			t.Helper()
			if extra != "" {
				want[extra] = true
			}
			if j.Len() != len(want) {
				t.Fatalf("Len = %d, the file holds %d distinct keys", j.Len(), len(want))
			}
			for k := range want {
				if !j.Done(k) {
					t.Fatalf("key %s on a line of its own is not Done", k)
				}
			}
		}
		j, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		check(j, "")
		if j.Done(fresh) != want[fresh] {
			t.Fatalf("Done(%s) = %v for a key the file does not hold", fresh, j.Done(fresh))
		}
		if err := j.Record(fresh); err != nil {
			t.Fatal(err)
		}
		j.Close()
		if j, err = OpenJournal(path); err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		check(j, fresh)
	})
}
