package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

// FuzzStoreLoad writes arbitrary bytes as a cache entry and reads them
// back. Get must miss or return exactly the payload an envelope decode
// finds in them, and Load must miss or return exactly that payload
// decoded; neither may panic. The typed row is a slice, which a
// repeated payload key replaces rather than merges, so the comparison
// with decoding the raw payload is exact. The seeds are a real Put
// entry and every truncation of it.
func FuzzStoreLoad(f *testing.F) {
	s, err := Open(f.TempDir())
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
	f.Add([]byte(`{"format":"` + Format + `","key":"` + key + `","payload":null}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(s.path(key), data, 0o644); err != nil {
			t.Fatal(err)
		}
		var env envelope
		want := json.Unmarshal(data, &env) == nil && env.Format == Format && env.Key == key &&
			len(env.Payload) > 0 && string(env.Payload) != "null"

		raw, ok := s.Get(key)
		if ok != want || (ok && string(raw) != string(env.Payload)) {
			t.Fatalf("Get = %q, %v; envelope decode gives %q, hit %v", raw, ok, env.Payload, want)
		}
		row, ok := Load[[]float64](s, key)
		if !ok {
			return
		}
		var decoded []float64
		if !want || json.Unmarshal(env.Payload, &decoded) != nil || !reflect.DeepEqual(row, decoded) {
			t.Fatalf("Load = %v from an entry whose payload %q decodes to %v", row, env.Payload, decoded)
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
