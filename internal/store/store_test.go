package store

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestKeyOfIsStableAndSensitive(t *testing.T) {
	a := KeyOf([]byte(`{"kind":"mesh","rate":0.1}`))
	if b := KeyOf([]byte(`{"kind":"mesh","rate":0.1}`)); b != a {
		t.Fatal("identical canonical bytes produced different keys")
	}
	if len(a) != 64 || !validKey(a) {
		t.Fatalf("key %q is not lowercase hex SHA-256", a)
	}
	if c := KeyOf([]byte(`{"kind":"mesh","rate":0.2}`)); c == a {
		t.Fatal("different canonical bytes collided")
	}
}

// entries counts the store's entry files.
func entries(s *Store) int {
	n := 0
	filepath.WalkDir(filepath.Join(s.dir, "v1"), func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(path) == ".json" {
			n++
		}
		return nil
	})
	return n
}

func TestStoreRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := KeyOf([]byte("cell-one"))
	if _, ok := s.Get(key); ok {
		t.Fatal("hit on an empty store")
	}
	row := json.RawMessage(`{"mean_latency":12.5,"p99":40}`)
	if err := s.Put(key, row); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok {
		t.Fatal("miss immediately after Put")
	}
	if string(got) != string(row) {
		t.Fatalf("payload %s round-tripped as %s", row, got)
	}
	// Idempotent overwrite.
	if err := s.Put(key, row); err != nil {
		t.Fatal(err)
	}
	if entries(s) != 1 {
		t.Fatalf("entries = %d after one key", entries(s))
	}
	// Reopening the same directory sees the entry.
	s2, err := Open(s.dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get(key); !ok {
		t.Fatal("entry lost across reopen")
	}
}

// TestCorruptEntriesReadAsMisses pins the safety contract: any damaged
// entry — truncated, non-JSON, wrong format, wrong key echo — is a
// miss, never served data.
func TestCorruptEntriesReadAsMisses(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := KeyOf([]byte("victim"))
	if err := s.Put(key, json.RawMessage(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string]string{
		"truncated":    `{"format":"tanoq-cache/v1","key":"` + key + `","pa`,
		"not-json":     "garbage\n",
		"wrong-format": `{"format":"tanoq-cache/v999","key":"` + key + `","payload":{"v":1}}`,
		"wrong-key":    `{"format":"tanoq-cache/v1","key":"` + KeyOf([]byte("other")) + `","payload":{"v":1}}`,
		"empty":        "",
	} {
		if err := os.WriteFile(s.path(key), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Get(key); ok {
			t.Errorf("%s entry served as a hit", name)
		}
	}
	if _, ok := s.Get("zz"); ok {
		t.Error("malformed key served as a hit")
	}
	if err := s.Put(key, json.RawMessage(`not json`)); err == nil {
		t.Error("Put accepted an invalid-JSON payload")
	}
	if err := s.Put("zz", json.RawMessage(`{"v":1}`)); err == nil {
		t.Error("Put accepted a key KeyOf cannot return")
	}
}

// TestLoadMissRules is Load's contract, entry by entry: only the exact
// bytes Put writes — the envelope's head with the right format and key
// echo, a non-null payload the decoder accepts, the closing brace and a
// newline — are a hit. A payload-first entry holds the same data as a
// whole one and encoding/json reads it, yet Put never writes it, so it
// is a miss like any other byte that differs.
func TestLoadMissRules(t *testing.T) {
	type row struct {
		V int `json:"v"`
	}
	decode := func(p []byte) (row, bool) {
		var r row
		return r, json.Unmarshal(p, &r) == nil
	}
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := KeyOf([]byte("load"))
	if err := os.MkdirAll(filepath.Dir(s.path(key)), 0o755); err != nil {
		t.Fatal(err)
	}
	head := `{"format":"` + Format + `","key":"` + key + `"`
	for _, tc := range []struct {
		name, data string
		want       row
		hit        bool
	}{
		{"whole", head + `,"payload":{"v":7}}` + "\n", row{V: 7}, true},
		{"no-newline", head + `,"payload":{"v":7}}`, row{}, false},
		{"payload-first", `{"payload":{"v":8},"key":"` + key + `","format":"` + Format + `"}` + "\n", row{}, false},
		{"padded", head + `, "payload": {"v":7}}` + "\n", row{}, false},
		{"crlf", head + `,"payload":{"v":7}}` + "\r\n", row{}, false},
		{"trailing-garbage", head + `,"payload":{"v":7}}` + "\n{}", row{}, false},
		{"wrong-format", `{"format":"tanoq-cache/v0","key":"` + key + `","payload":{"v":7}}` + "\n", row{}, false},
		{"key-mismatch", `{"format":"` + Format + `","key":"` + KeyOf([]byte("other")) + `","payload":{"v":7}}` + "\n", row{}, false},
		{"truncated", head + `,"payload":{"v":7`, row{}, false},
		{"absent-payload", head + "}\n", row{}, false},
		{"empty-payload", head + `,"payload":}` + "\n", row{}, false},
		{"null-payload", head + `,"payload":null}` + "\n", row{}, false},
	} {
		if err := os.WriteFile(s.path(key), []byte(tc.data), 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok := Load(s, key, decode)
		if ok != tc.hit || got != tc.want {
			t.Errorf("%s: Load = %+v, %v; want %+v, %v", tc.name, got, ok, tc.want, tc.hit)
		}
		// Get applies the same rules to the raw payload.
		if _, ok := s.Get(key); ok != tc.hit {
			t.Errorf("%s: Get hit = %v, want %v", tc.name, ok, tc.hit)
		}
	}
	// A payload the decoder rejects is a miss for Load, though Get, which
	// holds it only to Put's bytes, serves it.
	if err := os.WriteFile(s.path(key), []byte(head+`,"payload":{"v":"seven"}}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, ok := Load(s, key, decode); ok {
		t.Errorf("ill-typed payload loaded as %+v", got)
	}
	if _, ok := s.Get(key); !ok {
		t.Error("Get missed a well-formed entry")
	}
	// Get serves only a payload Put stores as it is: compact, with HTML
	// characters escaped.
	for _, p := range []string{`{"v": 7}`, `{"v":"<"}`} {
		if err := os.WriteFile(s.path(key), []byte(head+`,"payload":`+p+"}\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if got, ok := s.Get(key); ok {
			t.Errorf("Get served %s, which Put would not store as it is", got)
		}
	}
	if _, ok := Load(s, KeyOf([]byte("never stored")), decode); ok {
		t.Error("absent entry loaded")
	}

	// Get round-trips a Put payload byte for byte, and Load decodes the
	// same entry.
	payload := json.RawMessage(`{"v":3,"extra":[1,2]}`)
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(key); !ok || string(got) != string(payload) {
		t.Errorf("Get after Put = %s, %v; want %s", got, ok, payload)
	}
	if got, ok := Load(s, key, decode); !ok || got.V != 3 {
		t.Errorf("Load after Put = %+v, %v", got, ok)
	}
	// A null payload is valid JSON, so Put stores it — and it reads back
	// as a miss, never as a zero row.
	if err := s.Put(key, json.RawMessage(`null`)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); ok {
		t.Error("null payload served by Get")
	}
	if _, ok := Load(s, key, decode); ok {
		t.Error("null payload served by Load")
	}
}

// TestEntryGolden pins the entry format across builds:
// testdata/entry.golden is a whole entry file as an earlier build's Put
// wrote it (through a second json.Marshal of the envelope), holding the
// scenario package's testdata/payload.golden under the key
// KeyOf("payload.golden"). This build serves it, and Put writes the same
// bytes for its payload.
func TestEntryGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/entry.golden")
	if err != nil {
		t.Fatal(err)
	}
	payload, err := os.ReadFile("../scenario/testdata/payload.golden")
	if err != nil {
		t.Fatal(err)
	}
	key := KeyOf([]byte("payload.golden"))
	old, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(old.path(key)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(old.path(key), golden, 0o644); err != nil {
		t.Fatal(err)
	}
	got, ok := old.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get on the golden entry = %s, %v; want %s", got, ok, payload)
	}
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	if again, err := os.ReadFile(s.path(key)); err != nil || !bytes.Equal(again, golden) {
		t.Fatalf("Put wrote\n%s\nwant\n%s (%v)", again, golden, err)
	}
}

func TestStoreConcurrentPutGet(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				key := KeyOf([]byte{byte(i)}) // all goroutines contend on the same 20 keys
				if err := s.Put(key, json.RawMessage(`{"i":`+string(rune('0'+i%10))+`}`)); err != nil {
					t.Error(err)
					return
				}
				if _, ok := s.Get(key); !ok {
					t.Errorf("goroutine %d: miss after put", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := entries(s); got != 20 {
		t.Fatalf("entries = %d, want 20", got)
	}
}

func TestJournalRecordsAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	k1, k2 := KeyOf([]byte("a")), KeyOf([]byte("b"))
	if j.Done(k1) || j.Len() != 0 {
		t.Fatal("fresh journal is not empty")
	}
	if err := j.Record(k1); err != nil {
		t.Fatal(err)
	}
	if err := j.Record(k1); err != nil { // idempotent
		t.Fatal(err)
	}
	if !j.Done(k1) || j.Done(k2) || j.Len() != 1 {
		t.Fatalf("journal state wrong after one record: len=%d", j.Len())
	}
	if err := j.Record("short"); err == nil {
		t.Error("Record accepted an invalid key")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if !j2.Done(k1) || j2.Len() != 1 {
		t.Fatal("recorded key lost across reopen")
	}
	if err := j2.Record(k2); err != nil {
		t.Fatal(err)
	}
	if !j2.Done(k2) || j2.Len() != 2 {
		t.Fatal("second record not visible")
	}
}

// TestJournalIgnoresTornLine pins crash tolerance: a torn (partial)
// final line is skipped on read instead of poisoning the done-set.
func TestJournalIgnoresTornLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	k := KeyOf([]byte("whole"))
	if err := os.WriteFile(path, []byte(k+"\nabc123"), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if !j.Done(k) {
		t.Error("whole line not read")
	}
	if j.Len() != 1 {
		t.Errorf("torn line counted: len=%d", j.Len())
	}
}

// TestJournalDedupAcrossReopen pins that a key recorded by an earlier
// process is not appended again: opening reads nothing, but the first
// Record loads what is already there.
func TestJournalDedupAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	k := KeyOf([]byte("once"))
	for run := 0; run < 3; run++ {
		j, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Record(k); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != k+"\n" {
		t.Fatalf("journal after three runs recording one key:\n%q", data)
	}
}

// TestJournalRecordAfterTornLine pins that a torn final line stays
// ignored once the journal grows past it: the next key starts a line of
// its own and survives a reopen.
func TestJournalRecordAfterTornLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	k1, k2 := KeyOf([]byte("whole")), KeyOf([]byte("after"))
	if err := os.WriteFile(path, []byte(k1+"\n"+k2[:10]), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record(k2); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j, err = OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if !j.Done(k1) || !j.Done(k2) || j.Len() != 2 {
		t.Fatalf("after reopen: done(k1)=%v done(k2)=%v len=%d, want true true 2", j.Done(k1), j.Done(k2), j.Len())
	}
}

func TestJournalConcurrentRecord(t *testing.T) {
	j, err := OpenJournal(filepath.Join(t.TempDir(), "journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				if err := j.Record(KeyOf([]byte{byte(i)})); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if j.Len() != 16 {
		t.Fatalf("Len() = %d, want 16", j.Len())
	}
}
