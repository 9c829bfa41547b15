package store

import (
	"encoding/json"
	"os"
	"reflect"
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
