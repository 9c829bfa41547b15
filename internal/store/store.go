// Package store is a content-addressed, on-disk result cache for sweep
// cells, plus the append-only journal that makes sweeps resumable.
//
// The cache maps a canonical description of a simulation cell — produced
// by the caller, typically internal/scenario's canonical cell encoding
// including the model version — to the cell's full result row.
// Keys are SHA-256 over the canonical bytes, so any semantic change to a
// cell (topology, QoS mode, rate, seed, faults, model version, ...)
// addresses a different entry, while re-describing the same cell always
// lands on the same one. Because the simulator is deterministic and
// bit-identical across worker counts, a cached row is indistinguishable
// from a re-executed one; a false miss merely costs a re-run, and a
// false hit cannot happen short of a hash collision.
//
// Layout on disk, under the cache directory (default .tanoq-cache/):
//
//	v1/<key[:2]>/<key>.json   one entry per cell, atomically written
//	journal                   append-only log of completed keys (resume)
//
// Every entry is a JSON envelope {format, key, payload}: format names
// the payload schema version, key echoes the content address so an
// entry misfiled by hand is detected, and payload is the caller's row,
// stored verbatim. Entries are written via temp file + rename in the
// same directory, so a crash mid-write leaves either the old entry or
// none — a corrupt or truncated entry reads as a miss, never as data.
//
// Load reads an entry straight into the caller's row type: one decode
// validates the file, checks the format and key echo, and fills the
// row, so a hit costs one read and one json.Unmarshal. An absent or
// null payload is a miss, like any other damage. Get is Load into a
// json.RawMessage.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"syscall"
)

// Format is the on-disk envelope schema version. Bump it when the
// envelope itself (not the payload) changes shape; old entries then
// read as misses.
const Format = "tanoq-cache/v1"

// DefaultDir is the conventional cache directory name, created in the
// working directory when the caller does not choose another location.
const DefaultDir = ".tanoq-cache"

// KeyOf content-addresses a canonical cell description: the lowercase
// hex SHA-256 of the bytes. Callers are responsible for canonical
// encoding (stable field order, no incidental fields); KeyOf itself is
// deliberately oblivious to structure.
func KeyOf(canonical []byte) string {
	sum := sha256.Sum256(canonical)
	return hex.EncodeToString(sum[:])
}

// Store is an open cache directory. Methods are safe for concurrent use
// by multiple goroutines; concurrent processes sharing a directory are
// also safe because entries are immutable once renamed into place and
// two writers of the same key write identical bytes.
type Store struct {
	dir string
}

// entry is the on-disk entry wrapper, with the payload in form P.
type entry[P any] struct {
	Format  string `json:"format"`
	Key     string `json:"key"`
	Payload P      `json:"payload"`
}

// envelope is the entry as Put writes it: the payload stored verbatim.
type envelope = entry[json.RawMessage]

// Open opens (creating if needed) a cache rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		dir = DefaultDir
	}
	if err := os.MkdirAll(filepath.Join(dir, "v1"), 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	return &Store{dir: dir}, nil
}

// path maps a key to its entry file, sharded by the first key byte so
// no single directory accumulates every entry.
func (s *Store) path(key string) string {
	return filepath.Join(s.dir, "v1", key[:2], key+".json")
}

// Load looks a key up and decodes its payload into a T. The second
// result is false on a miss — absent, unreadable, corrupt, wrong
// format, mislabeled, payload-less or null-payload entries, and
// payloads that do not decode into a T, all count as misses, because a
// miss is always safe (the cell simply re-runs) while trusting a
// damaged entry never is. Safe for concurrent use.
func Load[T any](s *Store, key string) (T, bool) {
	var zero T
	if len(key) < 2 {
		return zero, false
	}
	buf, ok := readEntry(s.path(key))
	defer readBufs.Put(buf)
	if !ok {
		return zero, false
	}
	// A null or absent payload leaves the pointer nil. Decoding copies
	// everything it keeps, so the buffer can go back to the pool.
	var e entry[*T]
	if json.Unmarshal(*buf, &e) != nil || e.Format != Format || e.Key != key || e.Payload == nil {
		return zero, false
	}
	return *e.Payload, true
}

// readBufs recycles entry read buffers across Loads.
var readBufs = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// readEntry reads a whole entry file into a buffer from readBufs, which
// the caller returns to the pool. It goes straight to open, read and
// close: os.ReadFile also stats the file and registers it with the
// runtime poller and a finalizer (on Linux, four fcntl calls and a
// failed epoll_ctl), which costs more than decoding the entry. Any
// error, an interrupted call included, reads as a miss.
func readEntry(path string) (*[]byte, bool) {
	buf := readBufs.Get().(*[]byte)
	*buf = (*buf)[:0]
	fd, err := syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	if err != nil {
		return buf, false
	}
	defer syscall.Close(fd)
	for {
		if len(*buf) == cap(*buf) {
			*buf = append(*buf, 0)[:len(*buf)]
		}
		n, err := syscall.Read(fd, (*buf)[len(*buf):cap(*buf)])
		if err != nil {
			return buf, false
		}
		if n == 0 {
			return buf, true
		}
		*buf = (*buf)[:len(*buf)+n]
	}
}

// Get looks a key up and returns its payload verbatim; it is Load into
// a json.RawMessage, with the same miss rules.
func (s *Store) Get(key string) (json.RawMessage, bool) {
	return Load[json.RawMessage](s, key)
}

// Put stores payload under key, atomically: the envelope is written to
// a temp file in the entry's directory and renamed into place, so
// readers (including other processes) only ever observe complete
// entries. Overwriting an existing entry is allowed and idempotent.
func (s *Store) Put(key string, payload json.RawMessage) error {
	if len(key) < 2 {
		return fmt.Errorf("store: invalid key %q", key)
	}
	if !json.Valid(payload) {
		return fmt.Errorf("store: payload for %s is not valid JSON", key)
	}
	data, err := json.Marshal(envelope{Format: Format, Key: key, Payload: payload})
	if err != nil {
		return fmt.Errorf("store: encode %s: %w", key, err)
	}
	path := s.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+key[:8]+".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	_, werr := tmp.Write(append(data, '\n'))
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: write %s: %w", key, errors.Join(werr, cerr))
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: commit %s: %w", key, err)
	}
	return nil
}
