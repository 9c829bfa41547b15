// Package store is a content-addressed, on-disk result cache for sweep
// cells, plus a journal of the keys each sweep completed.
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
//	journal                   append-only log of completed keys (read by no sweep)
//
// Every entry is a JSON envelope {format, key, payload}: format names
// the payload schema version, key echoes the content address so an
// entry misfiled by hand is detected, and payload is the caller's row,
// stored compacted. Entries are written via temp file + rename in the
// same directory, so a crash mid-write leaves either the old entry or
// none.
//
// An entry is a hit only if its bytes are exactly what Put writes: the
// envelope's fixed head, the key, the payload, the closing brace and a
// newline. Load checks the head and tail by prefix and suffix and hands
// the payload bytes to the caller's decoder, which holds the payload to
// the same rule, so a hit costs one read and no reflection. Anything
// else — a truncated, padded, reordered or hand-edited entry, an absent
// or null payload — is a miss, and the cell re-runs and overwrites it.
package store

import (
	"bytes"
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

// validKey reports whether s is a key KeyOf could return (lowercase hex
// SHA-256): the only keys Put stores and Load looks up, and the only
// journal lines read as keys.
func validKey(s string) bool {
	if len(s) != 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Store is an open cache directory. Methods are safe for concurrent use
// by multiple goroutines; concurrent processes sharing a directory are
// also safe because entries are immutable once renamed into place and
// two writers of the same key write identical bytes.
type Store struct {
	dir string
}

// The envelope Put writes around a payload, as json.Marshal lays out
// {format, key, payload}: head, the key, mid, the payload, tail.
const (
	head = `{"format":"` + Format + `","key":"`
	mid  = `","payload":`
	tail = "}\n"
)

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

// Load looks a key up and hands its payload bytes to decode. The second
// result is false on a miss — an absent or unreadable entry, one whose
// bytes are not Put's envelope around a payload for this key, a null
// payload, or one decode rejects — because a miss is always safe (the
// cell simply re-runs) while trusting a damaged entry never is. decode
// must not keep the bytes it is handed. Safe for concurrent use.
func Load[T any](s *Store, key string, decode func(payload []byte) (T, bool)) (T, bool) {
	var zero T
	if !validKey(key) {
		return zero, false
	}
	buf, ok := readEntry(s.path(key))
	defer readBufs.Put(buf)
	if !ok {
		return zero, false
	}
	// The entry must be head, key, mid, a payload and tail, in that order.
	b := *buf
	n := len(head) + len(key) + len(mid)
	if len(b) <= n+len(tail) || string(b[:len(head)]) != head || string(b[len(head):len(head)+len(key)]) != key ||
		string(b[len(head)+len(key):n]) != mid || string(b[len(b)-len(tail):]) != tail {
		return zero, false
	}
	payload := b[n : len(b)-len(tail)]
	if string(payload) == "null" {
		return zero, false
	}
	return decode(payload)
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

// Get looks a key up and returns its payload; it is Load with a decoder
// that copies a payload out only if Put would store it as it is.
func (s *Store) Get(key string) (json.RawMessage, bool) {
	return Load(s, key, func(payload []byte) (json.RawMessage, bool) {
		stored, err := compact(payload)
		if err != nil || !bytes.Equal(stored, payload) {
			return nil, false
		}
		return stored, true
	})
}

// compact returns payload as json.Marshal embeds a json.RawMessage:
// without insignificant space, and with <, >, &, U+2028 and U+2029
// escaped. It fails on a payload that is not one JSON value.
func compact(payload []byte) ([]byte, error) {
	var c, e bytes.Buffer
	if err := json.Compact(&c, payload); err != nil {
		return nil, err
	}
	json.HTMLEscape(&e, c.Bytes())
	return e.Bytes(), nil
}

// Put stores payload under key, atomically: the envelope is written to
// a temp file in the entry's directory and renamed into place, so
// readers (including other processes) only ever observe complete
// entries. Overwriting an existing entry is allowed and idempotent. The
// file holds exactly the bytes json.Marshal makes of the envelope, plus
// a newline.
func (s *Store) Put(key string, payload json.RawMessage) error {
	if !validKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	stored, err := compact(payload)
	if err != nil {
		return fmt.Errorf("store: payload for %s is not valid JSON", key)
	}
	data := append(append(append(append([]byte(head), key...), mid...), stored...), tail...)
	path := s.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+key[:8]+".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	_, werr := tmp.Write(data)
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
