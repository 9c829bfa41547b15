package store

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// Journal is an append-only file of completed cell keys, one per line,
// living alongside the cache entries: the order a sweep's cells finished
// in. No sweep reads it back — a resumed sweep learns which cells
// finished from cache hits alone, and only tests and the benchmark
// harness call Done or Len. A key is recorded after its entry has been
// renamed into the cache, so it names an entry that existed when the
// line was written; entries are renamed, not fsynced, so after a crash a
// journaled key may name a damaged or missing entry, which is then an
// ordinary miss and re-runs (and unjournaled entries are still served as
// ordinary hits).
//
// Lines that do not look like keys are ignored on read, so a torn final
// line from a crash costs at most one re-run; the next Record starts a
// fresh line after it rather than extending it.
//
// Opening reads nothing: a sweep whose cells all hit the cache never
// records, and the file grows across every sweep sharing the cache
// directory. The done-set is loaded on the first Record, Done or Len.
type Journal struct {
	mu      sync.Mutex
	f       *os.File
	done    map[string]bool // nil until loaded
	loadErr error
	torn    bool // the file ends mid-line
}

// OpenJournal opens (creating if needed) the journal file at path for
// appending.
func OpenJournal(path string) (*Journal, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("store: journal %s: %w", path, err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: journal %s: %w", path, err)
	}
	return &Journal{f: f}, nil
}

// load reads the already-recorded keys on first use; j.mu must be held.
// A read error is kept and returned by every later Record.
func (j *Journal) load() error {
	if j.done != nil {
		return j.loadErr
	}
	j.done = make(map[string]bool)
	data, err := j.readAll()
	if err != nil {
		j.loadErr = fmt.Errorf("store: journal %s: %w", j.f.Name(), err)
		return j.loadErr
	}
	j.torn = len(data) > 0 && data[len(data)-1] != '\n'
	for len(data) > 0 {
		var line []byte
		line, data, _ = bytes.Cut(data, []byte{'\n'})
		if key := string(bytes.TrimSuffix(line, []byte{'\r'})); validKey(key) {
			j.done[key] = true
		}
	}
	return nil
}

// readAll reads the file from the start in one buffer sized by a stat
// (the append-mode offset is left alone).
func (j *Journal) readAll() ([]byte, error) {
	info, err := j.f.Stat()
	if err != nil {
		return nil, err
	}
	data := make([]byte, info.Size())
	n, err := j.f.ReadAt(data, 0)
	if err != nil && err != io.EOF {
		return nil, err
	}
	return data[:n], nil
}

// validKey reports whether a journal line is a plausible cache key
// (lowercase hex SHA-256).
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

// Done reports whether key was recorded, now or in a previous run.
func (j *Journal) Done(key string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.load()
	return j.done[key]
}

// Len returns the number of recorded keys.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.load()
	return len(j.done)
}

// Record appends key to the journal and syncs it to disk. Recording an
// already-recorded key is a no-op. Safe for concurrent use.
func (j *Journal) Record(key string) error {
	if !validKey(key) {
		return fmt.Errorf("store: journal: invalid key %q", key)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.load(); err != nil {
		return err
	}
	if j.done[key] {
		return nil
	}
	line := key + "\n"
	if j.torn {
		line = "\n" + line
	}
	if _, err := j.f.WriteString(line); err != nil {
		return fmt.Errorf("store: journal append: %w", err)
	}
	j.torn = false
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("store: journal sync: %w", err)
	}
	j.done[key] = true
	return nil
}

// Close closes the journal file. Record must not be called after Close.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}
