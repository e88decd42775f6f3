// Package store is the sniffer's durability layer (DESIGN.md §14): a
// write-ahead log of capture records plus periodic checkpoints of the
// derived pipeline state (capture ring, label-store cluster indices,
// extractor behaviour state, trained detector window), behind a pluggable
// Backend so the local-disk implementation can be swapped for a blob-style
// remote store without touching the WAL or recovery logic.
//
// Durability contract: a record is durable once Sync returns; records
// appended after the last successful Sync may be lost — or half-written
// ("torn") — by a crash. Recovery loads the newest decodable checkpoint
// and replays every WAL record past it, treating a torn or truncated
// record at a segment tail as the clean end of that segment. The
// fault-injection double in store/fstest exercises exactly these paths.
package store

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// ErrLocked is returned by Open when another live process holds the store
// directory's lock file.
var ErrLocked = errors.New("store: directory locked by another process")

// WriteFile is an append-only file handle. Writes become durable only
// after Sync; Close implies no Sync (a crashed process never closes).
type WriteFile interface {
	io.Writer
	// Sync flushes everything written so far to stable storage.
	Sync() error
	io.Closer
}

// Backend is the pluggable storage substrate: a flat namespace of
// append-only files with atomic rename. The local-disk implementation is
// Dir; store/fstest provides a fault-injectable in-memory double, and the
// same surface maps directly onto a blob store (Create/Open/List/Remove
// are object operations, Rename is the usual upload-then-commit).
type Backend interface {
	// Create opens a fresh file for appending, truncating any existing
	// file of that name.
	Create(name string) (WriteFile, error)
	// Open opens an existing file for reading.
	Open(name string) (io.ReadCloser, error)
	// Rename atomically replaces newName with oldName's content.
	Rename(oldName, newName string) error
	// Remove deletes a file (no error when absent).
	Remove(name string) error
	// List returns every file name in the namespace, sorted.
	List() ([]string, error)
	// Lock takes the namespace's exclusive advisory lock, failing with
	// ErrLocked while another live owner holds it. The returned release
	// frees it.
	Lock() (release func() error, err error)
}

// Dir is the local-disk Backend: one flat directory, fsync-backed Sync,
// rename-based atomic replace, and a pid lock file that survives crashes
// without blocking restarts (a lock whose owner process is gone is stale
// and silently reclaimed).
type Dir struct {
	path string
}

// NewDir creates the directory (and parents) if needed and returns the
// backend bound to it.
func NewDir(path string) (*Dir, error) {
	if path == "" {
		return nil, errors.New("store: empty directory path")
	}
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, fmt.Errorf("store: create dir: %w", err)
	}
	return &Dir{path: path}, nil
}

type diskFile struct{ f *os.File }

func (w *diskFile) Write(p []byte) (int, error) { return w.f.Write(p) }
func (w *diskFile) Sync() error                 { return w.f.Sync() }
func (w *diskFile) Close() error                { return w.f.Close() }

// Create implements Backend.
func (d *Dir) Create(name string) (WriteFile, error) {
	f, err := os.OpenFile(filepath.Join(d.path, name),
		os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return &diskFile{f: f}, nil
}

// Open implements Backend.
func (d *Dir) Open(name string) (io.ReadCloser, error) {
	return os.Open(filepath.Join(d.path, name))
}

// Rename implements Backend.
func (d *Dir) Rename(oldName, newName string) error {
	return os.Rename(filepath.Join(d.path, oldName), filepath.Join(d.path, newName))
}

// Remove implements Backend.
func (d *Dir) Remove(name string) error {
	err := os.Remove(filepath.Join(d.path, name))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	return err
}

// List implements Backend.
func (d *Dir) List() ([]string, error) {
	entries, err := os.ReadDir(d.path)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// lockFileName is the advisory pid lock guarding a store directory.
const lockFileName = "LOCK"

// Lock implements Backend. The lock file holds the owner pid; a second
// process whose probe finds the owner alive fails with ErrLocked, while a
// stale lock (owner exited, e.g. kill -9) is reclaimed so crash recovery
// is never blocked by the crash it is recovering from.
func (d *Dir) Lock() (func() error, error) {
	path := filepath.Join(d.path, lockFileName)
	for attempt := 0; attempt < 2; attempt++ {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			_, werr := fmt.Fprintf(f, "%d\n", os.Getpid())
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				_ = os.Remove(path)
				return nil, fmt.Errorf("store: write lock file: %w", werr)
			}
			return func() error { return os.Remove(path) }, nil
		}
		if !errors.Is(err, os.ErrExist) {
			return nil, fmt.Errorf("store: create lock file: %w", err)
		}
		raw, rerr := os.ReadFile(path)
		if rerr != nil {
			if errors.Is(rerr, os.ErrNotExist) {
				continue // released between probe and read: retry
			}
			return nil, fmt.Errorf("store: read lock file: %w", rerr)
		}
		pid, perr := strconv.Atoi(strings.TrimSpace(string(raw)))
		if perr == nil && pidAlive(pid) {
			return nil, fmt.Errorf("%w (pid %d)", ErrLocked, pid)
		}
		// Stale (owner dead or file garbled): reclaim and retry once.
		if rmErr := os.Remove(path); rmErr != nil && !errors.Is(rmErr, os.ErrNotExist) {
			return nil, fmt.Errorf("store: reclaim stale lock: %w", rmErr)
		}
	}
	return nil, ErrLocked
}

// pidAlive reports whether a process with the given pid exists. Signal 0
// probes existence without delivering anything; EPERM still means alive.
func pidAlive(pid int) bool {
	if pid <= 0 {
		return false
	}
	proc, err := os.FindProcess(pid)
	if err != nil {
		return false
	}
	err = proc.Signal(syscall.Signal(0))
	return err == nil || errors.Is(err, syscall.EPERM)
}
