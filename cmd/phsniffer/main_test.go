package main

import (
	"encoding/json"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	pseudohoneypot "github.com/pseudo-honeypot/pseudohoneypot"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/twitterapi"
)

// execRun invokes run() exactly as the CLI would, with a fresh flag set.
func execRun(t *testing.T, args ...string) {
	t.Helper()
	if err := tryRun(args...); err != nil {
		t.Fatalf("run %v: %v", args, err)
	}
}

// tryRun is execRun that returns run's error.
func tryRun(args ...string) error {
	oldArgs := os.Args
	defer func() { os.Args = oldArgs }()
	flag.CommandLine = flag.NewFlagSet("phsniffer", flag.ContinueOnError)
	os.Args = append([]string{"phsniffer"}, args...)
	return run()
}

// exportTables reads the result tables out of an -export file, ignoring
// the metrics snapshot (the process-wide registry accumulates across the
// runs sharing this test binary).
func exportTables(t *testing.T, path string) []json.RawMessage {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Tables []json.RawMessage `json:"tables"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Tables) == 0 {
		t.Fatalf("%s: no tables exported", path)
	}
	return doc.Tables
}

// TestStoreDirResumesWithoutDoubleCounting is the daemon-level recovery
// property: run phsniffer for 2 hours against -store-dir, run it again to
// the full 6 hours against the same directory (recover + resume), and the
// exported results must match an uninterrupted 6-hour run's exactly. A
// third run over the already-complete history must change nothing.
func TestStoreDirResumesWithoutDoubleCounting(t *testing.T) {
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "store")
	// Two nodes per sample value: one tweet can then hit monitored
	// accounts in different groups and yield several capture records,
	// which recovery must replay without collapsing them into one.
	common := []string{
		"-accounts", "2000", "-organic", "400", "-nodes-per-value", "2",
		"-seed", "1", "-trace-buffer", "0",
	}
	arg := func(extra ...string) []string { return append(append([]string(nil), common...), extra...) }

	refPath := filepath.Join(dir, "ref.json")
	execRun(t, arg("-hours", "6", "-export", refPath)...)
	want := exportTables(t, refPath)

	execRun(t, arg("-hours", "2", "-store-dir", storeDir)...)

	resumedPath := filepath.Join(dir, "resumed.json")
	execRun(t, arg("-hours", "6", "-store-dir", storeDir, "-export", resumedPath)...)
	if got := exportTables(t, resumedPath); !reflect.DeepEqual(want, got) {
		t.Fatalf("resumed run diverged from uninterrupted run:\n got  %s\n want %s",
			got, want)
	}

	// Everything is already durable: a full re-run is a no-op replay.
	againPath := filepath.Join(dir, "again.json")
	execRun(t, arg("-hours", "6", "-store-dir", storeDir, "-export", againPath)...)
	if got := exportTables(t, againPath); !reflect.DeepEqual(want, got) {
		t.Fatalf("idempotent re-run diverged:\n got  %s\n want %s", got, want)
	}
}

// twitterd serves a fresh oracle simulation over the emulated API, as
// `twitterd -oracle` does, and returns its base URL.
func twitterd(t *testing.T) string {
	t.Helper()
	cfg := pseudohoneypot.DefaultConfig()
	cfg.NumAccounts = 2000
	cfg.OrganicTweetsPerHour = 400
	sim, err := pseudohoneypot.NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(sim.NewAPIServer(twitterapi.WithOracle()))
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestWireSourceRuns drives the deployment shape through the CLI: two
// -source wire:URL runs against fresh daemons export identical results,
// and asking for durability over the wire is refused with the sources ×
// durability rule.
func TestWireSourceRuns(t *testing.T) {
	dir := t.TempDir()
	var tables [][]json.RawMessage
	for i := 0; i < 2; i++ {
		path := filepath.Join(dir, "wire.json")
		execRun(t, "-source", "wire:"+twitterd(t), "-hours", "3", "-nodes-per-value", "1",
			"-trace-buffer", "0", "-export", path)
		tables = append(tables, exportTables(t, path))
	}
	if !reflect.DeepEqual(tables[0], tables[1]) {
		t.Fatalf("wire runs against fresh daemons diverged:\n%s\n%s", tables[0], tables[1])
	}
	err := tryRun("-source", "wire:"+twitterd(t), "-hours", "1", "-store-dir", filepath.Join(dir, "store"))
	if err == nil || !strings.Contains(err.Error(), "explicit Sources do not support durability") {
		t.Fatalf("wire with -store-dir: %v, want the durability refusal", err)
	}
}
