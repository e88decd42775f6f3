package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunTableJSON(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-scale", "small", "-table", "2", "-format", "json"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	// One table, one line: the banner must have gone to stderr.
	line, rest, _ := strings.Cut(stdout.String(), "\n")
	if rest != "" {
		t.Fatalf("stdout carries more than one line: %q", rest)
	}
	var table struct {
		Title   string     `json:"title"`
		Headers []string   `json:"headers"`
		Rows    [][]string `json:"rows"`
	}
	if err := json.Unmarshal([]byte(line), &table); err != nil {
		t.Fatalf("stdout is not one JSON table: %v\n%s", err, line)
	}
	if !strings.HasPrefix(table.Title, "Table II") || len(table.Headers) == 0 || len(table.Rows) == 0 {
		t.Fatalf("unexpected table: %+v", table)
	}
	if !strings.HasPrefix(stderr.String(), "benchreport: scale=small") {
		t.Fatalf("banner missing from stderr: %q", stderr.String())
	}
}

func TestRunCSVOutDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "csv")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-table", "2", "-format", "csv", "-out", dir}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "01-table-ii-profile-based-attributes-and-th.csv" {
		t.Fatalf("-out wrote %v", entries)
	}
	file, err := os.ReadFile(filepath.Join(dir, entries[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	// stdout is the same CSV followed by the blank separator line.
	if got := stdout.String(); got != string(file)+"\n" || len(file) == 0 {
		t.Fatalf("file and stdout disagree:\nfile:   %q\nstdout: %q", file, got)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	notADir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notADir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-scale", "huge"},
		{"-format", "xml"},
		{"-table", "1"},
		{"-table", "9"},
		{"-table", "-2"},
		{"-figure", "1"},
		{"-figure", "7"},
		{"-table", "2", "extra"},
		{"-no-such-flag"},
		{"-table", "2", "-format", "json", "-out", notADir},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err == nil {
			t.Errorf("run(%q) succeeded", args)
		}
		if stdout.Len() != 0 {
			t.Errorf("run(%q) wrote to stdout before failing: %q", args, stdout.String())
		}
	}
}

func TestSlugOf(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"", "experiment"},
		{"—!?… (§)", "experiment"},
		{"Table VII — PGE\nsecond line ignored", "table-vii-pge"},
		{"__Figure 2:  spam_ratio--per hour ", "figure-2-spam-ratio-per-hour"},
		{strings.Repeat("abcdefghi ", 6), "abcdefghi-abcdefghi-abcdefghi-abcdefghi"},
	} {
		if got := slugOf(tc.in); got != tc.want {
			t.Errorf("slugOf(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
