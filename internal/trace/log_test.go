package trace

import (
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/simclock"
)

func simLogger(level Level) (*Logger, *strings.Builder) {
	var buf strings.Builder
	l := NewLogger(&buf, level)
	clk := simclock.NewSimulated(time.Unix(0, 0).UTC())
	l.clock = clk.Now
	return l, &buf
}

func TestLoggerLevelFiltering(t *testing.T) {
	l, buf := simLogger(LevelWarn)
	l.Log(LevelDebug, "d")
	l.Info("i")
	l.Warn("w")
	l.Error("e")
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 lines, got %d: %q", len(lines), buf.String())
	}
	if !strings.Contains(lines[0], "level=warn") || !strings.Contains(lines[1], "level=error") {
		t.Fatalf("wrong lines: %q", lines)
	}
	if l.Enabled(LevelInfo) || !l.Enabled(LevelError) {
		t.Fatal("Enabled disagrees with filtering")
	}
	l.SetLevel(LevelDebug)
	if !l.Enabled(LevelDebug) {
		t.Fatal("SetLevel did not take")
	}
}

func TestLoggerLogfmtFormat(t *testing.T) {
	l, buf := simLogger(LevelInfo)
	l.Info("stream connected", "attempt", 3, "url", "http://x/stream", "note", "has space", "eq", "a=b")
	line := strings.TrimSpace(buf.String())
	want := `ts=1970-01-01T00:00:00Z level=info msg="stream connected" attempt=3 url=http://x/stream note="has space" eq="a=b"`
	if line != want {
		t.Fatalf("line\n got %q\nwant %q", line, want)
	}
}

func TestLoggerOddKVPairs(t *testing.T) {
	l, buf := simLogger(LevelInfo)
	l.Info("m", "dangling")
	if !strings.Contains(buf.String(), "dangling=!MISSING") {
		t.Fatalf("odd kv not flagged: %q", buf.String())
	}
}

func TestLoggerNilSafe(t *testing.T) {
	var l *Logger
	l.Log(LevelDebug, "d")
	l.Info("i", "k", "v")
	l.Warn("w")
	l.Error("e")
	l.SetLevel(LevelDebug)
	if l.Enabled(LevelError) {
		t.Fatal("nil logger claims enabled")
	}
}

func TestParseLevel(t *testing.T) {
	cases := map[string]Level{
		"debug": LevelDebug, "INFO": LevelInfo, " warn ": LevelWarn,
		"Warning": LevelWarn, "error": LevelError,
	}
	for in, want := range cases {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Fatalf("ParseLevel(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Fatal("bad level accepted")
	}
}

func TestLevelString(t *testing.T) {
	if LevelDebug.String() != "debug" || LevelError.String() != "error" {
		t.Fatal("level strings")
	}
	if Level(42).String() != "level(42)" {
		t.Fatalf("unknown level string %q", Level(42).String())
	}
}

func TestLoggerConcurrentLinesIntact(t *testing.T) {
	l, buf := simLogger(LevelInfo)
	var mu sync.Mutex
	safe := &lockedWriter{mu: &mu, b: buf}
	l2 := NewLogger(safe, LevelInfo)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				l2.Info("tick", "g", i)
			}
		}()
	}
	wg.Wait()
	_ = l
	mu.Lock()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	mu.Unlock()
	if len(lines) != 100 {
		t.Fatalf("want 100 lines, got %d", len(lines))
	}
	for _, line := range lines {
		if !strings.HasPrefix(line, "ts=") || !strings.Contains(line, "msg=tick") {
			t.Fatalf("torn line %q", line)
		}
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	b  *strings.Builder
}

func (w *lockedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}
