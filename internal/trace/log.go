package trace

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Level is a log severity.
type Level int32

// Severities, lowest first.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	default:
		return "level(" + strconv.Itoa(int(l)) + ")"
	}
}

// ParseLevel resolves a -log-level flag value ("debug", "info", "warn",
// "error", case-insensitive).
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return LevelDebug, nil
	case "info":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	default:
		return LevelInfo, fmt.Errorf("trace: unknown log level %q", s)
	}
}

// Logger is a leveled structured logger emitting one event per line in
// logfmt-style key=value pairs. It is safe for concurrent use; a nil
// *Logger drops everything.
type Logger struct {
	level atomic.Int32

	mu    sync.Mutex
	w     io.Writer
	clock func() time.Time // time.Now; tests pin it to a simulated clock
}

// NewLogger creates a logger writing key=value lines at or above level.
func NewLogger(w io.Writer, level Level) *Logger {
	l := &Logger{w: w, clock: time.Now}
	l.level.Store(int32(level))
	return l
}

// SetLevel changes the minimum emitted severity.
func (l *Logger) SetLevel(level Level) {
	if l != nil {
		l.level.Store(int32(level))
	}
}

// Enabled reports whether events at level would be emitted.
func (l *Logger) Enabled(level Level) bool {
	return l != nil && level >= Level(l.level.Load())
}

// Info emits an info event with alternating key/value pairs.
func (l *Logger) Info(msg string, kvs ...any) { l.Log(LevelInfo, msg, kvs...) }

// Warn emits a warning event.
func (l *Logger) Warn(msg string, kvs ...any) { l.Log(LevelWarn, msg, kvs...) }

// Error emits an error event.
func (l *Logger) Error(msg string, kvs ...any) { l.Log(LevelError, msg, kvs...) }

// Log emits one event. kvs alternate key, value; a trailing key without a
// value is paired with "!MISSING". Keys are emitted in argument order.
func (l *Logger) Log(level Level, msg string, kvs ...any) {
	if !l.Enabled(level) {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	ts := l.clock().UTC().Format(time.RFC3339Nano)
	var b strings.Builder
	b.WriteString("ts=")
	b.WriteString(ts)
	b.WriteString(" level=")
	b.WriteString(level.String())
	b.WriteString(" msg=")
	b.WriteString(logfmtValue(msg))
	for i := 0; i < len(kvs); i += 2 {
		b.WriteByte(' ')
		b.WriteString(keyAt(kvs, i))
		b.WriteByte('=')
		b.WriteString(logfmtValue(fmt.Sprint(valueAt(kvs, i))))
	}
	b.WriteByte('\n')
	_, _ = io.WriteString(l.w, b.String())
}

func keyAt(kvs []any, i int) string {
	if k, ok := kvs[i].(string); ok {
		return k
	}
	return fmt.Sprint(kvs[i])
}

func valueAt(kvs []any, i int) any {
	if i+1 < len(kvs) {
		return kvs[i+1]
	}
	return "!MISSING"
}

// logfmtValue quotes a value when it contains whitespace, quotes, or
// control characters; bare tokens stay bare for grep-ability.
func logfmtValue(s string) string {
	if s == "" {
		return `""`
	}
	if strings.IndexFunc(s, func(r rune) bool {
		return r <= ' ' || r == '"' || r == '=' || r == 0x7f
	}) >= 0 {
		return strconv.Quote(s)
	}
	return s
}
