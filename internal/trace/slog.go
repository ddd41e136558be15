// A small leveled key=value structured logger, replacing the server's
// discard-by-default *log.Logger. One line per record:
//
//	ts=2026-08-06T12:00:00.000Z level=warn msg="bad insert" remote=1.2.3.4:5 err="wire: truncated message"
//
// Values print with %v and are quoted when they contain spaces, quotes
// or '=' — mechanically parseable without a framework. A nil *Logger
// discards everything (the default-quiet posture), and level checks
// are one atomic load, so disabled levels cost nothing measurable.
package trace

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Level orders log severities.
type Level int32

// Levels, least to most severe. LevelOff disables all output.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
	LevelOff
)

// String names the level.
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
	case LevelOff:
		return "off"
	default:
		return fmt.Sprintf("Level(%d)", int32(l))
	}
}

// ParseLevel parses a level name ("debug", "info", "warn", "error",
// "off").
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return LevelDebug, nil
	case "info":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	case "off", "none":
		return LevelOff, nil
	default:
		return LevelOff, fmt.Errorf("trace: unknown log level %q", s)
	}
}

// Logger is a leveled key=value line logger. Nil-receiver safe: a nil
// *Logger discards everything.
type Logger struct {
	mu  sync.Mutex
	w   io.Writer
	min Level
	// now is stubbed in tests for stable timestamps.
	now func() time.Time
}

// NewLogger writes records at or above min to w.
func NewLogger(w io.Writer, min Level) *Logger {
	return &Logger{w: w, min: min, now: time.Now}
}

// Enabled reports whether records at lv would be emitted.
func (l *Logger) Enabled(lv Level) bool {
	return l != nil && lv >= l.min
}

// Debug, Warn and Error emit one record with alternating key/value
// pairs after the message.
func (l *Logger) Debug(msg string, kv ...any) { l.log(LevelDebug, msg, kv) }
func (l *Logger) Warn(msg string, kv ...any)  { l.log(LevelWarn, msg, kv) }
func (l *Logger) Error(msg string, kv ...any) { l.log(LevelError, msg, kv) }

func (l *Logger) log(lv Level, msg string, kv []any) {
	if !l.Enabled(lv) {
		return
	}
	var sb strings.Builder
	sb.Grow(64)
	sb.WriteString("ts=")
	sb.WriteString(l.now().UTC().Format("2006-01-02T15:04:05.000Z"))
	sb.WriteString(" level=")
	sb.WriteString(lv.String())
	sb.WriteString(" msg=")
	sb.WriteString(quoteVal(msg))
	for i := 0; i+1 < len(kv); i += 2 {
		sb.WriteByte(' ')
		sb.WriteString(fmt.Sprintf("%v", kv[i]))
		sb.WriteByte('=')
		sb.WriteString(quoteVal(fmt.Sprintf("%v", kv[i+1])))
	}
	if len(kv)%2 == 1 {
		sb.WriteString(" arg=")
		sb.WriteString(quoteVal(fmt.Sprintf("%v", kv[len(kv)-1])))
	}
	sb.WriteByte('\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	_, _ = io.WriteString(l.w, sb.String())
}

// quoteVal quotes a value when the bare form would be ambiguous.
func quoteVal(s string) string {
	if s == "" || strings.ContainsAny(s, " \t\n\"=") {
		return fmt.Sprintf("%q", s)
	}
	return s
}
