package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ParsedSample is one series line of a parsed exposition payload.
type ParsedSample struct {
	// Name is the full sample name, including histogram suffixes such as
	// _bucket and _count.
	Name   string
	Labels map[string]string
	Value  float64
}

// ParseText parses and validates a Prometheus text exposition payload as
// produced by WriteText. It enforces the invariants tests care about: every
// sample belongs to a # TYPE-declared family that precedes it, names and
// label syntax follow the grammar, values parse as floats, and no two
// samples repeat the same name and label set. It exists so tests (and
// tooling) can assert on a /metrics payload without a Prometheus
// dependency.
func ParseText(r io.Reader) ([]ParsedSample, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	types := make(map[string]string)
	seen := make(map[string]struct{})
	var samples []ParsedSample
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := parseComment(line, types); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if err := checkFamily(s, types); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		key := s.Name + "\xff" + labelKey(s.Labels)
		if _, dup := seen[key]; dup {
			return nil, fmt.Errorf("line %d: duplicate sample %s", lineNo, s.Name)
		}
		seen[key] = struct{}{}
		samples = append(samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return samples, nil
}

// parseComment handles # HELP / # TYPE lines (other comments are ignored).
func parseComment(line string, types map[string]string) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 2 {
		return nil // bare comment
	}
	switch fields[1] {
	case "TYPE":
		if len(fields) < 4 {
			return fmt.Errorf("malformed TYPE line %q", line)
		}
		name, typ := fields[2], strings.TrimSpace(fields[3])
		if !validName(name) {
			return fmt.Errorf("invalid metric name %q", name)
		}
		switch typ {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q", typ)
		}
		if _, dup := types[name]; dup {
			return fmt.Errorf("duplicate TYPE for %s", name)
		}
		types[name] = typ
	case "HELP":
		if len(fields) < 3 || !validName(fields[2]) {
			return fmt.Errorf("malformed HELP line %q", line)
		}
	}
	return nil
}

// checkFamily verifies the sample's family was TYPE-declared before it,
// resolving histogram suffixes to their base family.
func checkFamily(s ParsedSample, types map[string]string) error {
	if _, ok := types[s.Name]; ok {
		return nil
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(s.Name, suffix)
		if base != s.Name && types[base] == "histogram" {
			if suffix == "_bucket" {
				if _, ok := s.Labels["le"]; !ok {
					return fmt.Errorf("%s missing le label", s.Name)
				}
			}
			return nil
		}
	}
	return fmt.Errorf("sample %s has no preceding TYPE", s.Name)
}

// parseSample parses `name{label="value",...} value [timestamp]`.
func parseSample(line string) (ParsedSample, error) {
	s := ParsedSample{Labels: make(map[string]string)}
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	}
	s.Name = line[:i]
	if !validName(s.Name) {
		return s, fmt.Errorf("invalid sample name %q", s.Name)
	}
	rest := line[i:]
	if rest[0] == '{' {
		end := strings.LastIndex(rest, "}")
		if end < 0 {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		if err := parseLabels(rest[1:end], s.Labels); err != nil {
			return s, err
		}
		rest = rest[end+1:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return s, fmt.Errorf("malformed sample value in %q", line)
	}
	v, err := parseValue(fields[0])
	if err != nil {
		return s, err
	}
	s.Value = v
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return s, fmt.Errorf("bad timestamp %q", fields[1])
		}
	}
	return s, nil
}

func parseLabels(body string, out map[string]string) error {
	for len(body) > 0 {
		eq := strings.Index(body, "=")
		if eq < 0 {
			return fmt.Errorf("malformed label pair in %q", body)
		}
		name := strings.TrimSpace(body[:eq])
		if !validName(name) {
			return fmt.Errorf("invalid label name %q", name)
		}
		body = strings.TrimSpace(body[eq+1:])
		if len(body) == 0 || body[0] != '"' {
			return fmt.Errorf("unquoted label value for %q", name)
		}
		val, rest, err := unquoteLabel(body[1:])
		if err != nil {
			return err
		}
		if _, dup := out[name]; dup {
			return fmt.Errorf("duplicate label %q", name)
		}
		out[name] = val
		body = strings.TrimPrefix(strings.TrimSpace(rest), ",")
		body = strings.TrimSpace(body)
	}
	return nil
}

// unquoteLabel consumes an escaped label value up to its closing quote,
// returning the decoded value and the remainder after the quote.
func unquoteLabel(s string) (string, string, error) {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			return b.String(), s[i+1:], nil
		case '\\':
			if i+1 >= len(s) {
				return "", "", fmt.Errorf("dangling escape in label value")
			}
			i++
			switch s[i] {
			case 'n':
				b.WriteByte('\n')
			case '\\', '"':
				b.WriteByte(s[i])
			default:
				return "", "", fmt.Errorf("bad escape \\%c in label value", s[i])
			}
		default:
			b.WriteByte(s[i])
		}
	}
	return "", "", fmt.Errorf("unterminated label value")
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad sample value %q", s)
	}
	return v, nil
}

func labelKey(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(labels[k])
		b.WriteByte(';')
	}
	return b.String()
}
