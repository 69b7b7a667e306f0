package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Exposition is a parsed Prometheus text exposition: every series value
// keyed by its full rendered name (`name{k="v",...}` or bare `name`),
// plus the declared type of every family.
type Exposition struct {
	// Values maps rendered series name -> value.
	Values map[string]float64
	// Types maps family name -> declared TYPE (counter, gauge, summary, ...).
	Types map[string]string
}

// Value returns the series value, or 0 when absent.
func (e *Exposition) Value(series string) float64 { return e.Values[series] }

var validTypes = map[string]bool{
	"counter": true, "gauge": true, "summary": true,
	"histogram": true, "untyped": true,
}

// ParseExposition is a strict line-format checker and parser for the
// Prometheus text exposition format (version 0.0.4). It enforces:
// valid metric/label names, TYPE declared once per family and before its
// samples, every sample belonging to a declared family (allowing the
// _sum/_count/_bucket suffixes of summaries and histograms), parseable
// float values, and no duplicate series. It returns the parsed series on
// success and a line-numbered error on the first violation.
func ParseExposition(r io.Reader) (*Exposition, error) {
	exp := &Exposition{
		Values: make(map[string]float64),
		Types:  make(map[string]string),
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	fail := func(format string, args ...any) (*Exposition, error) {
		return nil, fmt.Errorf("line %d: %s", lineNo, fmt.Sprintf(format, args...))
	}
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || fields[0] != "#" {
				return fail("malformed comment %q", line)
			}
			switch fields[1] {
			case "HELP":
				if !validName(fields[2]) {
					return fail("HELP for invalid metric name %q", fields[2])
				}
			case "TYPE":
				if len(fields) != 4 {
					return fail("malformed TYPE line %q", line)
				}
				name, typ := fields[2], fields[3]
				if !validName(name) {
					return fail("TYPE for invalid metric name %q", name)
				}
				if !validTypes[typ] {
					return fail("unknown type %q for %q", typ, name)
				}
				if _, dup := exp.Types[name]; dup {
					return fail("duplicate TYPE for %q", name)
				}
				exp.Types[name] = typ
			default:
				return fail("unknown comment directive %q", fields[1])
			}
			continue
		}
		name, rest, err := parseName(line)
		if err != nil {
			return fail("%v", err)
		}
		series := name
		if strings.HasPrefix(rest, "{") {
			labels, after, err := parseLabels(rest)
			if err != nil {
				return fail("%s: %v", name, err)
			}
			series, rest = name+labels, after
		}
		rest = strings.TrimLeft(rest, " ")
		valStr, _, _ := strings.Cut(rest, " ") // optional timestamp after value
		if valStr == "" {
			return fail("series %s has no value", series)
		}
		v, err := parseFloat(valStr)
		if err != nil {
			return fail("series %s: bad value %q", series, valStr)
		}
		if !familyDeclared(exp.Types, name) {
			return fail("sample %s has no TYPE declaration", name)
		}
		if _, dup := exp.Values[series]; dup {
			return fail("duplicate series %s", series)
		}
		exp.Values[series] = v
	}
	if err := sc.Err(); err != nil {
		// The line the scanner could not deliver, too long or unreadable.
		lineNo++
		return fail("%v", err)
	}
	return exp, nil
}

// familyDeclared reports whether name belongs to a declared family,
// directly or via a summary/histogram suffix.
func familyDeclared(types map[string]string, name string) bool {
	if _, ok := types[name]; ok {
		return true
	}
	for _, suf := range []string{"_sum", "_count", "_bucket"} {
		base, found := strings.CutSuffix(name, suf)
		if !found {
			continue
		}
		if t := types[base]; t == "summary" || t == "histogram" {
			return true
		}
	}
	return false
}

func parseName(line string) (name, rest string, err error) {
	i := 0
	for i < len(line) {
		c := line[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			break
		}
		i++
	}
	if i == 0 {
		return "", "", fmt.Errorf("malformed sample line %q", line)
	}
	name, rest = line[:i], line[i:]
	if rest == "" || (rest[0] != ' ' && rest[0] != '{') {
		return "", "", fmt.Errorf("malformed sample line %q", line)
	}
	return name, rest, nil
}

// parseLabels consumes a `{k="v",...}` block, returning its canonical
// rendering (including braces) and the remainder of the line.
func parseLabels(s string) (rendered, rest string, err error) {
	var b strings.Builder
	b.WriteByte('{')
	i := 1 // past '{'
	first := true
	for {
		if i >= len(s) {
			return "", "", fmt.Errorf("unterminated label block")
		}
		if s[i] == '}' {
			b.WriteByte('}')
			return b.String(), s[i+1:], nil
		}
		if !first {
			if s[i] != ',' {
				return "", "", fmt.Errorf("expected ',' in label block at %q", s[i:])
			}
			i++
			b.WriteByte(',')
		}
		first = false
		start := i
		for i < len(s) && s[i] != '=' {
			i++
		}
		if i >= len(s) {
			return "", "", fmt.Errorf("label without '='")
		}
		key := s[start:i]
		if !validName(key) {
			return "", "", fmt.Errorf("invalid label name %q", key)
		}
		i++ // '='
		if i >= len(s) || s[i] != '"' {
			return "", "", fmt.Errorf("label %q value not quoted", key)
		}
		i++
		var val strings.Builder
		for {
			if i >= len(s) {
				return "", "", fmt.Errorf("unterminated value for label %q", key)
			}
			c := s[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' {
				if i+1 >= len(s) {
					return "", "", fmt.Errorf("dangling escape in label %q", key)
				}
				i++
				switch s[i] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return "", "", fmt.Errorf("bad escape \\%c in label %q", s[i], key)
				}
				i++
				continue
			}
			val.WriteByte(c)
			i++
		}
		b.WriteString(key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(val.String()))
		b.WriteByte('"')
	}
}

func parseFloat(s string) (float64, error) {
	switch s {
	case "+Inf":
		return strconv.ParseFloat("+Inf", 64)
	case "-Inf":
		return strconv.ParseFloat("-Inf", 64)
	}
	return strconv.ParseFloat(s, 64)
}
