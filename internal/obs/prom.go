package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WritePrometheus encodes the families of the given registries in the
// Prometheus text exposition format (version 0.0.4): # HELP and # TYPE
// lines per family, cumulative le buckets plus _sum and _count for
// histograms, and escaped help text and label values. Locked-API side.
func WritePrometheus(w io.Writer, regs ...*Registry) error {
	return EncodeFamilies(w, GatherAll(regs...))
}

// EncodeFamilies writes already-gathered families as Prometheus text.
func EncodeFamilies(w io.Writer, fams []Family) error {
	bw := bufio.NewWriter(w)
	for _, f := range fams {
		fmt.Fprintf(bw, "# HELP %s %s\n", f.Name, escapeHelp(f.Help))
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.Name, f.Type)
		for _, s := range f.Samples {
			if s.Hist != nil {
				encodeHist(bw, f.Name, s.Labels, s.Hist)
				continue
			}
			fmt.Fprintf(bw, "%s%s %s\n", f.Name, encodeLabels(s.Labels, "", 0), fmtFloat(s.Value))
		}
	}
	return bw.Flush()
}

// encodeHist writes the cumulative bucket series, _sum and _count.
func encodeHist(w io.Writer, name string, labels []Label, h *HistSnapshot) {
	var cum uint64
	for i, bound := range h.Bounds {
		cum += h.Counts[i]
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, encodeLabels(labels, "le", bound), cum)
	}
	cum += h.Counts[len(h.Counts)-1]
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, encodeLabels(labels, "le", math.Inf(1)), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, encodeLabels(labels, "", 0), fmtFloat(h.Sum))
	fmt.Fprintf(w, "%s_count%s %d\n", name, encodeLabels(labels, "", 0), h.Count)
}

// encodeLabels renders {k="v",...}, sorted by key, with an optional le
// label appended last. Returns "" when there is nothing to render.
func encodeLabels(labels []Label, leKey string, le float64) string {
	if len(labels) == 0 && leKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range sortedCopy(labels) {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, l.Key, escapeLabel(l.Value))
	}
	if leKey != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, leKey, fmtFloat(le))
	}
	b.WriteByte('}')
	return b.String()
}

// escapeHelp escapes backslash and newline, per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes backslash, double-quote, and newline.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// fmtFloat renders a sample value: integral values without an exponent,
// +Inf as the exposition token.
func fmtFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ParsedFamily is one metric family read back from exposition text —
// enough structure for tests and xviewctl to verify a scrape.
type ParsedFamily struct {
	Name    string
	Help    string
	Type    string
	Samples []ParsedSample
}

// ParsedSample is one sample line: full series name (including _bucket /
// _sum / _count suffixes), its labels, and the value.
type ParsedSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// ParseExposition parses Prometheus text exposition into families, keyed
// and ordered by TYPE declarations; sample lines are attached to the
// family whose name prefixes them. It understands exactly the subset this
// package emits and errors on anything it cannot account for — the test
// harness uses it to prove /metrics output is well-formed.
func ParseExposition(r io.Reader) ([]ParsedFamily, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var fams []ParsedFamily
	byName := map[string]*ParsedFamily{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, _ := strings.Cut(rest, " ")
			f := ensureFamily(&fams, byName, name)
			f.Help = unescapeHelp(help)
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			rest := strings.TrimPrefix(line, "# TYPE ")
			name, typ, ok := strings.Cut(rest, " ")
			if !ok {
				return nil, fmt.Errorf("line %d: malformed TYPE", lineNo)
			}
			f := ensureFamily(&fams, byName, name)
			f.Type = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // other comments are legal exposition
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		f := familyFor(fams, byName, s.Name)
		if f == nil {
			return nil, fmt.Errorf("line %d: sample %s has no TYPE declaration", lineNo, s.Name)
		}
		f.Samples = append(f.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return fams, nil
}

func ensureFamily(fams *[]ParsedFamily, byName map[string]*ParsedFamily, name string) *ParsedFamily {
	if f, ok := byName[name]; ok {
		return f
	}
	*fams = append(*fams, ParsedFamily{Name: name})
	f := &(*fams)[len(*fams)-1]
	byName[name] = f
	return f
}

// familyFor resolves a sample series to its family, trying the exact name
// and then the histogram suffixes.
func familyFor(fams []ParsedFamily, byName map[string]*ParsedFamily, series string) *ParsedFamily {
	if f, ok := byName[series]; ok {
		return f
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(series, suf); ok {
			if f, ok := byName[base]; ok && f.Type == typeHistogram {
				return f
			}
		}
	}
	return nil
}

// parseSample splits `name{k="v",...} value` into its parts.
func parseSample(line string) (ParsedSample, error) {
	s := ParsedSample{Labels: map[string]string{}}
	nameEnd := strings.IndexAny(line, "{ ")
	if nameEnd < 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	}
	s.Name = line[:nameEnd]
	rest := line[nameEnd:]
	if rest[0] == '{' {
		end := strings.LastIndexByte(rest, '}')
		if end < 0 {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		if err := parseLabels(rest[1:end], s.Labels); err != nil {
			return s, err
		}
		rest = rest[end+1:]
	}
	valStr := strings.TrimSpace(rest)
	var v float64
	switch valStr {
	case "+Inf":
		v = math.Inf(1)
	case "-Inf":
		v = math.Inf(-1)
	default:
		var err error
		v, err = strconv.ParseFloat(valStr, 64)
		if err != nil {
			return s, fmt.Errorf("bad value %q: %w", valStr, err)
		}
	}
	s.Value = v
	return s, nil
}

// parseLabels reads k="v" pairs, honoring the escape sequences the
// encoder can produce.
func parseLabels(body string, out map[string]string) error {
	i := 0
	for i < len(body) {
		eq := strings.IndexByte(body[i:], '=')
		if eq < 0 {
			return fmt.Errorf("malformed labels %q", body)
		}
		key := body[i : i+eq]
		i += eq + 1
		if i >= len(body) || body[i] != '"' {
			return fmt.Errorf("label %s: missing opening quote", key)
		}
		i++
		var val strings.Builder
		for i < len(body) && body[i] != '"' {
			if body[i] == '\\' && i+1 < len(body) {
				i++
				switch body[i] {
				case 'n':
					val.WriteByte('\n')
				case '\\', '"':
					val.WriteByte(body[i])
				default:
					val.WriteByte('\\')
					val.WriteByte(body[i])
				}
			} else {
				val.WriteByte(body[i])
			}
			i++
		}
		if i >= len(body) {
			return fmt.Errorf("label %s: unterminated value", key)
		}
		i++ // closing quote
		out[key] = val.String()
		if i < len(body) && body[i] == ',' {
			i++
		}
	}
	return nil
}

func unescapeHelp(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			i++
			switch s[i] {
			case 'n':
				b.WriteByte('\n')
			case '\\':
				b.WriteByte('\\')
			default:
				b.WriteByte('\\')
				b.WriteByte(s[i])
			}
		} else {
			b.WriteByte(s[i])
		}
	}
	return b.String()
}
