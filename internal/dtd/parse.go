package dtd

import (
	"fmt"
	"strings"
)

// Parse reads a DTD in <!ELEMENT name spec> syntax restricted to the
// normalized forms of §2.2:
//
//	<!ELEMENT db (course*)>          star
//	<!ELEMENT course (cno, title)>   sequence
//	<!ELEMENT choice (a | b)>        alternation
//	<!ELEMENT cno (#PCDATA)>         pcdata
//	<!ELEMENT gap EMPTY>             empty
//
// The first declared element is the root. Parse expects already-normalized
// input: the paper's footnote ① (an arbitrary DTD can be normalized into
// this form in linear time by introducing auxiliary types) is not
// implemented, so a view's DTD must be written normalized.
func Parse(text string) (*DTD, error) {
	elems := make(map[string]Production)
	root := ""
	rest := text
	for {
		start := strings.Index(rest, "<!ELEMENT")
		if start < 0 {
			break
		}
		end := strings.Index(rest[start:], ">")
		if end < 0 {
			return nil, fmt.Errorf("dtd: unterminated <!ELEMENT near %q", clip(rest[start:]))
		}
		decl := rest[start+len("<!ELEMENT") : start+end]
		rest = rest[start+end+1:]

		fields := strings.Fields(decl)
		if len(fields) < 2 {
			return nil, fmt.Errorf("dtd: malformed declaration %q", clip(decl))
		}
		name := fields[0]
		spec := strings.TrimSpace(strings.Join(fields[1:], " "))
		prod, err := parseSpec(spec)
		if err != nil {
			return nil, fmt.Errorf("dtd: element %s: %w", name, err)
		}
		if _, dup := elems[name]; dup {
			return nil, fmt.Errorf("dtd: element %s declared twice", name)
		}
		elems[name] = prod
		if root == "" {
			root = name
		}
	}
	if root == "" {
		return nil, fmt.Errorf("dtd: no <!ELEMENT declarations found")
	}
	return New(root, elems)
}

func parseSpec(spec string) (Production, error) {
	if spec == "EMPTY" {
		return Production{Kind: Empty}, nil
	}
	star := false
	if strings.HasSuffix(spec, "*") {
		star = true
		spec = strings.TrimSpace(strings.TrimSuffix(spec, "*"))
	}
	if !strings.HasPrefix(spec, "(") || !strings.HasSuffix(spec, ")") {
		return Production{}, fmt.Errorf("content spec %q must be parenthesized or EMPTY", spec)
	}
	inner := strings.TrimSpace(spec[1 : len(spec)-1])
	if inner == "#PCDATA" {
		if star {
			return Production{}, fmt.Errorf("(#PCDATA)* not supported; use (#PCDATA)")
		}
		return Production{Kind: PCData}, nil
	}
	// Inner star form (B*) inside parens: normalize "(B*)" to star of B.
	if strings.HasSuffix(inner, "*") && !strings.ContainsAny(inner, ",|") {
		star = true
		inner = strings.TrimSpace(strings.TrimSuffix(inner, "*"))
	}
	hasComma := strings.Contains(inner, ",")
	hasBar := strings.Contains(inner, "|")
	if hasComma && hasBar {
		return Production{}, fmt.Errorf("mixed ',' and '|' in %q: not in normalized form", spec)
	}
	var parts []string
	switch {
	case hasComma:
		parts = strings.Split(inner, ",")
	case hasBar:
		parts = strings.Split(inner, "|")
	default:
		parts = []string{inner}
	}
	children := make([]string, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			return Production{}, fmt.Errorf("empty component in %q", spec)
		}
		if strings.ContainsAny(p, "*?+()") {
			return Production{}, fmt.Errorf("component %q of %q not in normalized form", p, spec)
		}
		children = append(children, p)
	}
	switch {
	case star:
		if len(children) != 1 || hasComma || hasBar {
			return Production{}, fmt.Errorf("star applies to a single type in %q", spec)
		}
		return Production{Kind: Star, Children: children}, nil
	case hasBar:
		return Production{Kind: Alt, Children: children}, nil
	case hasComma:
		return Production{Kind: Seq, Children: children}, nil
	default:
		// Single child sequence.
		return Production{Kind: Seq, Children: children}, nil
	}
}

func clip(s string) string {
	if len(s) > 40 {
		return s[:40] + "..."
	}
	return s
}
