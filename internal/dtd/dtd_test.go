package dtd

import (
	"reflect"
	"strings"
	"testing"

	"rxview/internal/testkit"
)

// registrarDTD is D0 from Example 1 of the paper.
func registrarDTD(t *testing.T) *DTD {
	t.Helper()
	d, err := New("db", map[string]Production{
		"db":      {Kind: Star, Children: []string{"course"}},
		"course":  {Kind: Seq, Children: []string{"cno", "title", "prereq", "takenBy"}},
		"prereq":  {Kind: Star, Children: []string{"course"}},
		"takenBy": {Kind: Star, Children: []string{"student"}},
		"student": {Kind: Seq, Children: []string{"ssn", "name"}},
		"cno":     {Kind: PCData},
		"title":   {Kind: PCData},
		"ssn":     {Kind: PCData},
		"name":    {Kind: PCData},
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestValidateRejectsBadDTDs(t *testing.T) {
	cases := []struct {
		name  string
		root  string
		elems map[string]Production
	}{
		{"empty root", "", map[string]Production{"a": {Kind: Empty}}},
		{"undefined root", "x", map[string]Production{"a": {Kind: Empty}}},
		{"undefined child", "a", map[string]Production{"a": {Kind: Star, Children: []string{"b"}}}},
		{"star arity", "a", map[string]Production{"a": {Kind: Star, Children: []string{"a", "a"}}}},
		{"seq no children", "a", map[string]Production{"a": {Kind: Seq}}},
		{"pcdata with children", "a", map[string]Production{
			"a": {Kind: PCData, Children: []string{"b"}}, "b": {Kind: Empty}}},
		{"bad kind", "a", map[string]Production{"a": {Kind: ContentKind(99)}}},
	}
	for _, c := range cases {
		if _, err := New(c.root, c.elems); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestRecursionDetection(t *testing.T) {
	d := registrarDTD(t)
	if !d.IsRecursive() {
		t.Fatal("registrar DTD is recursive (course -> prereq -> course)")
	}
	rec := d.RecursiveTypes()
	if !reflect.DeepEqual(rec, []string{"course", "prereq"}) {
		t.Errorf("recursive types = %v", rec)
	}

	flat := testkit.Must(New("r", map[string]Production{
		"r": {Kind: Star, Children: []string{"a"}},
		"a": {Kind: PCData},
	}))
	if flat.IsRecursive() {
		t.Error("flat DTD reported recursive")
	}
}

func TestReachability(t *testing.T) {
	d := registrarDTD(t)
	cases := []struct {
		from, to string
		want     bool
	}{
		{"db", "student", true},
		{"db", "course", true},
		{"course", "course", true}, // via prereq
		{"student", "course", false},
		{"takenBy", "ssn", true},
		{"cno", "cno", false},
	}
	for _, c := range cases {
		if got := d.Reachable(c.from, c.to); got != c.want {
			t.Errorf("Reachable(%s,%s) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
}

func TestParentChildTypes(t *testing.T) {
	d := registrarDTD(t)
	if got := d.ChildTypes("course"); !reflect.DeepEqual(got, []string{"cno", "title", "prereq", "takenBy"}) {
		t.Errorf("ChildTypes(course) = %v", got)
	}
	if got := d.ParentTypes("course"); !reflect.DeepEqual(got, []string{"db", "prereq"}) {
		t.Errorf("ParentTypes(course) = %v", got)
	}
	if got := d.ParentTypes("db"); len(got) != 0 {
		t.Errorf("ParentTypes(db) = %v", got)
	}
}

func TestStringAndParseRoundTrip(t *testing.T) {
	d := registrarDTD(t)
	text := d.String()
	for _, want := range []string{
		"<!ELEMENT db (course)*>",
		"<!ELEMENT course (cno, title, prereq, takenBy)>",
		"<!ELEMENT cno (#PCDATA)>",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("String() missing %q in:\n%s", want, text)
		}
	}
	d2, err := Parse(text)
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if d2.Root != d.Root || !reflect.DeepEqual(d2.Elems, d.Elems) {
		t.Error("round trip changed the DTD")
	}
}

func TestParsePaperSyntax(t *testing.T) {
	// The DTD as written in the paper's Example 1 (with PCDATA elements
	// added, as the paper omits them for brevity).
	text := `
<!ELEMENT db (course*)>
<!ELEMENT course (cno, title, prereq, takenBy)>
<!ELEMENT prereq (course*)>
<!ELEMENT takenBy (student*)>
<!ELEMENT student (ssn, name)>
<!ELEMENT cno (#PCDATA)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT ssn (#PCDATA)>
<!ELEMENT name (#PCDATA)>
`
	d, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if d.Root != "db" {
		t.Errorf("root = %s", d.Root)
	}
	if d.Elems["db"].Kind != Star {
		t.Errorf("db production = %v", d.Elems["db"])
	}
	if d.Elems["course"].Kind != Seq || len(d.Elems["course"].Children) != 4 {
		t.Errorf("course production = %v", d.Elems["course"])
	}
	if !d.IsRecursive() {
		t.Error("parsed DTD should be recursive")
	}
}

func TestParseAlternationAndEmpty(t *testing.T) {
	d, err := Parse(`
<!ELEMENT doc (a | b)>
<!ELEMENT a EMPTY>
<!ELEMENT b (#PCDATA)>
`)
	if err != nil {
		t.Fatal(err)
	}
	if d.Elems["doc"].Kind != Alt {
		t.Errorf("doc = %v", d.Elems["doc"])
	}
	if d.Elems["a"].Kind != Empty {
		t.Errorf("a = %v", d.Elems["a"])
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",                 // nothing
		"<!ELEMENT a (b*)", // unterminated
		"<!ELEMENT a>",     // no spec
		"<!ELEMENT a (b, c | d)> <!ELEMENT b EMPTY> <!ELEMENT c EMPTY> <!ELEMENT d EMPTY>", // mixed
		"<!ELEMENT a (b?)> <!ELEMENT b EMPTY>",                                             // unsupported operator
		"<!ELEMENT a ((b, c)*)> <!ELEMENT b EMPTY> <!ELEMENT c EMPTY>",                     // star of group
		"<!ELEMENT a (#PCDATA)*>",                                                          // pcdata star
		"<!ELEMENT a (b)> <!ELEMENT a (b)> <!ELEMENT b EMPTY>",                             // duplicate
		"<!ELEMENT a (b,)> <!ELEMENT b EMPTY>",                                             // empty component
		"<!ELEMENT a b> <!ELEMENT b EMPTY>",                                                // missing parens
	}
	for _, text := range cases {
		if _, err := Parse(text); err == nil {
			t.Errorf("Parse(%q) accepted", text)
		}
	}
}

func TestParseSingleChildSeq(t *testing.T) {
	d, err := Parse("<!ELEMENT a (b)> <!ELEMENT b (#PCDATA)>")
	if err != nil {
		t.Fatal(err)
	}
	if p := d.Elems["a"]; p.Kind != Seq || len(p.Children) != 1 || p.Children[0] != "b" {
		t.Errorf("a = %v", p)
	}
}

func TestContentKindString(t *testing.T) {
	for k, want := range map[ContentKind]string{
		PCData: "PCDATA", Empty: "EMPTY", Seq: "sequence", Alt: "alternation", Star: "star",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
}
