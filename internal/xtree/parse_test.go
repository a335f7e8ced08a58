package xtree_test

import (
	"testing"

	"rxview/internal/testkit"
	"rxview/internal/xtree"
)

func TestEqual(t *testing.T) {
	a, b := xtree.Sample(), xtree.Sample()
	if !testkit.EqualTrees(a, b) {
		t.Error("identical trees not equal")
	}
	b.Children[0].Children[0].Text = "CS999"
	if testkit.EqualTrees(a, b) {
		t.Error("different trees equal")
	}
	if testkit.EqualTrees(a, nil) {
		t.Error("tree equal to nil")
	}
	var n1, n2 *xtree.Node
	if !testkit.EqualTrees(n1, n2) {
		t.Error("nil trees should be equal")
	}
	c := xtree.Sample()
	c.Children[0].Children = c.Children[0].Children[:2]
	if testkit.EqualTrees(a, c) {
		t.Error("trees with different child counts equal")
	}
}

func TestParseRoundTrip(t *testing.T) {
	orig := xtree.Sample()
	parsed, err := testkit.ParseXML(orig.XML())
	if err != nil {
		t.Fatal(err)
	}
	if !testkit.EqualTrees(orig, parsed) {
		t.Errorf("round trip changed tree:\n%s\nvs\n%s", orig.XML(), parsed.XML())
	}
}

func TestParseEscapedText(t *testing.T) {
	n, err := testkit.ParseXML("<t>a&lt;b&amp;c</t>")
	if err != nil {
		t.Fatal(err)
	}
	if n.Text != "a<b&c" {
		t.Errorf("text = %q", n.Text)
	}
}

func TestParseSelfClosing(t *testing.T) {
	n, err := testkit.ParseXML("<a><b/><c></c></a>")
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Children) != 2 || n.Children[0].Type != "b" {
		t.Errorf("tree = %s", n.XML())
	}
}

func TestParseIgnoresCommentsAndPIs(t *testing.T) {
	n, err := testkit.ParseXML(`<?xml version="1.0"?><!-- hi --><a><b>x</b></a>`)
	if err != nil {
		t.Fatal(err)
	}
	if n.Type != "a" || n.Children[0].Text != "x" {
		t.Errorf("tree = %s", n.XML())
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{
		"",                // empty
		"<a>",             // unterminated
		"<a></b>",         // mismatched
		`<a x="1"/>`,      // attributes
		"<a/><b/>",        // multiple roots
		"<a>text<b/></a>", // mixed content
		"text",            // text outside root
	} {
		if _, err := testkit.ParseXML(in); err == nil {
			t.Errorf("testkit.ParseXML(%q) accepted", in)
		}
	}
}

func TestParseRegistrarView(t *testing.T) {
	// A published view fragment parses back to an equal tree.
	doc := `
<db>
  <course>
    <cno>CS650</cno>
    <title>Advanced Topics</title>
    <prereq>
      <course>
        <cno>CS320</cno>
        <title>Databases</title>
        <prereq/>
        <takenBy/>
      </course>
    </prereq>
    <takenBy/>
  </course>
</db>`
	n, err := testkit.ParseXML(doc)
	if err != nil {
		t.Fatal(err)
	}
	if n.Size() != 11 {
		t.Errorf("size = %d", n.Size())
	}
	reparsed, err := testkit.ParseXML(n.XML())
	if err != nil {
		t.Fatal(err)
	}
	if !testkit.EqualTrees(n, reparsed) {
		t.Error("serialize/parse not stable")
	}
}
