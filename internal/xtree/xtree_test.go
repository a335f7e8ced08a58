package xtree

import (
	"strings"
	"testing"
)

func TestSizeAndDepth(t *testing.T) {
	n := Sample()
	if got := n.Size(); got != 8 {
		t.Errorf("Size = %d", got)
	}
	if got := n.Depth(); got != 5 {
		t.Errorf("Depth = %d", got)
	}
	var nilNode *Node
	if nilNode.Size() != 0 || nilNode.Depth() != 0 {
		t.Error("nil node size/depth")
	}
}

func TestFindAndWalk(t *testing.T) {
	n := Sample()
	got := n.Find(func(m *Node) bool { return m.Type == "cno" && m.Text == "CS320" })
	if got == nil {
		t.Fatal("Find missed CS320")
	}
	if n.Find(func(m *Node) bool { return m.Type == "zzz" }) != nil {
		t.Error("Find invented a node")
	}
	count := 0
	n.Walk(func(m *Node) bool { count++; return true })
	if count != 8 {
		t.Errorf("Walk visited %d", count)
	}
	count = 0
	n.Walk(func(m *Node) bool { count++; return count < 3 })
	if count != 3 {
		t.Errorf("early-stop Walk visited %d", count)
	}
}

func TestStringValue(t *testing.T) {
	n := Sample()
	sv := n.Children[0].Children[0].StringValue()
	if sv != "CS650" {
		t.Errorf("StringValue(cno) = %q", sv)
	}
	if got := n.StringValue(); got != "CS650Advanced TopicsCS320Databases" {
		t.Errorf("StringValue(db) = %q", got)
	}
}

func TestXMLSerialization(t *testing.T) {
	n := Sample()
	xmlStr := n.XML()
	for _, want := range []string{
		"<db>", "</db>", "<cno>CS650</cno>", "<prereq>", "  <course>",
	} {
		if !strings.Contains(xmlStr, want) {
			t.Errorf("XML missing %q:\n%s", want, xmlStr)
		}
	}
	// Escaping.
	e := NewText("t", `a<b&"c"`)
	if out := e.XML(); !strings.Contains(out, "a&lt;b&amp;") {
		t.Errorf("XML not escaped: %s", out)
	}
	// Empty leaf renders self-closing.
	empty := NewElem("gap")
	if out := empty.XML(); !strings.Contains(out, "<gap/>") {
		t.Errorf("empty element = %s", out)
	}
}
