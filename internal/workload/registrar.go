// Package workload builds the datasets and update workloads of the paper:
// the registrar database of Example 1 (with the σ0 ATG of Fig.2) and the
// synthetic C/F/H/CU dataset of the experimental study (§5, Fig.10), plus
// the W1/W2/W3 update workload classes.
package workload

import (
	"fmt"

	"rxview/internal/atg"
	"rxview/internal/dtd"
	"rxview/internal/relational"
)

// Registrar bundles the Example 1 fixture.
type Registrar struct {
	Schema *relational.Schema
	DTD    *dtd.DTD
	ATG    *atg.Compiled
	DB     *relational.Database
}

// NewRegistrar builds the registrar schema R0, the recursive DTD D0, the
// ATG σ0 of Fig.2 and the instance used throughout the paper's examples
// (courses CS650 → CS320 → CS240, students S01/S02).
func NewRegistrar() (*Registrar, error) {
	schema, err := registrarSchema()
	if err != nil {
		return nil, err
	}
	d, err := registrarDTD()
	if err != nil {
		return nil, err
	}
	compiled, err := registrarATG(d, schema)
	if err != nil {
		return nil, err
	}
	db := relational.NewDatabase(schema)
	if err := seedRegistrar(db); err != nil {
		return nil, err
	}
	return &Registrar{Schema: schema, DTD: d, ATG: compiled, DB: db}, nil
}

func registrarSchema() (*relational.Schema, error) {
	str := relational.KindString
	course, err := relational.NewTableSchema("course", []relational.Column{
		{Name: "cno", Type: str},
		{Name: "title", Type: str},
		{Name: "dept", Type: str},
	}, "cno")
	if err != nil {
		return nil, err
	}
	student, err := relational.NewTableSchema("student", []relational.Column{
		{Name: "ssn", Type: str},
		{Name: "name", Type: str},
	}, "ssn")
	if err != nil {
		return nil, err
	}
	enroll, err := relational.NewTableSchema("enroll", []relational.Column{
		{Name: "ssn", Type: str},
		{Name: "cno", Type: str},
	}, "ssn", "cno")
	if err != nil {
		return nil, err
	}
	prereq, err := relational.NewTableSchema("prereq", []relational.Column{
		{Name: "cno1", Type: str},
		{Name: "cno2", Type: str},
	}, "cno1", "cno2")
	if err != nil {
		return nil, err
	}
	return relational.NewSchema(course, student, enroll, prereq)
}

func registrarDTD() (*dtd.DTD, error) {
	return dtd.Parse(`
<!ELEMENT db (course*)>
<!ELEMENT course (cno, title, prereq, takenBy)>
<!ELEMENT prereq (course*)>
<!ELEMENT takenBy (student*)>
<!ELEMENT student (ssn, name)>
<!ELEMENT cno (#PCDATA)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT ssn (#PCDATA)>
<!ELEMENT name (#PCDATA)>
`)
}

func registrarATG(d *dtd.DTD, s *relational.Schema) (*atg.Compiled, error) {
	str := relational.KindString
	qDBCourse := &relational.SPJ{
		Name: "Qdb_course",
		From: []relational.TableRef{{Table: "course"}},
		Where: []relational.EqPred{
			{Left: relational.Col(0, 2), Right: relational.Const(relational.Str("CS"))},
		},
		Selects: []relational.SelectItem{
			{As: "cno", Src: relational.Col(0, 0)},
			{As: "title", Src: relational.Col(0, 1)},
		},
	}
	qPrereqCourse := &relational.SPJ{
		Name:    "Qprereq_course",
		NParams: 1,
		From:    []relational.TableRef{{Table: "prereq"}, {Table: "course"}},
		Where: []relational.EqPred{
			{Left: relational.Col(0, 0), Right: relational.Param(0)},
			{Left: relational.Col(0, 1), Right: relational.Col(1, 0)},
		},
		Selects: []relational.SelectItem{
			{As: "cno", Src: relational.Col(1, 0)},
			{As: "title", Src: relational.Col(1, 1)},
		},
	}
	qTakenByStudent := &relational.SPJ{
		Name:    "QtakenBy_student",
		NParams: 1,
		From:    []relational.TableRef{{Table: "enroll"}, {Table: "student"}},
		Where: []relational.EqPred{
			{Left: relational.Col(0, 1), Right: relational.Param(0)},
			{Left: relational.Col(0, 0), Right: relational.Col(1, 0)},
		},
		Selects: []relational.SelectItem{
			{As: "ssn", Src: relational.Col(1, 0)},
			{As: "name", Src: relational.Col(1, 1)},
		},
	}
	return atg.NewBuilder(d, s).
		Attr("course", atg.Field("cno", str), atg.Field("title", str)).
		Attr("prereq", atg.Field("cno", str)).
		Attr("takenBy", atg.Field("cno", str)).
		Attr("student", atg.Field("ssn", str), atg.Field("name", str)).
		Attr("cno", atg.Field("v", str)).
		Attr("title", atg.Field("v", str)).
		Attr("ssn", atg.Field("v", str)).
		Attr("name", atg.Field("v", str)).
		QueryRule("db", "course", qDBCourse).
		ProjRule("course", "cno", atg.FromParent(0)).
		ProjRule("course", "title", atg.FromParent(1)).
		ProjRule("course", "prereq", atg.FromParent(0)).
		ProjRule("course", "takenBy", atg.FromParent(0)).
		QueryRule("prereq", "course", qPrereqCourse).
		QueryRule("takenBy", "student", qTakenByStudent).
		ProjRule("student", "ssn", atg.FromParent(0)).
		ProjRule("student", "name", atg.FromParent(1)).
		Build()
}

func seedRegistrar(db *relational.Database) error {
	str := relational.Str
	rows := []struct {
		table string
		vals  relational.Tuple
	}{
		{"course", relational.Tuple{str("CS650"), str("Advanced Topics"), str("CS")}},
		{"course", relational.Tuple{str("CS320"), str("Databases"), str("CS")}},
		{"course", relational.Tuple{str("CS240"), str("Algorithms"), str("CS")}},
		{"course", relational.Tuple{str("EE100"), str("Circuits"), str("EE")}},
		{"prereq", relational.Tuple{str("CS650"), str("CS320")}},
		{"prereq", relational.Tuple{str("CS320"), str("CS240")}},
		{"student", relational.Tuple{str("S01"), str("Ann")}},
		{"student", relational.Tuple{str("S02"), str("Bob")}},
		{"enroll", relational.Tuple{str("S01"), str("CS650")}},
		{"enroll", relational.Tuple{str("S02"), str("CS650")}},
		{"enroll", relational.Tuple{str("S02"), str("CS320")}},
	}
	for _, r := range rows {
		if err := db.Insert(r.table, r.vals); err != nil {
			return fmt.Errorf("workload: seed registrar: %w", err)
		}
	}
	return nil
}
