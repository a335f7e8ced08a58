package workload

import (
	"fmt"
	"math/rand"

	"rxview/internal/atg"
	"rxview/internal/dtd"
	"rxview/internal/relational"
)

// SyntheticConfig parameterizes the dataset of §5. The paper's generator is
// described, not fully specified; this one preserves its invariants: four
// base relations C, F, H, CU; |F| = |C|, |H| ≈ Fanout·(published C);
// h1 < h2 for every H tuple (guaranteeing an acyclic, hence DAG-compressible,
// view); recursive C nodes in the view defined by
// π(σ(C × F × H × CU)); and a tunable subtree-sharing fraction (the paper
// reports 31.4% shared C instances).
type SyntheticConfig struct {
	NC        int     // |C| (the size reported on the x-axes of Fig.11)
	Levels    int     // hierarchy depth; default 6
	Fanout    int     // H children per published C; default 3
	ShareFrac float64 // probability a child pick reuses an already-linked child; default 0.31
	ValueCard int     // number of distinct c6 filter values; default max(10, NC/50)
	FilterSel float64 // probability a C row passes the c2=f2 ∧ c3=f3 join filter; default 0.95
	Seed      int64
}

func (cfg SyntheticConfig) withDefaults() SyntheticConfig {
	if cfg.Levels <= 0 {
		cfg.Levels = 6
	}
	if cfg.Fanout <= 0 {
		cfg.Fanout = 3
	}
	if cfg.ShareFrac <= 0 {
		cfg.ShareFrac = 0.31
	}
	if cfg.ValueCard <= 0 {
		cfg.ValueCard = cfg.NC / 50
		if cfg.ValueCard < 10 {
			cfg.ValueCard = 10
		}
	}
	if cfg.FilterSel <= 0 {
		cfg.FilterSel = 0.95
	}
	return cfg
}

// Synthetic bundles the §5 dataset: schema, DTD, ATG and a generated
// instance.
type Synthetic struct {
	Config SyntheticConfig
	Schema *relational.Schema
	DTD    *dtd.DTD
	ATG    *atg.Compiled
	DB     *relational.Database

	// Edges lists the generated H pairs (h1, h2) for workload construction.
	Edges [][2]int64
	// Roots lists the level-0 keys (published at the top level).
	Roots []int64
	// NextKey is the first unused C key; update workloads allocate fresh
	// keys from here (fresh keys exceed all existing ones, so the h1 < h2
	// invariant is preserved by construction).
	NextKey int64
	// Pass[key] reports whether the key's C row passes the c2=f2 ∧ c3=f3
	// join filter (unpassing keys are pruned from the view).
	Pass []bool
}

const syntheticFillerCols = 10 // c7..c16 / f7..f16, matching the 16-ary schema

// NewSynthetic generates the dataset.
func NewSynthetic(cfg SyntheticConfig) (*Synthetic, error) {
	cfg = cfg.withDefaults()
	if cfg.NC < cfg.Levels {
		return nil, fmt.Errorf("workload: NC=%d smaller than Levels=%d", cfg.NC, cfg.Levels)
	}
	schema, err := syntheticSchema()
	if err != nil {
		return nil, err
	}
	d, err := syntheticDTD()
	if err != nil {
		return nil, err
	}
	compiled, err := syntheticATG(d, schema)
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	db := relational.NewDatabase(schema)
	s := &Synthetic{
		Config: cfg, Schema: schema, DTD: d, ATG: compiled, DB: db,
		NextKey: int64(cfg.NC) + 1,
	}

	// Assign keys 1..NC to levels by contiguous ranges, so level(l) keys
	// are all smaller than level(l+1) keys: every H edge goes one level
	// down and automatically satisfies h1 < h2. Level sizes grow
	// geometrically (ratio 2): with Fanout≈3 picks per parent this leaves
	// enough fresh children that the shared fraction lands near the
	// configured ShareFrac (the paper's 31.4%).
	bounds := make([]int64, cfg.Levels+1)
	bounds[0] = 1
	totalWeight := 0
	for l := 0; l < cfg.Levels; l++ {
		totalWeight += 1 << uint(l)
	}
	acc := int64(0)
	for l := 0; l < cfg.Levels; l++ {
		size := int64(cfg.NC * (1 << uint(l)) / totalWeight)
		if size < 1 {
			size = 1
		}
		acc += size
		bounds[l+1] = acc + 1
	}
	bounds[cfg.Levels] = int64(cfg.NC) + 1
	levelStart := func(l int) int64 { return bounds[l] }
	levelEnd := func(l int) int64 { return bounds[l+1] } // exclusive
	levelOf := func(key int64) int {
		for l := 0; l < cfg.Levels; l++ {
			if key < bounds[l+1] {
				return l
			}
		}
		return cfg.Levels - 1
	}

	cRel, fRel, hRel, cuRel := db.Rel("C"), db.Rel("F"), db.Rel("H"), db.Rel("CU")
	pass := make([]bool, cfg.NC+1)
	s.Pass = pass
	for key := int64(1); key <= int64(cfg.NC); key++ {
		level := levelOf(key)
		c2 := relational.Int(int64(rng.Intn(2)))
		c3 := relational.Int(int64(rng.Intn(2)))
		c5 := relational.Int(1)
		if level == 0 {
			c5 = relational.Int(0)
			s.Roots = append(s.Roots, key)
		}
		// Quadratically skewed value distribution: low-index values are
		// common, high-index ones rare — so the Fig.11(g) sweep can pick
		// values of any desired popularity.
		u := rng.Float64()
		c6 := relational.Str(fmt.Sprintf("v%d", int(u*u*float64(cfg.ValueCard))))
		row := relational.Tuple{
			relational.Int(key), c2, c3,
			relational.Int(int64(rng.Intn(1000))), c5, c6,
		}
		for i := 0; i < syntheticFillerCols; i++ {
			row = append(row, relational.Str("x"))
		}
		if err := cRel.Insert(row); err != nil {
			return nil, err
		}
		if err := cuRel.Insert(row.Clone()); err != nil {
			return nil, err
		}
		// F row: matches the C filter columns with probability FilterSel.
		f2, f3 := c2, c3
		pass[key] = true
		if rng.Float64() > cfg.FilterSel {
			f2 = relational.Int(1 - c2.I)
			pass[key] = false
		}
		fRow := relational.Tuple{
			relational.Int(key), f2, f3,
			relational.Int(int64(rng.Intn(1000))),
		}
		for i := 0; i < syntheticFillerCols+2; i++ {
			fRow = append(fRow, relational.Str("y"))
		}
		if err := fRel.Insert(fRow); err != nil {
			return nil, err
		}
	}

	// H edges: each key at level l links to ~Fanout children at level l+1;
	// a ShareFrac portion of picks reuses an already-linked child, creating
	// the shared subtrees the paper's view exhibits.
	seenEdge := map[[2]int64]bool{}
	for l := 0; l < cfg.Levels-1; l++ {
		lo, hi := levelStart(l+1), levelEnd(l+1)
		if hi <= lo {
			continue
		}
		var linked []int64
		var unlinked []int64
		for k := lo; k < hi; k++ {
			unlinked = append(unlinked, k)
		}
		rng.Shuffle(len(unlinked), func(i, j int) { unlinked[i], unlinked[j] = unlinked[j], unlinked[i] })
		for u := levelStart(l); u < levelEnd(l); u++ {
			for k := 0; k < cfg.Fanout; k++ {
				var child int64
				if len(linked) > 0 && (len(unlinked) == 0 || rng.Float64() < cfg.ShareFrac) {
					child = linked[rng.Intn(len(linked))]
				} else if len(unlinked) > 0 {
					child = unlinked[len(unlinked)-1]
					unlinked = unlinked[:len(unlinked)-1]
					linked = append(linked, child)
				} else {
					continue
				}
				e := [2]int64{u, child}
				if seenEdge[e] {
					continue
				}
				seenEdge[e] = true
				if err := hRel.Insert(relational.Tuple{relational.Int(u), relational.Int(child)}); err != nil {
					return nil, err
				}
				s.Edges = append(s.Edges, e)
			}
		}
	}
	return s, nil
}

func syntheticSchema() (*relational.Schema, error) {
	intK, str := relational.KindInt, relational.KindString
	bit := []relational.Value{relational.Int(0), relational.Int(1)}
	cCols := []relational.Column{
		{Name: "c1", Type: intK},
		{Name: "c2", Type: intK, Domain: bit},
		{Name: "c3", Type: intK, Domain: bit},
		{Name: "c4", Type: intK},
		{Name: "c5", Type: intK, Domain: bit},
		{Name: "c6", Type: str},
	}
	fCols := []relational.Column{
		{Name: "f1", Type: intK},
		{Name: "f2", Type: intK, Domain: bit},
		{Name: "f3", Type: intK, Domain: bit},
		{Name: "f4", Type: intK},
	}
	for i := 0; i < syntheticFillerCols; i++ {
		cCols = append(cCols, relational.Column{Name: fmt.Sprintf("c%d", 7+i), Type: str})
	}
	for i := 0; i < syntheticFillerCols+2; i++ {
		fCols = append(fCols, relational.Column{Name: fmt.Sprintf("f%d", 5+i), Type: str})
	}
	cuCols := make([]relational.Column, len(cCols))
	copy(cuCols, cCols)

	c, err := relational.NewTableSchema("C", cCols, "c1")
	if err != nil {
		return nil, err
	}
	f, err := relational.NewTableSchema("F", fCols, "f1")
	if err != nil {
		return nil, err
	}
	h, err := relational.NewTableSchema("H", []relational.Column{
		{Name: "h1", Type: intK},
		{Name: "h2", Type: intK},
	}, "h1", "h2")
	if err != nil {
		return nil, err
	}
	cu, err := relational.NewTableSchema("CU", cuCols, "c1")
	if err != nil {
		return nil, err
	}
	return relational.NewSchema(c, f, h, cu)
}

func syntheticDTD() (*dtd.DTD, error) {
	return dtd.Parse(`
<!ELEMENT db (C*)>
<!ELEMENT C (key, val, sub, info)>
<!ELEMENT sub (C*)>
<!ELEMENT info (item*)>
<!ELEMENT key (#PCDATA)>
<!ELEMENT val (#PCDATA)>
<!ELEMENT item (#PCDATA)>
`)
}

// syntheticATG is the view of Fig.10(a): db publishes the level-0 C's; a
// C's recursive children are
// π_{cu.c1, cu.c6}(σ_{h1=$C ∧ h2=cu.c1 ∧ f1=cu.c1 ∧ cu.c2=f2 ∧ cu.c3=f3}(H × CU × F)),
// matching the paper's π(σ(C × F × H × CU)) recursion.
func syntheticATG(d *dtd.DTD, s *relational.Schema) (*atg.Compiled, error) {
	intK, str := relational.KindInt, relational.KindString
	qRoot := &relational.SPJ{
		Name: "Qdb_C",
		From: []relational.TableRef{{Table: "C"}},
		Where: []relational.EqPred{
			{Left: relational.Col(0, 4), Right: relational.Const(relational.Int(0))}, // c5 = 0
		},
		Selects: []relational.SelectItem{
			{As: "c1", Src: relational.Col(0, 0)},
			{As: "c6", Src: relational.Col(0, 5)},
		},
	}
	qSub := &relational.SPJ{
		Name:    "Qsub_C",
		NParams: 1,
		From: []relational.TableRef{
			{Table: "H"}, {Table: "CU"}, {Table: "F"},
		},
		Where: []relational.EqPred{
			{Left: relational.Col(0, 0), Right: relational.Param(0)},  // h1 = $sub
			{Left: relational.Col(0, 1), Right: relational.Col(1, 0)}, // h2 = cu.c1
			{Left: relational.Col(2, 0), Right: relational.Col(1, 0)}, // f1 = cu.c1
			{Left: relational.Col(1, 1), Right: relational.Col(2, 1)}, // cu.c2 = f2
			{Left: relational.Col(1, 2), Right: relational.Col(2, 2)}, // cu.c3 = f3
		},
		Selects: []relational.SelectItem{
			{As: "c1", Src: relational.Col(1, 0)},
			{As: "c6", Src: relational.Col(1, 5)},
		},
	}
	qInfo := &relational.SPJ{
		Name:    "Qinfo_item",
		NParams: 1,
		From:    []relational.TableRef{{Table: "F"}},
		Where: []relational.EqPred{
			{Left: relational.Col(0, 0), Right: relational.Param(0)}, // f1 = $info
		},
		Selects: []relational.SelectItem{
			{As: "f1", Src: relational.Col(0, 0)},
			{As: "f4", Src: relational.Col(0, 3)},
		},
	}
	return atg.NewBuilder(d, s).
		Attr("C", atg.Field("c1", intK), atg.Field("c6", str)).
		Attr("sub", atg.Field("c1", intK)).
		Attr("info", atg.Field("c1", intK)).
		Attr("key", atg.Field("v", intK)).
		Attr("val", atg.Field("v", str)).
		Attr("item", atg.Field("f1", intK), atg.Field("f4", intK)).
		Text("item", 1).
		QueryRule("db", "C", qRoot).
		ProjRule("C", "key", atg.FromParent(0)).
		ProjRule("C", "val", atg.FromParent(1)).
		ProjRule("C", "sub", atg.FromParent(0)).
		ProjRule("C", "info", atg.FromParent(0)).
		QueryRule("sub", "C", qSub).
		QueryRule("info", "item", qInfo).
		Build()
}
