package fault

import (
	"errors"
	"testing"
	"time"
)

func TestCatalogRegistered(t *testing.T) {
	for _, p := range Catalog() {
		if !Registered(p) {
			t.Errorf("catalog point %q not Registered", p)
		}
	}
	if Registered(Point{"wal.nonexistent"}) || Registered(Point{}) {
		t.Error("unknown point reported registered")
	}
}

func TestNewPlanRejectsUnknownPoint(t *testing.T) {
	if _, err := NewPlan(1, Rule{Point: Point{}}); err == nil {
		t.Fatal("NewPlan accepted an uncataloged point")
	}
}

func TestHitDisabledIsNil(t *testing.T) {
	Uninstall()
	if err := Hit(WALFsync); err != nil {
		t.Fatalf("Hit with no plan: %v", err)
	}
	if Active() {
		t.Fatal("Active with no plan installed")
	}
}

// TestAfterEveryCount checks the counting rule shape: skip After hits,
// then fire each Every'th, at most Count times.
func TestAfterEveryCount(t *testing.T) {
	p, err := NewPlan(7, Rule{Point: WALAppend, After: 2, Every: 3, Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	Install(p)
	t.Cleanup(Uninstall)
	var fires []int
	for i := 1; i <= 12; i++ {
		if err := Hit(WALAppend); err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("hit %d: error does not match ErrInjected: %v", i, err)
			}
			var ie *InjectedError
			if !errors.As(err, &ie) || ie.Point != WALAppend {
				t.Fatalf("hit %d: bad InjectedError: %v", i, err)
			}
			fires = append(fires, i)
		}
	}
	// Eligible from hit 3; every 3rd eligible hit fires: hits 5 and 8.
	want := []int{5, 8}
	if len(fires) != len(want) || fires[0] != want[0] || fires[1] != want[1] {
		t.Fatalf("fired at hits %v, want %v", fires, want)
	}
	if got := p.Fires()[WALAppend]; got != 2 {
		t.Fatalf("Fires() = %d, want 2", got)
	}
}

// TestSeedDeterminism: the same seed and hit sequence produce the same
// firing pattern for probabilistic rules; a different seed diverges.
func TestSeedDeterminism(t *testing.T) {
	pattern := func(seed int64) []bool {
		p, err := NewPlan(seed, Rule{Point: WALFsync, Prob: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]bool, 200)
		for i := range out {
			out[i] = p.hit(WALFsync) != nil
		}
		return out
	}
	a, b := pattern(42), pattern(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at hit %d", i)
		}
	}
	c := pattern(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical 200-hit patterns")
	}
}

func TestLatencyRuleStallsWithoutError(t *testing.T) {
	p, err := NewPlan(1, Rule{Point: WALSlowIO, Latency: 10 * time.Millisecond, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	Install(p)
	t.Cleanup(Uninstall)
	t0 := time.Now()
	if err := Hit(WALSlowIO); err != nil {
		t.Fatalf("latency rule returned an error: %v", err)
	}
	if d := time.Since(t0); d < 10*time.Millisecond {
		t.Fatalf("latency rule stalled only %v", d)
	}
	if err := Hit(WALSlowIO); err != nil {
		t.Fatalf("exhausted latency rule: %v", err)
	}
}

func TestParseSpec(t *testing.T) {
	rules, err := ParseSpec("wal.fsync:after=100,count=5; wal.slow-io:latency=5ms,every=10;storage.apply:prob=0.25")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 3 {
		t.Fatalf("got %d rules", len(rules))
	}
	if rules[0].Point != WALFsync || rules[0].After != 100 || rules[0].Count != 5 {
		t.Fatalf("rule 0 = %+v", rules[0])
	}
	if rules[1].Point != WALSlowIO || rules[1].Latency != 5*time.Millisecond || rules[1].Every != 10 {
		t.Fatalf("rule 1 = %+v", rules[1])
	}
	if rules[2].Point != StorageApply || rules[2].Prob != 0.25 {
		t.Fatalf("rule 2 = %+v", rules[2])
	}
	for _, bad := range []string{
		"", "nope", "wal.fsync:zap=1", "wal.fsync:prob=2", "wal.fsync:after=x",
		"wal.fsync:latency=-1s", "wal.fsync:after",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

// FuzzParseSpec feeds operator input — what `xviewd -chaos` hands over — to
// the spec grammar. Oracle: never a panic; a spec it accepts names only
// catalog points, with every option in range, and arms a plan.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"wal.fsync:after=100,count=5; wal.slow-io:latency=5ms,every=10;storage.apply:prob=0.25",
		"wal.disk-full:after=1,count=1;wal.checkpoint:count=8",
		"wal.append:count=1;wal.checkpoint",
		"", "nope", "wal.fsync:zap=1", "wal.fsync:prob=2", "wal.fsync:after=x",
		"wal.fsync:latency=-1s", "wal.fsync:after", "storage.apply:prob=NaN",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		rules, err := ParseSpec(spec)
		if err != nil {
			return
		}
		if len(rules) == 0 {
			t.Fatalf("%q: accepted with no rules", spec)
		}
		for _, r := range rules {
			if !Registered(r.Point) || r.After < 0 || r.Every < 0 || r.Count < 0 ||
				!(r.Prob >= 0 && r.Prob <= 1) || r.Latency < 0 {
				t.Fatalf("%q: accepted out of range: %+v", spec, r)
			}
		}
		if _, err := NewPlan(1, rules...); err != nil {
			t.Fatalf("%q: accepted, but NewPlan refuses it: %v", spec, err)
		}
	})
}
