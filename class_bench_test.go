package rxview_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"rxview"
)

// BenchmarkUpdateByClass times the write-heavy workload's update classes one
// at a time on a durable view of the §5 dataset at |C|=5000 (fsync on every
// commit, a checkpoint every 64): an insert under one rooted target
// C[key="r"]/sub, a value-selected insert //C[val="v"]/sub that hangs one
// new subtree under tens of targets, and the deletes //C[key="k"] of a key
// each kind of insert put in. Every iteration inserts a fresh key and
// deletes it again, so the view keeps its size; only the named class is
// timed, and its phases are reported from Report.Timings as µs per update.
// After every apply the view publishes, untimed, as a server does
// (View.Snapshot): the chunks the next write copies because a sealed epoch
// shares them are in its B/op.
func BenchmarkUpdateByClass(b *testing.B) {
	const nc = 5000
	syn, err := rxview.NewSynthetic(rxview.SyntheticConfig{NC: nc, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	v, err := rxview.Open(syn.ATG, syn.DB, rxview.WithDurability(b.TempDir()), rxview.WithCheckpointEvery(64))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { v.Close() })
	ctx := context.Background()

	// A rare value reaches tens of C nodes, as write-heavy's do.
	value := ""
	for i := nc / 50 / 5; i < nc/50 && value == ""; i++ {
		nodes, err := v.Query(ctx, fmt.Sprintf(`//C[val="v%d"]`, i))
		if err != nil {
			b.Fatal(err)
		}
		if len(nodes) > 0 {
			value = fmt.Sprintf("v%d", i)
		}
	}
	if value == "" {
		b.Fatal("no value selects a C node")
	}
	rooted := fmt.Sprintf(`C[key="%d"]/sub`, syn.Roots()[0])
	valued := fmt.Sprintf(`//C[val="%s"]/sub`, value)

	for _, c := range []struct {
		name, path  string
		timeDeletes bool
	}{
		{"rooted-insert", rooted, false},
		{"value-insert", valued, false},
		{"rooted-delete", rooted, true},
		{"value-delete", valued, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var sum rxview.Timings
			apply := func(u rxview.Update, timed bool) {
				if !timed {
					b.StopTimer()
				}
				rep, err := v.Apply(ctx, u)
				if err != nil || !rep.Applied {
					b.Fatalf("%s: applied %v: %v", u, rep.Applied, err)
				}
				b.StopTimer()
				v.Snapshot()
				b.StartTimer()
				if timed {
					sum.Eval += rep.Timings.Eval
					sum.XToDV += rep.Timings.XToDV
					sum.DVToDR += rep.Timings.DVToDR
					sum.Apply += rep.Timings.Apply
					sum.Maintain += rep.Timings.Maintain
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				key := syn.FreshKeys(1)[0]
				apply(rxview.Insert(c.path, "C", rxview.Int(key), rxview.Str(fmt.Sprintf("w%d", key))), !c.timeDeletes)
				apply(rxview.Delete(fmt.Sprintf(`//C[key="%d"]`, key)), c.timeDeletes)
			}
			perOp := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) / float64(b.N) }
			b.ReportMetric(perOp(sum.Eval), "eval_us/op")
			b.ReportMetric(perOp(sum.XToDV), "x_to_dv_us/op")
			b.ReportMetric(perOp(sum.DVToDR), "dv_to_dr_us/op")
			b.ReportMetric(perOp(sum.Apply), "apply_us/op")
			b.ReportMetric(perOp(sum.Maintain), "maintain_us/op")
		})
	}
}
