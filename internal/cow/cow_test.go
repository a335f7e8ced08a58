package cow

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// sealedAt pairs a Sealed with the plain copy of the model taken at its seal.
type sealedAt[T any] struct {
	view Sealed[T]
	want []T
}

// runModel drives an Array and a plain slice through the same random
// Push/Set/Truncate/Seal sequence and, after every operation, compares the
// array and every view sealed so far with what each must hold. Truncations
// cut below sealed lengths, so the pushes that follow land in slots sealed
// readers still see.
func runModel[T any](t *testing.T, seed int64, gen func(*rand.Rand) T, eq func(a, b T) bool) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	var a Array[T]
	var model []T
	var seals []sealedAt[T]

	same := func(what string, n int, at func(int) T, want []T) {
		t.Helper()
		if n != len(want) {
			t.Fatalf("seed %d: %s has %d elements, want %d", seed, what, n, len(want))
		}
		for i, w := range want {
			if !eq(at(i), w) {
				t.Fatalf("seed %d: %s[%d] = %v, want %v", seed, what, i, at(i), w)
			}
		}
	}
	for op := 0; op < 700; op++ {
		switch k := r.Intn(100); {
		case k < 55 || len(model) == 0:
			// Several at a time, so the array spans a few chunks early.
			for j := r.Intn(8); j >= 0; j-- {
				v := gen(r)
				a.Push(v)
				model = append(model, v)
			}
		case k < 85:
			i, v := r.Intn(len(model)), gen(r)
			a.Set(i, v)
			model[i] = v
		case k < 90:
			n := len(model)/2 + r.Intn(len(model)/2+1)
			a.Truncate(n)
			model = model[:n]
		default:
			seals = append(seals, sealedAt[T]{a.Seal(), slices.Clone(model)})
		}
		same("array", a.Len(), a.At, model)
		for _, s := range seals {
			same("sealed view", s.view.Len(), s.view.At, s.want)
		}
	}
}

// TestArrayMatchesSliceModel is the model test for the two element shapes
// the tree instantiates, adjacency rows and alive bits, and for a plain
// scalar.
func TestArrayMatchesSliceModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		runModel(t, seed, func(r *rand.Rand) []int32 {
			row := make([]int32, r.Intn(4))
			for i := range row {
				row[i] = r.Int31()
			}
			return row
		}, slices.Equal[[]int32])
		runModel(t, seed, func(r *rand.Rand) bool { return r.Intn(2) == 0 },
			func(a, b bool) bool { return a == b })
		runModel(t, seed, (*rand.Rand).Int31,
			func(a, b int32) bool { return a == b })
	}
}

// TestMethodInventory pins the exported surface to what the tests here
// drive (runModel's op table; SameChunk below). A method added to Array or
// Sealed without a case there is a path to the shared chunks that nothing
// holds to the package comment — an in-place store in it would go unseen.
func TestMethodInventory(t *testing.T) {
	for _, c := range []struct {
		typ  reflect.Type
		want []string // sorted, as reflect lists them
	}{
		{reflect.TypeFor[*Array[int]](), []string{"At", "Len", "Push", "Seal", "Set", "Truncate"}},
		{reflect.TypeFor[Sealed[int]](), []string{"At", "Len", "SameChunk"}},
	} {
		var got []string
		for i := 0; i < c.typ.NumMethod(); i++ {
			got = append(got, c.typ.Method(i).Name)
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%v has methods %v, the tests drive %v: add the method to the model's op table in runModel, then to this list",
				c.typ, got, c.want)
		}
	}
}

// TestOneWriteCopiesOneChunkAndOneBlock asserts the O(Δ) property on the
// structure itself, over an array wide enough to have two spine blocks: one
// write between two seals leaves every block and chunk but the written one
// shared, and an append beyond every sealed length copies nothing.
func TestOneWriteCopiesOneChunkAndOneBlock(t *testing.T) {
	var a Array[int32]
	const n = 1<<rowBlock + 3*ChunkSize
	for i := int32(0); i < n; i++ {
		a.Push(i)
	}
	copied := func(prev, next Sealed[int32]) (blocks, chunks int) {
		for bi := range prev.blocks {
			if prev.blocks[bi] != next.blocks[bi] {
				blocks++
			}
		}
		for i := 0; i < prev.Len(); i += ChunkSize {
			if !prev.SameChunk(next, i) {
				chunks++
			}
		}
		return blocks, chunks
	}
	s1 := a.Seal()
	a.Set(1<<rowBlock+ChunkSize+7, -1)
	a.Set(1<<rowBlock+ChunkSize+9, -2) // same chunk: owned already
	s2 := a.Seal()
	if b, c := copied(s1, s2); b != 1 || c != 1 {
		t.Errorf("one chunk written: %d blocks and %d chunks copied, want 1 and 1", b, c)
	}
	a.Push(n) // beyond every sealed length: written in place
	s3 := a.Seal()
	if b, c := copied(s2, s3); b != 0 || c != 0 {
		t.Errorf("append only: %d blocks and %d chunks copied, want none", b, c)
	}
	if s1.At(1<<rowBlock+ChunkSize+7) != 1<<rowBlock+ChunkSize+7 || s2.At(1<<rowBlock+ChunkSize+7) != -1 {
		t.Error("the write leaked into the earlier seal or missed the later one")
	}
}
