package relational

import (
	"fmt"

	"rxview/internal/slab"
)

// Relation is an in-memory instance of a table: a set of tuples with a
// primary-key hash index and lazily built secondary hash indexes.
type Relation struct {
	Schema *TableSchema

	rows  []Tuple // slot-addressed; nil means deleted slot
	byKey map[string]int
	free  []int // reusable slots
	count int
	size  int // Σ TupleLen over the live rows

	// written tracks the slot ranges a write touched since the last
	// checkpoint that landed (MarkClean).
	written CleanRanges

	// secondary indexes by column. Built on demand by IndexLookup and
	// maintained incrementally by Insert/Delete.
	secondary map[int]*index
}

// index is a secondary hash index on one column: the row slots that hold each
// value. The map leads to a bucket number and not to the bucket, so that
// maintaining a value the index knows already assigns nothing into the map —
// an assignment, unlike a lookup, has to allocate its key.
type index struct {
	ids     map[string]int32 // AppendKey of the value -> bucket
	buckets [][]int
}

func (ix *index) add(key []byte, slot int) {
	id, ok := ix.ids[string(key)]
	if !ok {
		id = int32(len(ix.buckets))
		ix.ids[string(key)] = id
		ix.buckets = append(ix.buckets, nil)
	}
	ix.buckets[id] = append(ix.buckets[id], slot)
}

func (ix *index) remove(key []byte, slot int) {
	id, ok := ix.ids[string(key)]
	if !ok {
		return
	}
	bucket := ix.buckets[id]
	for i, s := range bucket {
		if s == slot {
			bucket[i] = bucket[len(bucket)-1]
			ix.buckets[id] = bucket[:len(bucket)-1]
			return
		}
	}
}

// NewRelation returns an empty relation for the schema.
func NewRelation(ts *TableSchema) *Relation {
	return &Relation{Schema: ts, byKey: make(map[string]int)}
}

// Len returns the number of live tuples.
func (r *Relation) Len() int { return r.count }

// EncodedLen returns Σ TupleLen over the live tuples: the bytes AppendTuple
// writes for all of them, kept up to date by every mutation so that an
// encoder can size its buffer without a pass over the rows.
func (r *Relation) EncodedLen() int { return r.size }

// check refuses a tuple of the wrong arity or with a value whose kind does
// not match its column's type.
func (r *Relation) check(t Tuple) error {
	if len(t) != len(r.Schema.Columns) {
		return fmt.Errorf("relational: %s: insert arity %d, want %d", r.Schema.Name, len(t), len(r.Schema.Columns))
	}
	for i, v := range t {
		if v.K != r.Schema.Columns[i].Type && !v.IsNull() {
			return fmt.Errorf("relational: %s.%s: insert kind %v, want %v",
				r.Schema.Name, r.Schema.Columns[i].Name, v.K, r.Schema.Columns[i].Type)
		}
	}
	return nil
}

func (r *Relation) errDuplicate(t Tuple) error {
	return fmt.Errorf("relational: %s: duplicate key %s", r.Schema.Name, t.String())
}

// Insert adds a copy of a tuple. It returns an error if the arity is wrong, a
// value kind does not match the column type, or a tuple with the same key
// exists.
func (r *Relation) Insert(t Tuple) error {
	if err := r.check(t); err != nil {
		return err
	}
	var a [KeyBufLen]byte
	buf := AppendKey(a[:0], t, r.Schema.Key)
	if _, dup := r.byKey[string(buf)]; dup {
		return r.errDuplicate(t)
	}
	slot := -1
	if n := len(r.free); n > 0 {
		slot = r.free[n-1]
		r.free = r.free[:n-1]
		r.rows[slot] = t.Clone()
	} else {
		slot = len(r.rows)
		r.rows = append(r.rows, t.Clone())
	}
	r.written.Write(slot)
	r.byKey[string(buf)] = slot
	r.count++
	r.size += TupleLen(t)
	for col, ix := range r.secondary {
		ix.add(t[col].appendEncoded(buf[:0]), slot)
	}
	return nil
}

// Load fills an empty relation with rows, making every check Insert makes,
// and takes ownership of them — of the slice and of every tuple in it: they
// become the relation's storage uncopied, so the caller must not touch them
// again. It is how a decoded checkpoint table becomes a relation: the key
// index is sized to the row count and its keys share an arena. A relation
// that refused its rows is left empty.
func (r *Relation) Load(rows []Tuple) error {
	if len(r.rows) != 0 || r.secondary != nil {
		return fmt.Errorf("relational: %s: load into a relation in use", r.Schema.Name)
	}
	byKey := make(map[string]int, len(rows))
	var keys slab.Strings
	var a [KeyBufLen]byte
	buf := a[:0]
	size := 0
	for slot, t := range rows {
		if err := r.check(t); err != nil {
			return err
		}
		buf = AppendKey(buf[:0], t, r.Schema.Key)
		if _, dup := byKey[string(buf)]; dup {
			return r.errDuplicate(t)
		}
		byKey[keys.Add(buf)] = slot
		size += TupleLen(t)
	}
	r.rows, r.byKey, r.count, r.size = rows, byKey, len(rows), size
	r.written = CleanRanges{}
	return nil
}

// DeleteTuple removes the tuple with the same key as t (t must be full-arity).
func (r *Relation) DeleteTuple(t Tuple) bool {
	if len(t) != len(r.Schema.Columns) {
		return false
	}
	var a [KeyBufLen]byte
	return r.deleteEncoded(AppendKey(a[:0], t, r.Schema.Key))
}

// deleteEncoded removes the tuple with the encoded key k; it reuses k's
// backing as scratch once the key is out of the map. The encoded length it
// takes off is the stored row's: the caller's tuple may carry only the key,
// or non-key values the stored row does not.
func (r *Relation) deleteEncoded(k []byte) bool {
	slot, ok := r.byKey[string(k)]
	if !ok {
		return false
	}
	row := r.rows[slot]
	delete(r.byKey, string(k))
	r.rows[slot] = nil
	r.written.Write(slot)
	r.free = append(r.free, slot)
	r.count--
	r.size -= TupleLen(row)
	for col, ix := range r.secondary {
		ix.remove(row[col].appendEncoded(k[:0]), slot)
	}
	return true
}

// LookupKey returns the tuple with the given key values (in key-column order).
func (r *Relation) LookupKey(key Tuple) (Tuple, bool) {
	if len(key) != len(r.Schema.Key) {
		return nil, false
	}
	var a [KeyBufLen]byte
	slot, ok := r.byKey[string(AppendKey(a[:0], key, nil))]
	if !ok {
		return nil, false
	}
	return r.rows[slot], true
}

// Scan calls fn for every live tuple; iteration stops if fn returns false.
// The callback must not mutate the relation.
func (r *Relation) Scan(fn func(t Tuple) bool) {
	for _, row := range r.rows {
		if row == nil {
			continue
		}
		if !fn(row) {
			return
		}
	}
}

// Ranges is the number of slot ranges the relation's rows take: Scan order,
// cut every RangeLen slots.
func (r *Relation) Ranges() int { return RangeCount(len(r.rows)) }

// RangeClean reports whether no insertion or deletion touched a slot of range
// i since MarkClean.
func (r *Relation) RangeClean(i int) bool { return r.written.Clean(i) }

// AppendRange appends AppendTuple of each live row of range i to dst, in slot
// order: the rows Scan visits there.
func (r *Relation) AppendRange(dst []byte, i int) []byte {
	for _, row := range r.rows[i*RangeLen : min((i+1)*RangeLen, len(r.rows))] {
		if row != nil {
			dst = AppendTuple(dst, row)
		}
	}
	return dst
}

// MarkClean marks every range clean: a checkpoint holding the rows as they
// are now has landed.
func (r *Relation) MarkClean() { r.written.MarkClean(len(r.rows)) }

// Clone deep-copies the relation.
func (r *Relation) Clone() *Relation {
	out := NewRelation(r.Schema)
	r.Scan(func(t Tuple) bool {
		if err := out.Insert(t); err != nil {
			panic(err) // impossible: source relation has unique keys
		}
		return true
	})
	return out
}

// BuildIndex materializes the secondary hash index on a column (indexes are
// otherwise built on first lookup). Subsequent mutations maintain it
// incrementally. The build allocates per index, not per value: one pass
// numbers the buckets and counts them, keys going into an arena, and the
// second fills buckets cut to their exact size from a slab.
func (r *Relation) BuildIndex(col int) {
	if r.secondary == nil {
		r.secondary = make(map[int]*index)
	}
	if _, ok := r.secondary[col]; ok {
		return
	}
	ix := &index{ids: make(map[string]int32)}
	var keys slab.Strings
	var a [KeyBufLen]byte
	buf := a[:0]
	bucketOf := make([]int32, len(r.rows)) // per slot
	var sizes []int32
	for slot, row := range r.rows {
		if row == nil {
			continue
		}
		buf = row[col].appendEncoded(buf[:0])
		id, ok := ix.ids[string(buf)]
		if !ok {
			id = int32(len(sizes))
			ix.ids[keys.Add(buf)] = id
			sizes = append(sizes, 0)
		}
		bucketOf[slot] = id
		sizes[id]++
	}
	var slots slab.Of[int]
	ix.buckets = make([][]int, len(sizes))
	for id, n := range sizes {
		ix.buckets[id] = slots.Make(int(n))[:0]
	}
	for slot, row := range r.rows {
		if row != nil {
			ix.buckets[bucketOf[slot]] = append(ix.buckets[bucketOf[slot]], slot)
		}
	}
	r.secondary[col] = ix
}

// IndexLookup returns the tuples whose column col equals v, using the
// secondary hash index (built on demand).
func (r *Relation) IndexLookup(col int, v Value) []Tuple {
	r.BuildIndex(col)
	ix := r.secondary[col]
	var a [KeyBufLen]byte
	var slots []int
	if id, ok := ix.ids[string(v.appendEncoded(a[:0]))]; ok {
		slots = ix.buckets[id]
	}
	out := make([]Tuple, 0, len(slots))
	for _, s := range slots {
		if row := r.rows[s]; row != nil {
			out = append(out, row)
		}
	}
	return out
}
