package relational

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	if !Null().IsNull() {
		t.Error("Null() should be null")
	}
	if Int(7).IsNull() {
		t.Error("Int(7) should not be null")
	}
	if v := Int(42); v.K != KindInt || v.I != 42 {
		t.Errorf("Int(42) = %+v", v)
	}
	if v := Str("x"); v.K != KindString || v.S != "x" {
		t.Errorf("Str(x) = %+v", v)
	}
	if v := Bool(true); !v.AsBool() {
		t.Error("Bool(true).AsBool() = false")
	}
	if v := Bool(false); v.AsBool() {
		t.Error("Bool(false).AsBool() = true")
	}
	if v := Var(3); !v.IsVar() || v.VarID() != 3 {
		t.Errorf("Var(3) = %+v", v)
	}
}

func TestValueEqual(t *testing.T) {
	cases := []struct {
		a, b Value
		want bool
	}{
		{Int(1), Int(1), true},
		{Int(1), Int(2), false},
		{Int(1), Str("1"), false},
		{Str("a"), Str("a"), true},
		{Str("a"), Str("b"), false},
		{Bool(true), Bool(true), true},
		{Bool(true), Bool(false), false},
		{Null(), Null(), true},
		{Null(), Int(0), false},
		{Var(1), Var(1), true},
		{Var(1), Var(2), false},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("%v.Equal(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestValueCompareTotalOrder(t *testing.T) {
	vals := []Value{Null(), Int(-5), Int(0), Int(5), Bool(false), Bool(true), Str(""), Str("a"), Str("ab")}
	for i, a := range vals {
		for j, b := range vals {
			c := a.Compare(b)
			switch {
			case i == j && c != 0:
				t.Errorf("Compare(%v,%v) = %d, want 0", a, b, c)
			case c != -b.Compare(a):
				t.Errorf("Compare not antisymmetric on %v,%v", a, b)
			}
		}
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Int(12), "12"},
		{Int(-3), "-3"},
		{Str("hello"), "hello"},
		{Bool(true), "true"},
		{Bool(false), "false"},
		{Null(), "NULL"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%#v.String() = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestParseValueRoundTrip(t *testing.T) {
	for _, v := range []Value{Int(99), Int(-1), Str("abc"), Bool(true), Bool(false)} {
		got, err := ParseValue(v.K, v.String())
		if err != nil {
			t.Fatalf("ParseValue(%v, %q): %v", v.K, v.String(), err)
		}
		if !got.Equal(v) {
			t.Errorf("round trip %v -> %v", v, got)
		}
	}
	if _, err := ParseValue(KindInt, "xyz"); err == nil {
		t.Error("ParseValue int xyz should fail")
	}
	if _, err := ParseValue(KindNull, "x"); err == nil {
		t.Error("ParseValue null should fail")
	}
}

// Property: the binary encoding is injective — equal encodings imply equal
// values. Uses testing/quick over randomized value pairs.
func TestValueEncodingInjective(t *testing.T) {
	gen := func(r *rand.Rand) Value {
		switch r.Intn(4) {
		case 0:
			return Int(int64(r.Intn(1000) - 500))
		case 1:
			return Str(string(rune('a' + r.Intn(26))))
		case 2:
			return Bool(r.Intn(2) == 0)
		default:
			return Null()
		}
	}
	cfg := &quick.Config{
		MaxCount: 2000,
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(gen(r))
			args[1] = reflect.ValueOf(gen(r))
		},
	}
	prop := func(a, b Value) bool {
		ea := string(a.appendEncoded(nil))
		eb := string(b.appendEncoded(nil))
		return (ea == eb) == a.Equal(b)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// Property: Renderings inverts String. Every value is among the renderings
// of its own text, and every rendering of a string renders back to it — for
// random values of all five kinds and for random strings drawn from the
// fragments that look like another kind's text.
func TestRenderingsInvertsString(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	num := func() int64 {
		switch r.Intn(4) {
		case 0:
			return int64(r.Intn(21) - 10)
		case 1:
			return r.Int63()
		case 2:
			return -r.Int63() - 1 // reaches math.MinInt64
		}
		return int64(r.Intn(1000))
	}
	frags := []string{"0", "7", "00", "-", "+", " ", "?z", "?", "z", "true", "false", "NULL", "null", "x", "9223372036854775808"}
	for i := 0; i < 5000; i++ {
		var v Value
		switch Kind(r.Intn(5)) {
		case KindNull:
			v = Null()
		case KindInt:
			v = Int(num())
		case KindBool:
			v = Bool(r.Intn(2) == 0)
		case KindString:
			var s string
			for n := r.Intn(4); n > 0; n-- {
				s += frags[r.Intn(len(frags))]
			}
			v = Str(s)
		case KindVar:
			v = Value{K: KindVar, I: num()}
		}
		if rs := Renderings(v.String(), nil); !slices.ContainsFunc(rs, v.Equal) {
			t.Errorf("%#v is not among the renderings %v of %q", v, rs, v.String())
		}

		var s string
		for n := r.Intn(4); n > 0; n-- {
			s += frags[r.Intn(len(frags))]
		}
		rs := Renderings(s, nil)
		if len(rs) == 0 || len(rs) > 2 {
			t.Errorf("Renderings(%q) = %v: want Str and at most one more", s, rs)
		}
		for _, w := range rs {
			if w.String() != s {
				t.Errorf("Renderings(%q) holds %#v, which renders %q", s, w, w.String())
			}
		}
	}
	for s, want := range map[string][]Value{
		"7": {Str("7"), Int(7)}, "-3": {Str("-3"), Int(-3)}, "?z4": {Str("?z4"), Var(4)},
		"true": {Str("true"), Bool(true)}, "NULL": {Str("NULL"), Null()},
		"007": {Str("007")}, "-0": {Str("-0")}, " 7": {Str(" 7")}, "+7": {Str("+7")}, "?z07": {Str("?z07")},
		"": {Str("")}, "True": {Str("True")},
	} {
		if got := Renderings(s, nil); !reflect.DeepEqual(got, want) {
			t.Errorf("Renderings(%q) = %v, want %v", s, got, want)
		}
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindNull: "null", KindInt: "int", KindBool: "bool", KindString: "string", KindVar: "var",
	} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}
