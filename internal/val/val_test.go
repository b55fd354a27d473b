package val

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNil: "nil", KindAddr: "addr", KindInt: "int", KindFloat: "float",
		KindString: "string", KindBool: "bool", KindList: "list",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if got := Kind(99).String(); got != "kind(99)" {
		t.Errorf("unknown kind = %q", got)
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if v := NewAddr("n1"); v.Kind() != KindAddr || v.Addr() != "n1" {
		t.Errorf("NewAddr roundtrip failed: %v", v)
	}
	if v := NewInt(-42); v.Kind() != KindInt || v.Int() != -42 {
		t.Errorf("NewInt roundtrip failed: %v", v)
	}
	if v := NewFloat(2.5); v.Kind() != KindFloat || v.Float() != 2.5 {
		t.Errorf("NewFloat roundtrip failed: %v", v)
	}
	if v := NewString("x"); v.Kind() != KindString || v.Str() != "x" {
		t.Errorf("NewString roundtrip failed: %v", v)
	}
	if v := NewBool(true); v.Kind() != KindBool || !v.Bool() {
		t.Errorf("NewBool(true) failed: %v", v)
	}
	if v := NewBool(false); v.Bool() {
		t.Errorf("NewBool(false) failed: %v", v)
	}
	l := NewList(NewInt(1), NewInt(2))
	if l.Kind() != KindList || len(l.List()) != 2 {
		t.Errorf("NewList failed: %v", l)
	}
	if !Nil.IsNil() || NewInt(0).IsNil() {
		t.Error("IsNil misbehaves")
	}
}

func TestAccessorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("Addr", func() { NewInt(1).Addr() })
	mustPanic("Int", func() { NewString("x").Int() })
	mustPanic("Float", func() { NewString("x").Float() })
	mustPanic("Str", func() { NewInt(1).Str() })
	mustPanic("Bool", func() { NewInt(1).Bool() })
	mustPanic("List", func() { NewInt(1).List() })
}

func TestFloatOnInt(t *testing.T) {
	if got := NewInt(3).Float(); got != 3.0 {
		t.Errorf("NewInt(3).Float() = %v", got)
	}
}

func TestEqual(t *testing.T) {
	cases := []struct {
		a, b Value
		want bool
	}{
		{Nil, Nil, true},
		{NewInt(1), NewInt(1), true},
		{NewInt(1), NewInt(2), false},
		{NewInt(1), NewFloat(1), false}, // kind-sensitive equality
		{NewAddr("a"), NewAddr("a"), true},
		{NewAddr("a"), NewString("a"), false},
		{NewBool(true), NewBool(true), true},
		{NewBool(true), NewBool(false), false},
		{NewFloat(2.5), NewFloat(2.5), true},
		{NewList(NewInt(1)), NewList(NewInt(1)), true},
		{NewList(NewInt(1)), NewList(NewInt(2)), false},
		{NewList(NewInt(1)), NewList(NewInt(1), NewInt(2)), false},
		{NewList(), NewList(), true},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("%v.Equal(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := c.b.Equal(c.a); got != c.want {
			t.Errorf("Equal not symmetric for %v, %v", c.a, c.b)
		}
	}
}

func TestCompareOrdering(t *testing.T) {
	// A sorted sequence; every earlier element must compare < every later.
	seq := []Value{
		Nil,
		NewAddr("a"), NewAddr("b"),
		NewInt(-1),
		NewInt(3), NewFloat(3.5), NewInt(4),
		NewString("a"), NewString("b"),
		NewBool(false), NewBool(true),
		NewList(), NewList(NewInt(1)), NewList(NewInt(1), NewInt(2)), NewList(NewInt(2)),
	}
	for i := range seq {
		for j := range seq {
			got := seq[i].Compare(seq[j])
			var want int
			switch {
			case i < j:
				want = -1
			case i > j:
				want = 1
			}
			if got != want {
				t.Errorf("Compare(%v, %v) = %d, want %d", seq[i], seq[j], got, want)
			}
		}
	}
}

func TestCompareNumericCrossKind(t *testing.T) {
	if NewInt(3).Compare(NewFloat(3.5)) != -1 {
		t.Error("3 should compare < 3.5")
	}
	if NewFloat(2.5).Compare(NewInt(2)) != 1 {
		t.Error("2.5 should compare > 2")
	}
	// Equal numeric value, differing kind: ties broken by kind for totality.
	if NewInt(3).Compare(NewFloat(3)) == 0 {
		t.Error("int 3 vs float 3 must not compare equal (Equal is kind-sensitive)")
	}
}

func TestHashEqualConsistency(t *testing.T) {
	pairs := [][2]Value{
		{NewInt(7), NewInt(7)},
		{NewAddr("x"), NewAddr("x")},
		{NewList(NewInt(1), NewString("s")), NewList(NewInt(1), NewString("s"))},
		{NewFloat(1.25), NewFloat(1.25)},
	}
	for _, p := range pairs {
		if p[0].Hash() != p[1].Hash() {
			t.Errorf("equal values hash differently: %v", p[0])
		}
	}
	if NewAddr("a").Hash() == NewString("a").Hash() {
		t.Error("addr and string with same payload should hash differently")
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Nil, "nil"},
		{NewAddr("n3"), "n3"},
		{NewInt(-5), "-5"},
		{NewFloat(2.5), "2.5"},
		{NewString("hi"), `"hi"`},
		{NewBool(true), "true"},
		{NewBool(false), "false"},
		{NewList(NewInt(1), NewAddr("a")), "[1,a]"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%#v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestSortValues(t *testing.T) {
	vs := []Value{NewInt(3), NewInt(1), NewInt(2)}
	SortValues(vs)
	for i, want := range []int64{1, 2, 3} {
		if vs[i].Int() != want {
			t.Fatalf("SortValues order wrong: %v", vs)
		}
	}
}

// edgeValues are the payloads the compact layout could get wrong: zero
// lengths (nil pointer word), both zeros, NaNs of different payloads,
// infinities, and the integer extremes.
var edgeValues = []Value{
	NewString(""), NewAddr(""), NewList(), NewList(NewList(), NewString("")),
	NewFloat(0), NewFloat(math.Copysign(0, -1)),
	NewFloat(math.NaN()), NewFloat(math.Float64frombits(0xFFF0000000000BAD)),
	NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)),
	NewInt(math.MinInt64), NewInt(math.MaxInt64), NewInt(0),
	NewFloat(float64(math.MaxInt64)), NewFloat(1 << 53), NewInt(1<<53 + 1),
}

// randomValue builds a random value of bounded depth for property tests.
func randomValue(r *rand.Rand, depth int) Value {
	k := r.Intn(8)
	if depth <= 0 && k == 6 {
		k = r.Intn(6)
	}
	switch k {
	case 7:
		return edgeValues[r.Intn(len(edgeValues))]
	case 0:
		return Nil
	case 1:
		return NewAddr(randomName(r))
	case 2:
		return NewInt(r.Int63n(2000) - 1000)
	case 3:
		return NewFloat(math.Round(r.Float64()*1000) / 8)
	case 4:
		return NewString(randomName(r))
	case 5:
		return NewBool(r.Intn(2) == 0)
	default:
		n := r.Intn(4)
		vs := make([]Value, n)
		for i := range vs {
			vs[i] = randomValue(r, depth-1)
		}
		return NewList(vs...)
	}
}

func randomName(r *rand.Rand) string {
	const alpha = "abcdefgh"
	n := 1 + r.Intn(6)
	b := make([]byte, n)
	for i := range b {
		b[i] = alpha[r.Intn(len(alpha))]
	}
	return string(b)
}

func TestPropertyCompareTotalOrder(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		a, b, c := randomValue(r, 2), randomValue(r, 2), randomValue(r, 2)
		// Antisymmetry.
		if a.Compare(b) != -b.Compare(a) {
			t.Fatalf("antisymmetry violated: %v vs %v", a, b)
		}
		// Reflexivity / consistency with Equal.
		if (a.Compare(b) == 0) != a.Equal(b) {
			t.Fatalf("Compare==0 disagrees with Equal: %v vs %v", a, b)
		}
		// Transitivity (only check the <= chain).
		if a.Compare(b) <= 0 && b.Compare(c) <= 0 && a.Compare(c) > 0 {
			t.Fatalf("transitivity violated: %v, %v, %v", a, b, c)
		}
	}
}

func TestPropertyHashEqual(t *testing.T) {
	f := func(i int64, s string) bool {
		a, b := NewInt(i), NewInt(i)
		if a.Hash() != b.Hash() {
			return false
		}
		x, y := NewString(s), NewString(s)
		return x.Hash() == y.Hash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
