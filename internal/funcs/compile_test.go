package funcs

import (
	"errors"
	"slices"
	"testing"

	"ndlog/internal/ast"
	"ndlog/internal/val"
)

// slotTable builds a slotOf resolver plus a bound SlotEnv from
// name/value pairs, mimicking what the engine compiles per rule.
func slotTable(binds map[string]val.Value) (func(string) (int, bool), *SlotEnv) {
	names := make([]string, 0, len(binds))
	index := map[string]int{}
	for name := range binds {
		index[name] = len(names)
		names = append(names, name)
	}
	env := NewSlotEnv(len(names))
	for name, i := range index {
		env.Bind(i, binds[name])
	}
	return func(name string) (int, bool) { i, ok := index[name]; return i, ok }, env
}

func compiled(t *testing.T, src string, slotOf func(string) (int, bool)) *Compiled {
	t.Helper()
	c, err := CompileExpr(exprOf(t, src), slotOf)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	return c
}

func TestCompiledEvalMatchesMapEval(t *testing.T) {
	binds := map[string]val.Value{
		"A": val.NewInt(7), "B": val.NewInt(2), "F": val.NewFloat(0.5),
		"S": val.NewString("x"), "T": val.NewBool(true),
		"P": val.NewList(val.NewAddr("a"), val.NewAddr("b")),
	}
	slotOf, env := slotTable(binds)
	mapEnv := Env(binds)
	cases := []string{
		"X := A + B * 2",
		"X := (A + B) * 2",
		"X := A % B",
		"X := A + F",
		"X := f_concatPath(S, P)",
		"X := f_size(P)",
		"X := f_min(A, B)",
		"A < B || B > 4",
		"T && A > B",
		"S == \"x\"",
		"A == 7 && F < 1",
	}
	for _, src := range cases {
		e := exprOf(t, src)
		want, wantErr := Eval(e, mapEnv)
		c, err := CompileExpr(e, slotOf)
		if err != nil {
			t.Errorf("%s: compile: %v", src, err)
			continue
		}
		got, gotErr := c.Eval(env)
		if (wantErr == nil) != (gotErr == nil) {
			t.Errorf("%s: err %v vs %v", src, gotErr, wantErr)
			continue
		}
		if wantErr == nil && !got.Equal(want) {
			t.Errorf("%s: compiled %v, map %v", src, got, want)
		}
	}
}

func TestCompiledConstantFolding(t *testing.T) {
	slotOf, _ := slotTable(nil)
	c := compiled(t, "X := 2 + 3 * 4", slotOf)
	if _, ok := c.root.(cConst); !ok {
		t.Errorf("2+3*4 should fold to a constant, got %T", c.root)
	}
	v, err := c.Eval(nil)
	if err != nil || v.Int() != 14 {
		t.Errorf("folded value = %v, %v", v, err)
	}
	// Errors must not fold: 1/0 stays a runtime error.
	c = compiled(t, "X := 1 / 0", slotOf)
	if _, ok := c.root.(cConst); ok {
		t.Error("1/0 must not fold")
	}
	if _, err := c.Eval(NewSlotEnv(0)); !errors.Is(err, ErrDivByZero) {
		t.Errorf("1/0 err = %v", err)
	}
}

func TestCompiledUnboundVariable(t *testing.T) {
	slotOf, env := slotTable(map[string]val.Value{"A": val.NewInt(1)})
	// Variable with a slot but no binding at eval time.
	env.Unbind(0)
	c := compiled(t, "X := A + 1", slotOf)
	if _, err := c.Eval(env); !errors.Is(err, ErrUnboundVar) {
		t.Errorf("unbound slot err = %v", err)
	}
	// Variable with no slot at all fails at compile time.
	if _, err := CompileExpr(exprOf(t, "X := Missing + 1"), slotOf); !errors.Is(err, ErrUnboundVar) {
		t.Errorf("missing slot err = %v", err)
	}
}

func TestCompiledShortCircuit(t *testing.T) {
	slotOf, env := slotTable(map[string]val.Value{
		"F": val.NewBool(false), "T": val.NewBool(true), "U": val.NewInt(0),
	})
	// U is declared but left unbound: the RHS must not be evaluated.
	uSlot, _ := slotOf("U")
	env.Unbind(uSlot)
	ok, err := compiled(t, "F && U > 0", slotOf).EvalBool(env)
	if err != nil || ok {
		t.Errorf("false && ... = %v, %v", ok, err)
	}
	ok, err = compiled(t, "T || U > 0", slotOf).EvalBool(env)
	if err != nil || !ok {
		t.Errorf("true || ... = %v, %v", ok, err)
	}
	if _, err := compiled(t, "T && 1 + 1", slotOf).EvalBool(env); !errors.Is(err, ErrType) {
		t.Errorf("&& int RHS err = %v", err)
	}
}

func TestCompiledEvalBoolNonBool(t *testing.T) {
	slotOf, env := slotTable(nil)
	if _, err := compiled(t, "X := 1 + 1", slotOf).EvalBool(env); !errors.Is(err, ErrType) {
		t.Errorf("EvalBool on int err = %v", err)
	}
}

func TestCompiledAggregateRejected(t *testing.T) {
	slotOf, _ := slotTable(nil)
	if _, err := CompileExpr(&ast.Agg{Func: ast.AggMin, Var: "C"}, slotOf); !errors.Is(err, ErrType) {
		t.Errorf("aggregate compile err = %v", err)
	}
}

func TestCompiledLateBoundBuiltin(t *testing.T) {
	slotOf, env := slotTable(nil)
	// Compile before the builtin exists; Register afterwards.
	c := compiled(t, "X := f_late_bound_test()", slotOf)
	if _, err := c.Eval(env); !errors.Is(err, ErrUnknownFunc) {
		t.Errorf("pre-register err = %v", err)
	}
	Register("f_late_bound_test", func(args []val.Value) (val.Value, error) {
		return val.NewInt(99), nil
	})
	v, err := c.Eval(env)
	if err != nil || v.Int() != 99 {
		t.Errorf("late-bound call = %v, %v", v, err)
	}
}

func TestSlotEnvBasics(t *testing.T) {
	e := NewSlotEnv(130) // cross the 64-bit word boundary
	if e.Len() != 130 {
		t.Fatalf("Len = %d", e.Len())
	}
	for _, i := range []int{0, 63, 64, 129} {
		if e.Bound(i) {
			t.Errorf("slot %d bound before Bind", i)
		}
		e.Bind(i, val.NewInt(int64(i)))
		if !e.Bound(i) {
			t.Errorf("slot %d unbound after Bind", i)
		}
		if v, ok := e.Get(i); !ok || v.Int() != int64(i) {
			t.Errorf("Get(%d) = %v, %v", i, v, ok)
		}
		if v := e.Value(i); v.Int() != int64(i) {
			t.Errorf("Value(%d) = %v", i, v)
		}
	}
	e.Unbind(64)
	if e.Bound(64) {
		t.Error("slot 64 bound after Unbind")
	}
	if !e.Bound(0) || !e.Bound(63) || !e.Bound(129) {
		t.Error("Unbind(64) clobbered other slots")
	}
	e.Reset()
	for _, i := range []int{0, 63, 64, 129} {
		if e.Bound(i) {
			t.Errorf("slot %d bound after Reset", i)
		}
	}
}

// TestListBuilderAppendForms: each list builtin's append form appends
// exactly the elements its Builtin returns, after what dst already holds,
// and fails where the Builtin fails.
func TestListBuilderAppendForms(t *testing.T) {
	a, d := val.NewAddr("a"), val.NewAddr("d")
	l := val.NewList(val.NewAddr("b"), val.NewAddr("c"))
	cases := []struct {
		name string
		args []val.Value
	}{
		{"f_concatPath", []val.Value{a, l}},
		{"f_concatPath", []val.Value{a, val.NewList()}},
		{"f_concatPath", []val.Value{a, val.NewInt(1)}},
		{"f_append", []val.Value{l, d}},
		{"f_append", []val.Value{val.NewList(), d}},
		{"f_append", []val.Value{d, d}},
		{"f_reverse", []val.Value{l}},
		{"f_reverse", nil},
		{"f_list", []val.Value{a, l, d}},
		{"f_list", nil},
	}
	if len(listBuilders) != 4 {
		t.Errorf("%d list builders, want 4", len(listBuilders))
	}
	prefix := []val.Value{val.NewString("kept")}
	for _, tc := range cases {
		fn, _ := Lookup(tc.name)
		want, wantErr := fn(tc.args)
		got, err := listBuilders[tc.name](slices.Clone(prefix), tc.args)
		if (err != nil) != (wantErr != nil) {
			t.Errorf("%s%v: append form err %v, Builtin err %v", tc.name, tc.args, err, wantErr)
			continue
		}
		if err != nil {
			continue
		}
		if !got[0].Equal(prefix[0]) || !val.NewList(got[1:]...).Equal(want) {
			t.Errorf("%s%v: append form gave %v after the prefix, Builtin %v", tc.name, tc.args, got[1:], want)
		}
	}
}

// TestAppenderMatchesCompiledCall: a compiled list-builder call appends
// what the same call evaluates to; anything else — another builtin, or a
// library name Register-ed over — has no append form.
func TestAppenderMatchesCompiledCall(t *testing.T) {
	slotOf, env := slotTable(map[string]val.Value{
		"S": val.NewAddr("a"),
		"P": val.NewList(val.NewAddr("b"), val.NewAddr("c")),
	})
	for _, src := range []string{"X := f_concatPath(S, P)", "X := f_append(P, S)", "X := f_reverse(P)", "X := [S, P]"} {
		app, err := CompileAppender(exprOf(t, src), slotOf)
		if err != nil || app == nil {
			t.Fatalf("%s: CompileAppender = %v, %v", src, app, err)
		}
		want, err := compiled(t, src, slotOf).Eval(env)
		if err != nil {
			t.Fatal(err)
		}
		got, err := app.Append(nil, env)
		if err != nil || !val.NewList(got...).Equal(want) {
			t.Errorf("%s: Append = %v, %v; Eval = %v", src, got, err, want)
		}
	}
	if app, err := CompileAppender(exprOf(t, "X := f_size(P)"), slotOf); app != nil || err != nil {
		t.Errorf("f_size has an append form: %v, %v", app, err)
	}
	origFn, origApp := builtins["f_reverse"], listBuilders["f_reverse"]
	defer func() { builtins["f_reverse"], listBuilders["f_reverse"] = origFn, origApp }()
	Register("f_reverse", origFn)
	if app, _ := CompileAppender(exprOf(t, "X := f_reverse(P)"), slotOf); app != nil {
		t.Error("a Register-ed f_reverse kept the library's append form")
	}
}
