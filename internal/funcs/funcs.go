// Package funcs evaluates NDlog expressions and implements the built-in
// function library (the "f_*" functions of the paper, e.g. f_concatPath
// for path-vector construction).
//
// Ownership: a SlotEnv is single-owner scratch state — the engine keeps
// one per node (nodes are single-threaded) and rewinds bindings through
// the slot-index trail rather than copying; values bound into it are
// immutable (val's invariant), so binding never copies and unbinding
// never frees. Compiled expressions (CompileExpr) are immutable after
// compilation and safe to share across nodes running the same program.
package funcs

import (
	"errors"
	"fmt"
	"slices"

	"ndlog/internal/ast"
	"ndlog/internal/val"
)

// Env binds variable names to values during rule evaluation.
type Env map[string]val.Value

// Clone copies the environment.
func (e Env) Clone() Env {
	ne := make(Env, len(e))
	for k, v := range e {
		ne[k] = v
	}
	return ne
}

// Errors returned by evaluation.
var (
	ErrUnboundVar  = errors.New("funcs: unbound variable")
	ErrType        = errors.New("funcs: type error")
	ErrDivByZero   = errors.New("funcs: division by zero")
	ErrUnknownFunc = errors.New("funcs: unknown function")
	ErrArity       = errors.New("funcs: wrong argument count")
)

// Eval evaluates an expression under the environment. Aggregate
// expressions are head-only and rejected here.
func Eval(e ast.Expr, env Env) (val.Value, error) {
	switch x := e.(type) {
	case *ast.Const:
		return x.Value, nil
	case *ast.Var:
		v, ok := env[x.Name]
		if !ok {
			return val.Nil, fmt.Errorf("%w: %s", ErrUnboundVar, x.Name)
		}
		return v, nil
	case *ast.BinOp:
		return evalBinOp(x, env)
	case *ast.Call:
		return evalCall(x, env)
	case *ast.Agg:
		return val.Nil, fmt.Errorf("%w: aggregate %s in scalar position", ErrType, x)
	}
	return val.Nil, fmt.Errorf("%w: unknown expression %T", ErrType, e)
}

// EvalBool evaluates a selection condition to a boolean.
func EvalBool(e ast.Expr, env Env) (bool, error) {
	v, err := Eval(e, env)
	if err != nil {
		return false, err
	}
	if v.Kind() != val.KindBool {
		return false, fmt.Errorf("%w: condition %s is %s, not bool", ErrType, e, v.Kind())
	}
	return v.Bool(), nil
}

func evalBinOp(b *ast.BinOp, env Env) (val.Value, error) {
	l, err := Eval(b.L, env)
	if err != nil {
		return val.Nil, err
	}
	// Short-circuit boolean operators.
	switch b.Op {
	case ast.OpAnd:
		if l.Kind() != val.KindBool {
			return val.Nil, fmt.Errorf("%w: && on %s", ErrType, l.Kind())
		}
		if !l.Bool() {
			return val.NewBool(false), nil
		}
		r, err := Eval(b.R, env)
		if err != nil {
			return val.Nil, err
		}
		if r.Kind() != val.KindBool {
			return val.Nil, fmt.Errorf("%w: && on %s", ErrType, r.Kind())
		}
		return r, nil
	case ast.OpOr:
		if l.Kind() != val.KindBool {
			return val.Nil, fmt.Errorf("%w: || on %s", ErrType, l.Kind())
		}
		if l.Bool() {
			return val.NewBool(true), nil
		}
		r, err := Eval(b.R, env)
		if err != nil {
			return val.Nil, err
		}
		if r.Kind() != val.KindBool {
			return val.Nil, fmt.Errorf("%w: || on %s", ErrType, r.Kind())
		}
		return r, nil
	}
	r, err := Eval(b.R, env)
	if err != nil {
		return val.Nil, err
	}
	if b.Op.IsComparison() {
		return evalComparison(b.Op, l, r)
	}
	return evalArith(b.Op, l, r)
}

func evalComparison(op ast.Op, l, r val.Value) (val.Value, error) {
	// Equality across numeric kinds compares numerically so "C == 0"
	// behaves naturally whether C is an int or float.
	var eq bool
	if l.IsNumeric() && r.IsNumeric() {
		eq = l.Float() == r.Float()
	} else {
		eq = l.Equal(r)
	}
	switch op {
	case ast.OpEq:
		return val.NewBool(eq), nil
	case ast.OpNe:
		return val.NewBool(!eq), nil
	}
	c, err := orderValues(l, r)
	if err != nil {
		return val.Nil, err
	}
	switch op {
	case ast.OpLt:
		return val.NewBool(c < 0), nil
	case ast.OpLe:
		return val.NewBool(c <= 0), nil
	case ast.OpGt:
		return val.NewBool(c > 0), nil
	case ast.OpGe:
		return val.NewBool(c >= 0), nil
	}
	return val.Nil, fmt.Errorf("%w: bad comparison op %v", ErrType, op)
}

// orderValues orders two values the way comparison operators do: mixed
// int/float compares numerically (the internal kind tie-break of
// Value.Compare is ignored on numeric ties), any other kind mix is a
// type error, and same-kind values use their natural Compare order —
// exact for int pairs, so values beyond 2^53 are not collapsed through
// float64.
func orderValues(l, r val.Value) (int, error) {
	if l.Kind() == r.Kind() {
		return l.Compare(r), nil
	}
	if l.IsNumeric() && r.IsNumeric() {
		if l.Float() == r.Float() {
			return 0, nil
		}
		return l.Compare(r), nil
	}
	return 0, fmt.Errorf("%w: ordering %s against %s", ErrType, l.Kind(), r.Kind())
}

func evalArith(op ast.Op, l, r val.Value) (val.Value, error) {
	// String concatenation via "+".
	if op == ast.OpAdd && l.Kind() == val.KindString && r.Kind() == val.KindString {
		return val.NewString(l.Str() + r.Str()), nil
	}
	if !l.IsNumeric() || !r.IsNumeric() {
		return val.Nil, fmt.Errorf("%w: %v %s %v", ErrType, l, op, r)
	}
	if l.Kind() == val.KindInt && r.Kind() == val.KindInt {
		a, b := l.Int(), r.Int()
		switch op {
		case ast.OpAdd:
			return val.NewInt(a + b), nil
		case ast.OpSub:
			return val.NewInt(a - b), nil
		case ast.OpMul:
			return val.NewInt(a * b), nil
		case ast.OpDiv:
			if b == 0 {
				return val.Nil, ErrDivByZero
			}
			return val.NewInt(a / b), nil
		case ast.OpMod:
			if b == 0 {
				return val.Nil, ErrDivByZero
			}
			return val.NewInt(a % b), nil
		}
	}
	a, b := l.Float(), r.Float()
	switch op {
	case ast.OpAdd:
		return val.NewFloat(a + b), nil
	case ast.OpSub:
		return val.NewFloat(a - b), nil
	case ast.OpMul:
		return val.NewFloat(a * b), nil
	case ast.OpDiv:
		if b == 0 {
			return val.Nil, ErrDivByZero
		}
		return val.NewFloat(a / b), nil
	case ast.OpMod:
		return val.Nil, fmt.Errorf("%w: %% on floats", ErrType)
	}
	return val.Nil, fmt.Errorf("%w: bad arithmetic op %v", ErrType, op)
}

// Builtin is the implementation of an f_* function.
type Builtin func(args []val.Value) (val.Value, error)

// listBuilder is the append form of a list-building builtin: it appends
// the elements of the list the builtin returns for args to dst and
// returns the extended slice. Like a Builtin it must not retain args.
// The engine evaluates a list that only its derived tuple reads straight
// into that tuple's array through this form (CompileAppender).
type listBuilder func(dst, args []val.Value) ([]val.Value, error)

// listBuilders holds the append form of every list-building builtin of
// the library; the library's Builtin for each wraps it (listBuiltin), so
// every list builtin has one implementation.
var listBuilders = map[string]listBuilder{
	"f_concatPath": appendConcatPath,
	"f_append":     appendAppend,
	"f_reverse":    appendReverse,
	"f_list":       appendList,
}

// builtins is the registry of NDlog built-in functions.
var builtins = map[string]Builtin{
	"f_concatPath": listBuiltin(appendConcatPath),
	"f_append":     listBuiltin(appendAppend),
	"f_member":     fMember,
	"f_size":       fSize,
	"f_first":      fFirst,
	"f_last":       fLast,
	"f_reverse":    listBuiltin(appendReverse),
	"f_list":       listBuiltin(appendList),
	"f_min":        fMin2,
	"f_max":        fMax2,
	"f_abs":        fAbs,
	"f_prevHop":    fPrevHop,
	"f_nth":        fNth,
}

// Register adds (or replaces) a builtin. Tools may extend the library.
// A replaced list builder loses its append form: programs compiled from
// then on call fn.
func Register(name string, fn Builtin) {
	builtins[name] = fn
	delete(listBuilders, name)
}

// listBuiltin is the ordinary Builtin of a list builder: its elements go
// into a fresh array that the returned list owns.
func listBuiltin(b listBuilder) Builtin {
	return func(args []val.Value) (val.Value, error) {
		elems, err := b(nil, args)
		if err != nil {
			return val.Nil, err
		}
		return val.NewList(elems...), nil
	}
}

// Lookup resolves a builtin by name.
func Lookup(name string) (Builtin, bool) {
	fn, ok := builtins[name]
	return fn, ok
}

func evalCall(c *ast.Call, env Env) (val.Value, error) {
	fn, ok := builtins[c.Name]
	if !ok {
		return val.Nil, fmt.Errorf("%w: %s", ErrUnknownFunc, c.Name)
	}
	args := make([]val.Value, len(c.Args))
	for i, a := range c.Args {
		v, err := Eval(a, env)
		if err != nil {
			return val.Nil, err
		}
		args[i] = v
	}
	v, err := fn(args)
	if err != nil {
		return val.Nil, fmt.Errorf("%s: %w", c.Name, err)
	}
	return v, nil
}

func need(args []val.Value, n int) error {
	if len(args) != n {
		return fmt.Errorf("%w: got %d, want %d", ErrArity, len(args), n)
	}
	return nil
}

func needList(v val.Value) ([]val.Value, error) {
	if v.Kind() != val.KindList {
		return nil, fmt.Errorf("%w: want list, got %s", ErrType, v.Kind())
	}
	return v.List(), nil
}

// appendConcatPath prepends its first argument to the list in its second
// argument, building path vectors front-to-back:
// f_concatPath(s, [z,d]) = [s,z,d].
func appendConcatPath(dst, args []val.Value) ([]val.Value, error) {
	if err := need(args, 2); err != nil {
		return dst, err
	}
	tail, err := needList(args[1])
	if err != nil {
		return dst, err
	}
	dst = slices.Grow(dst, len(tail)+1)
	return append(append(dst, args[0]), tail...), nil
}

// appendAppend appends its second argument to the list in its first
// argument.
func appendAppend(dst, args []val.Value) ([]val.Value, error) {
	if err := need(args, 2); err != nil {
		return dst, err
	}
	head, err := needList(args[0])
	if err != nil {
		return dst, err
	}
	dst = slices.Grow(dst, len(head)+1)
	return append(append(dst, head...), args[1]), nil
}

// fMember reports whether its second argument occurs in the list given as
// first argument. Used for loop avoidance in path-vector protocols.
func fMember(args []val.Value) (val.Value, error) {
	if err := need(args, 2); err != nil {
		return val.Nil, err
	}
	l, err := needList(args[0])
	if err != nil {
		return val.Nil, err
	}
	for i := range l {
		if l[i].Equal(args[1]) {
			return val.NewBool(true), nil
		}
	}
	return val.NewBool(false), nil
}

func fSize(args []val.Value) (val.Value, error) {
	if err := need(args, 1); err != nil {
		return val.Nil, err
	}
	l, err := needList(args[0])
	if err != nil {
		return val.Nil, err
	}
	return val.NewInt(int64(len(l))), nil
}

func fFirst(args []val.Value) (val.Value, error) {
	if err := need(args, 1); err != nil {
		return val.Nil, err
	}
	l, err := needList(args[0])
	if err != nil {
		return val.Nil, err
	}
	if len(l) == 0 {
		return val.Nil, errors.New("f_first of empty list")
	}
	return l[0], nil
}

func fLast(args []val.Value) (val.Value, error) {
	if err := need(args, 1); err != nil {
		return val.Nil, err
	}
	l, err := needList(args[0])
	if err != nil {
		return val.Nil, err
	}
	if len(l) == 0 {
		return val.Nil, errors.New("f_last of empty list")
	}
	return l[len(l)-1], nil
}

func appendReverse(dst, args []val.Value) ([]val.Value, error) {
	if err := need(args, 1); err != nil {
		return dst, err
	}
	l, err := needList(args[0])
	if err != nil {
		return dst, err
	}
	dst = slices.Grow(dst, len(l))
	for i := len(l) - 1; i >= 0; i-- {
		dst = append(dst, l[i])
	}
	return dst, nil
}

func appendList(dst, args []val.Value) ([]val.Value, error) {
	return append(dst, args...), nil
}

// fMin2 and fMax2 order their arguments the way comparison operators
// do (orderValues): mixed int/float compares numerically, mixed
// non-numeric kinds raise ErrType instead of silently ordering by the
// internal kind tag. Ties return the first argument.
func fMin2(args []val.Value) (val.Value, error) {
	if err := need(args, 2); err != nil {
		return val.Nil, err
	}
	c, err := orderValues(args[0], args[1])
	if err != nil {
		return val.Nil, err
	}
	if c <= 0 {
		return args[0], nil
	}
	return args[1], nil
}

func fMax2(args []val.Value) (val.Value, error) {
	if err := need(args, 2); err != nil {
		return val.Nil, err
	}
	c, err := orderValues(args[0], args[1])
	if err != nil {
		return val.Nil, err
	}
	if c >= 0 {
		return args[0], nil
	}
	return args[1], nil
}

// fNth returns the i-th element (0-based) of a list, or Nil when out of
// range. Path-vector programs use f_nth(P, 1) for the next hop.
func fNth(args []val.Value) (val.Value, error) {
	if err := need(args, 2); err != nil {
		return val.Nil, err
	}
	l, err := needList(args[0])
	if err != nil {
		return val.Nil, err
	}
	if args[1].Kind() != val.KindInt {
		return val.Nil, fmt.Errorf("%w: f_nth index must be int", ErrType)
	}
	i := args[1].Int()
	if i < 0 || i >= int64(len(l)) {
		return val.Nil, nil
	}
	return l[i], nil
}

// fPrevHop returns the element immediately preceding x in the list, or
// Nil when x is the first element or does not occur. Used by answer
// tuples walking a path vector backwards toward the source.
func fPrevHop(args []val.Value) (val.Value, error) {
	if err := need(args, 2); err != nil {
		return val.Nil, err
	}
	l, err := needList(args[0])
	if err != nil {
		return val.Nil, err
	}
	for i := 1; i < len(l); i++ {
		if l[i].Equal(args[1]) {
			return l[i-1], nil
		}
	}
	return val.Nil, nil
}

func fAbs(args []val.Value) (val.Value, error) {
	if err := need(args, 1); err != nil {
		return val.Nil, err
	}
	switch args[0].Kind() {
	case val.KindInt:
		if n := args[0].Int(); n < 0 {
			return val.NewInt(-n), nil
		}
		return args[0], nil
	case val.KindFloat:
		if f := args[0].Float(); f < 0 {
			return val.NewFloat(-f), nil
		}
		return args[0], nil
	}
	return val.Nil, fmt.Errorf("%w: f_abs on %s", ErrType, args[0].Kind())
}
