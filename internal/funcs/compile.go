package funcs

import (
	"fmt"

	"ndlog/internal/ast"
	"ndlog/internal/val"
)

// SlotEnv is a slot-addressed unification environment: one value per
// compile-time variable slot plus a bound bitset. The engine numbers
// every variable of a rule at compile time (planner.AssignSlots) and
// evaluates the rule's strands over a SlotEnv, so binding, lookup and
// unbinding on the join hot path are slice/bit operations instead of
// string-map hashing. The map-based Env API remains for tools that
// evaluate ad-hoc expressions.
type SlotEnv struct {
	vals  []val.Value
	bound []uint64
	// args is the builtin-call argument arena: compiled calls push their
	// evaluated arguments here (stack discipline, so nested calls
	// compose) instead of keeping scratch on the shared compiled
	// expression. Compiled programs are shared by every node — and, under
	// parallel drains, by every worker — so the only per-evaluation
	// mutable state lives in the environment, which is per-worker.
	args []val.Value
}

// NewSlotEnv returns an environment with capacity for n slots, all
// unbound.
func NewSlotEnv(n int) *SlotEnv {
	return &SlotEnv{
		vals:  make([]val.Value, n),
		bound: make([]uint64, (n+63)/64),
	}
}

// Len returns the slot capacity.
func (e *SlotEnv) Len() int { return len(e.vals) }

// Reset unbinds every slot. Stale values stay in vals until rebound;
// they are bounded by the rule's slot count and never observable
// through Get.
func (e *SlotEnv) Reset() {
	for i := range e.bound {
		e.bound[i] = 0
	}
}

// Bound reports whether slot i holds a binding.
func (e *SlotEnv) Bound(i int) bool {
	return e.bound[uint(i)>>6]&(1<<(uint(i)&63)) != 0
}

// Get returns the binding of slot i.
func (e *SlotEnv) Get(i int) (val.Value, bool) {
	if !e.Bound(i) {
		return val.Nil, false
	}
	return e.vals[i], true
}

// Value returns slot i's value without a bound check; callers use it
// where bound-ness is structurally guaranteed (e.g. probe plans).
func (e *SlotEnv) Value(i int) val.Value { return e.vals[i] }

// Bind sets slot i. Rebinding a bound slot is the caller's bug; the
// engine's unification checks equality instead of rebinding.
func (e *SlotEnv) Bind(i int, v val.Value) {
	e.vals[i] = v
	e.bound[uint(i)>>6] |= 1 << (uint(i) & 63)
}

// Unbind clears slot i (trail unwinding).
func (e *SlotEnv) Unbind(i int) {
	e.bound[uint(i)>>6] &^= 1 << (uint(i) & 63)
}

// Compiled is an expression lowered against a rule's slot numbering:
// variable references resolved to slot indices, constant subexpressions
// folded, builtins pre-resolved. It evaluates over a SlotEnv with no
// map operations.
type Compiled struct {
	root cexpr
}

// CompileExpr lowers e, resolving variable names through slotOf. It
// fails on aggregate expressions (head-only, handled by the engine) and
// on variables slotOf cannot resolve.
func CompileExpr(e ast.Expr, slotOf func(name string) (int, bool)) (*Compiled, error) {
	root, err := compileExpr(e, slotOf)
	if err != nil {
		return nil, err
	}
	return &Compiled{root: root}, nil
}

// Eval evaluates the compiled expression under env.
func (c *Compiled) Eval(env *SlotEnv) (val.Value, error) {
	return c.root.eval(env)
}

// EvalBool evaluates a compiled selection condition to a boolean.
func (c *Compiled) EvalBool(env *SlotEnv) (bool, error) {
	v, err := c.root.eval(env)
	if err != nil {
		return false, err
	}
	if v.Kind() != val.KindBool {
		return false, fmt.Errorf("%w: condition is %s, not bool", ErrType, v.Kind())
	}
	return v.Bool(), nil
}

// cexpr is one node of a compiled expression tree.
type cexpr interface {
	eval(env *SlotEnv) (val.Value, error)
}

type cConst struct{ v val.Value }

func (c cConst) eval(*SlotEnv) (val.Value, error) { return c.v, nil }

type cSlot struct {
	slot int
	name string // for unbound-variable error messages
}

func (c cSlot) eval(env *SlotEnv) (val.Value, error) {
	if v, ok := env.Get(c.slot); ok {
		return v, nil
	}
	return val.Nil, fmt.Errorf("%w: %s", ErrUnboundVar, c.name)
}

type cBin struct {
	op   ast.Op
	l, r cexpr
}

func (b cBin) eval(env *SlotEnv) (val.Value, error) {
	l, err := b.l.eval(env)
	if err != nil {
		return val.Nil, err
	}
	switch b.op {
	case ast.OpAnd, ast.OpOr:
		if l.Kind() != val.KindBool {
			return val.Nil, fmt.Errorf("%w: %s on %s", ErrType, b.op, l.Kind())
		}
		// Short-circuit, mirroring evalBinOp.
		if l.Bool() != (b.op == ast.OpAnd) {
			return l, nil
		}
		r, err := b.r.eval(env)
		if err != nil {
			return val.Nil, err
		}
		if r.Kind() != val.KindBool {
			return val.Nil, fmt.Errorf("%w: %s on %s", ErrType, b.op, r.Kind())
		}
		return r, nil
	}
	r, err := b.r.eval(env)
	if err != nil {
		return val.Nil, err
	}
	if b.op.IsComparison() {
		return evalComparison(b.op, l, r)
	}
	return evalArith(b.op, l, r)
}

type cCall struct {
	name string
	fn   Builtin // resolved at compile time; nil falls back to Lookup
	args []cexpr
}

func (c *cCall) eval(env *SlotEnv) (val.Value, error) {
	fn := c.fn
	if fn == nil {
		// The name was unknown at compile time: look it up now, in case
		// it was Register-ed since. (A builtin that DID resolve at
		// compile time stays pinned — re-Register after compilation does
		// not retarget already-compiled programs; recompile for that.)
		var ok bool
		if fn, ok = Lookup(c.name); !ok {
			return val.Nil, fmt.Errorf("%w: %s", ErrUnknownFunc, c.name)
		}
	}
	mark, err := c.pushArgs(env)
	if err != nil {
		return val.Nil, err
	}
	v, err := fn(env.args[mark:])
	env.args = env.args[:mark]
	if err != nil {
		return val.Nil, fmt.Errorf("%s: %w", c.name, err)
	}
	return v, nil
}

// pushArgs evaluates the call's arguments onto the environment's arena
// with stack discipline: nested calls grow past this call's mark and
// truncate back before the builtin sees env.args[mark:], and the caller
// truncates to mark once the builtin returns. Builtins must not retain the
// args slice (the library's own builtins copy what they keep). On error
// the arena is already back at mark.
func (c *cCall) pushArgs(env *SlotEnv) (mark int, err error) {
	mark = len(env.args)
	for _, a := range c.args {
		v, err := a.eval(env)
		if err != nil {
			env.args = env.args[:mark]
			return mark, err
		}
		env.args = append(env.args, v)
	}
	return mark, nil
}

// Appender is a compiled call to a list-building builtin in its append
// form (listBuilder), for a list the caller lays out itself: the engine
// appends a path vector straight behind the fields of the tuple that
// keeps it. Like Compiled it is immutable and shared.
type Appender struct {
	call *cCall
	fn   listBuilder
}

// CompileAppender compiles e in append form. It returns nil when e is not
// a call to one of the library's list builders — including a library name
// Register-ed over, which evaluates through its Builtin only.
func CompileAppender(e ast.Expr, slotOf func(name string) (int, bool)) (*Appender, error) {
	c, ok := e.(*ast.Call)
	if !ok {
		return nil, nil
	}
	fn, ok := listBuilders[c.Name]
	if !ok {
		return nil, nil
	}
	ce, err := compileExpr(c, slotOf)
	if err != nil {
		return nil, err
	}
	return &Appender{call: ce.(*cCall), fn: fn}, nil
}

// Name returns the builtin's name.
func (a *Appender) Name() string { return a.call.name }

// Append evaluates the call under env and appends the list's elements to
// dst.
func (a *Appender) Append(dst []val.Value, env *SlotEnv) ([]val.Value, error) {
	mark, err := a.call.pushArgs(env)
	if err != nil {
		return dst, err
	}
	dst, err = a.fn(dst, env.args[mark:])
	env.args = env.args[:mark]
	if err != nil {
		return dst, fmt.Errorf("%s: %w", a.call.name, err)
	}
	return dst, nil
}

func compileExpr(e ast.Expr, slotOf func(string) (int, bool)) (cexpr, error) {
	switch x := e.(type) {
	case *ast.Const:
		return cConst{v: x.Value}, nil
	case *ast.Var:
		slot, ok := slotOf(x.Name)
		if !ok {
			return nil, fmt.Errorf("%w: %s (no slot)", ErrUnboundVar, x.Name)
		}
		return cSlot{slot: slot, name: x.Name}, nil
	case *ast.BinOp:
		l, err := compileExpr(x.L, slotOf)
		if err != nil {
			return nil, err
		}
		r, err := compileExpr(x.R, slotOf)
		if err != nil {
			return nil, err
		}
		node := cBin{op: x.Op, l: l, r: r}
		// Constant folding: a binop over two constants evaluates now.
		// Folding is skipped when evaluation errors (e.g. 1/0) so the
		// error still surfaces at run time, as the ast walker would.
		_, lConst := l.(cConst)
		_, rConst := r.(cConst)
		if lConst && rConst {
			if v, err := node.eval(nil); err == nil {
				return cConst{v: v}, nil
			}
		}
		return node, nil
	case *ast.Call:
		fn, _ := Lookup(x.Name)
		args := make([]cexpr, len(x.Args))
		for i, a := range x.Args {
			ca, err := compileExpr(a, slotOf)
			if err != nil {
				return nil, err
			}
			args[i] = ca
		}
		// Calls are never folded: Register may replace a builtin between
		// compilation and evaluation.
		return &cCall{name: x.Name, fn: fn, args: args}, nil
	case *ast.Agg:
		return nil, fmt.Errorf("%w: aggregate %s in scalar position", ErrType, x)
	}
	return nil, fmt.Errorf("%w: unknown expression %T", ErrType, e)
}
