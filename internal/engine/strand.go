package engine

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"ndlog/internal/analysis"
	"ndlog/internal/ast"
	"ndlog/internal/funcs"
	"ndlog/internal/planner"
	"ndlog/internal/table"
	"ndlog/internal/val"
)

// strand is one compiled rule strand (Figure 3/5 of the paper): a rule
// together with the body atom that acts as its delta input. A rule with
// n body atoms compiles into n strands; the strand whose trigger matches
// an incoming delta joins it against the stored state of the remaining
// atoms.
type strand struct {
	rule    *ast.Rule
	atoms   []*ast.Atom // body atoms in body order
	trigger int         // index into atoms of the delta input
	// code is the rule-level compiled form (slot numbering, lowered
	// body-atom arguments, tail and head), shared by the rule's strands.
	code *ruleCode
	// isAgg marks aggregate-head rules, which are evaluated through the
	// incremental GroupAgg machinery instead of join output.
	isAgg  bool
	aggIdx int // head aggregate argument position (isAgg only)
	// paths[i] is the access path through which the join reaches the
	// stored rows of atom i (program.planAccess); unused for the trigger.
	paths []accessPath
	// partner marks the slots another body atom reads; selfJoin that one
	// of them is the trigger's predicate. Both decide pairable.
	partner  []bool
	selfJoin bool
	// aggFolds marks an aggregate strand whose head predicate is
	// fold-eligible under a key of group columns only: a group's new
	// value replaces its old one without a retraction (runAggStrands).
	aggFolds bool
}

// pairable reports whether the strand can walk a key replacement old →
// new once (Node.runReplacement): it is a normal strand joining no other
// atom of the trigger's predicate — whose stored rows would hold new
// where the deletion's join must see old — and every trigger column on
// which the tuples differ binds a slot no other atom reads, so that both
// tuples have the same partners.
func (s *strand) pairable(old, new val.Tuple) bool {
	args := s.code.args[s.trigger]
	if s.isAgg || s.selfJoin || len(old.Fields) != len(args) || len(new.Fields) != len(args) {
		return false
	}
	for i, a := range args {
		if a.kind == argSlot && s.partner[a.slot] && !old.Fields[i].Equal(new.Fields[i]) {
			return false
		}
	}
	return true
}

// accessKind is how a strand reaches the stored rows of a body atom.
type accessKind uint8

const (
	accessScan  accessKind = iota // no bound column: walk the whole table
	accessPK                      // walk the primary-key collision chain
	accessIndex                   // walk a secondary-index bucket
)

// accessPath is the compiled access path of one non-trigger body atom:
// which of the atom's bound columns are hashed, and which of the table's
// structures the hash is looked up in. The bound columns it does not hash
// (residual) are left to unifyTr, which re-checks every column of every
// candidate anyway to filter hash collisions.
type accessPath struct {
	kind accessKind
	// seed is the hash state before the first column: empty, except that
	// a whole-row primary key folds the predicate name first (Tuple.Hash).
	seed val.Hash64
	// hash lists the hashed columns in the order the table hashes them
	// (key order, group-column order, or column order for an index of the
	// probe's own), with where each bound value comes from.
	hash []probeArg
	// index is the position of an accessIndex path's index in
	// program.indexes[pred]; group marks an aggregate selection's group
	// index.
	index int
	group bool
	// residual lists the bound columns the path does not hash.
	residual []int
}

// indexSpec is one secondary index every node maintains on a predicate.
type indexSpec struct {
	cols []int
	// group marks an aggregate selection's group index, which exists
	// whether or not a probe rides it.
	group bool
}

// ruleCode is the compiled, slot-addressed form of one localized rule.
// Every variable is numbered at compile time (planner.AssignSlots); the
// evaluation path then works entirely in slot indices — no string-keyed
// environment maps survive on the join or head-instantiation path.
type ruleCode struct {
	nslots int
	// args[i] are the lowered arguments of body atom i: each a constant
	// or an environment slot. Shared by every strand of the rule (arg
	// lowering does not depend on the trigger position).
	args [][]slotArg
	// tail holds assignments and selections in body order, with
	// expressions compiled against the slot numbering.
	tail []tailOp
	// head describes each head argument: a direct slot copy (variables
	// and the aggregate position), a compiled expression, or a fused list.
	head []headArg
}

// argKind discriminates lowered body-atom arguments.
type argKind uint8

const (
	argSlot  argKind = iota // variable: env slot index
	argConst                // literal constant
	argBad                  // computed argument (planner rejects; never unifies)
)

// slotArg is one lowered body-atom argument.
type slotArg struct {
	kind     argKind
	slot     int32
	constVal val.Value
}

// tailOp is one compiled tail term: an assignment binding a slot, or a
// selection (assignSlot < 0) filtering the join.
type tailOp struct {
	assignSlot int32
	expr       *funcs.Compiled
}

// headArg is one compiled head argument. slot >= 0 copies the slot's
// binding directly (plain variables and the aggregate variable); list,
// when set, is a fused list assignment (see fusible) whose elements
// instantiateHead lays out behind the tuple's fields; expr evaluates
// otherwise. aggVar names the aggregate position for error reporting.
type headArg struct {
	slot   int32
	aggVar string
	expr   *funcs.Compiled
	list   *funcs.Appender
}

// probeArg is one bound column of an index probe: the value is either a
// literal constant or read from an environment slot.
type probeArg struct {
	col      int
	slot     int32 // >= 0: read env slot; < 0: constVal
	constVal val.Value
}

// compileRule lowers a localized rule to its slot-addressed form.
func compileRule(r *ast.Rule, atoms []*ast.Atom) (*ruleCode, error) {
	sm := planner.AssignSlots(r)
	code := &ruleCode{nslots: sm.Len()}

	code.args = make([][]slotArg, len(atoms))
	for i, a := range atoms {
		args := make([]slotArg, len(a.Args))
		for j, arg := range a.Args {
			switch x := arg.(type) {
			case *ast.Var:
				slot, ok := sm.Slot(x.Name)
				if !ok {
					return nil, fmt.Errorf("engine: rule %s: variable %s has no slot", r.Label, x.Name)
				}
				args[j] = slotArg{kind: argSlot, slot: int32(slot)}
			case *ast.Const:
				args[j] = slotArg{kind: argConst, constVal: x.Value}
			default:
				// Computed arguments are not allowed in body atoms (the
				// planner's checks exclude them); be safe anyway.
				args[j] = slotArg{kind: argBad}
			}
		}
		code.args[i] = args
	}

	// fused is the list assignment (at most one per rule) that
	// instantiateHead evaluates straight into the head tuple instead of
	// the tail evaluating it (see fusible); fuse is its compiled form.
	var fused *ast.Assign
	var fuse *funcs.Appender
	for _, t := range r.Body {
		switch x := t.(type) {
		case *ast.Assign:
			if fused == nil && fusible(r, x) {
				app, err := funcs.CompileAppender(x.Expr, sm.Slot)
				if err != nil {
					return nil, fmt.Errorf("engine: rule %s: %w", r.Label, err)
				}
				if app != nil {
					fused, fuse = x, app
					continue
				}
			}
			slot, ok := sm.Slot(x.Var)
			if !ok {
				return nil, fmt.Errorf("engine: rule %s: assignment target %s has no slot", r.Label, x.Var)
			}
			ce, err := funcs.CompileExpr(x.Expr, sm.Slot)
			if err != nil {
				return nil, fmt.Errorf("engine: rule %s: %w", r.Label, err)
			}
			code.tail = append(code.tail, tailOp{assignSlot: int32(slot), expr: ce})
		case *ast.Select:
			ce, err := funcs.CompileExpr(x.Cond, sm.Slot)
			if err != nil {
				return nil, fmt.Errorf("engine: rule %s: %w", r.Label, err)
			}
			code.tail = append(code.tail, tailOp{assignSlot: -1, expr: ce})
		}
	}

	code.head = make([]headArg, len(r.Head.Args))
	for i, arg := range r.Head.Args {
		switch x := arg.(type) {
		case *ast.Agg:
			slot, ok := sm.Slot(x.Var)
			if !ok {
				return nil, fmt.Errorf("engine: rule %s: aggregate variable %s has no slot", r.Label, x.Var)
			}
			code.head[i] = headArg{slot: int32(slot), aggVar: x.Var}
		case *ast.Var:
			if fused != nil && x.Name == fused.Var {
				code.head[i] = headArg{slot: -1, list: fuse}
				continue
			}
			slot, ok := sm.Slot(x.Name)
			if !ok {
				return nil, fmt.Errorf("engine: rule %s: head variable %s has no slot", r.Label, x.Name)
			}
			code.head[i] = headArg{slot: int32(slot)}
		default:
			ce, err := funcs.CompileExpr(arg, sm.Slot)
			if err != nil {
				return nil, fmt.Errorf("engine: rule %s head: %w", r.Label, err)
			}
			code.head[i] = headArg{slot: -1, expr: ce}
		}
	}
	return code, nil
}

// fusible reports whether assignment a of rule r may be evaluated straight
// into the head tuple instead of the tail: its variable is read by exactly
// one head argument, as a plain variable, and by nothing else — no other
// tail term, no head expression — and r is not an aggregate rule, whose
// head is scratch (aggEmit copies what it keeps). The value then has one
// reader, the derived tuple, and can live in that tuple's array.
// (Compile's Definition 6 check keeps the variable out of body atoms
// and out of its own assignment.)
func fusible(r *ast.Rule, a *ast.Assign) bool {
	if r.Head.HasAggregate() {
		return false
	}
	reads := 0
	for _, arg := range r.Head.Args {
		if v, ok := arg.(*ast.Var); ok {
			if v.Name == a.Var {
				reads++
			}
		} else if ast.Vars(arg)[a.Var] {
			return false
		}
	}
	if reads != 1 {
		return false
	}
	for _, t := range r.Body {
		switch x := t.(type) {
		case *ast.Assign:
			if ast.Vars(x.Expr)[a.Var] {
				return false
			}
		case *ast.Select:
			if ast.Vars(x.Cond)[a.Var] {
				return false
			}
		}
	}
	return true
}

// planAccess fills in the strand's access paths. A column of atom i is
// bound iff its argument is a constant or a variable (slot) that already
// appears in the trigger atom or an earlier non-trigger atom; bound-ness
// depends only on the trigger position and earlier atoms, so the paths
// are chosen once at compile time instead of per delta.
func (p *Program) planAccess(s *strand) {
	bound := make([]bool, s.code.nslots)
	for _, arg := range s.code.args[s.trigger] {
		if arg.kind == argSlot {
			bound[arg.slot] = true
		}
	}
	s.paths = make([]accessPath, len(s.atoms))
	for i, a := range s.atoms {
		if i == s.trigger {
			continue
		}
		var probe []probeArg
		for col, arg := range s.code.args[i] {
			switch arg.kind {
			case argSlot:
				if bound[arg.slot] {
					probe = append(probe, probeArg{col: col, slot: arg.slot})
				}
			case argConst:
				probe = append(probe, probeArg{col: col, slot: -1, constVal: arg.constVal})
			}
		}
		s.paths[i] = p.choosePath(a.Pred, len(a.Args), probe)
		for _, arg := range s.code.args[i] {
			if arg.kind == argSlot {
				bound[arg.slot] = true
			}
		}
	}
}

// choosePath picks the access path for a probe of pred with the given
// bound columns (in column order). Every table has mandatory paths it
// maintains whatever the rules look like: the primary-key row map and,
// under a prunable aggregate selection, the index on the selection's
// group columns. A probe whose bound columns cover a mandatory path's
// columns rides it — the one with the most columns, the primary key
// first — and only a probe no mandatory path covers gets an index of its
// own, shared with every other probe of the same columns. The rule is
// structural: a primary-key probe finds at most one row, and a group
// bucket is the set the aggregate already ranges over.
func (p *Program) choosePath(pred string, arity int, probe []probeArg) accessPath {
	if len(probe) == 0 {
		return accessPath{kind: accessScan}
	}
	// cover returns the probe's arguments for cols, in cols order, or nil
	// when some column is unbound.
	cover := func(cols []int) []probeArg {
		out := make([]probeArg, 0, len(cols))
		for _, c := range cols {
			i := slices.IndexFunc(probe, func(pa probeArg) bool { return pa.col == c })
			if i < 0 {
				return nil
			}
			out = append(out, probe[i])
		}
		return out
	}
	path := accessPath{seed: val.NewHash()}
	if d := p.decls[pred]; d != nil && len(d.Keys) > 0 {
		if h := cover(d.Keys); h != nil {
			path.kind, path.hash = accessPK, h
		}
	} else if len(probe) == arity {
		// Whole-row key: every column bound is the row itself, which the
		// table hashes with the predicate name first (Tuple.Hash).
		path.kind, path.hash, path.seed = accessPK, probe, path.seed.AddString(pred)
	}
	for i, ix := range p.indexes[pred] {
		if !ix.group {
			break // group indexes come first
		}
		if h := cover(ix.cols); len(h) > len(path.hash) {
			path = accessPath{kind: accessIndex, seed: val.NewHash(), hash: h, index: i, group: true}
		}
	}
	if path.kind == accessScan {
		cols := make([]int, len(probe))
		for i, pa := range probe {
			cols[i] = pa.col
		}
		path.kind, path.hash, path.index = accessIndex, probe, p.ensureIndex(pred, indexSpec{cols: cols})
	}
	for _, pa := range probe {
		if !slices.ContainsFunc(path.hash, func(h probeArg) bool { return h.col == pa.col }) {
			path.residual = append(path.residual, pa.col)
		}
	}
	return path
}

// ensureIndex registers an index on pred (once per column list) and
// returns its position in p.indexes[pred].
func (p *Program) ensureIndex(pred string, spec indexSpec) int {
	for i, ix := range p.indexes[pred] {
		if slices.Equal(ix.cols, spec.cols) {
			return i
		}
	}
	p.indexes[pred] = append(p.indexes[pred], spec)
	return len(p.indexes[pred]) - 1
}

// Program is a compiled NDlog program: checked, localized and planned
// once, then shared (immutable) by every node instantiated from it.
type Program struct {
	source  *ast.Program         // localized program
	strands map[string][]*strand // trigger pred -> strands
	// sweep lists the strands a rederivation sweep walks (see
	// Node.sweepDerivable): one full evaluation per non-aggregate rule,
	// started from body atom 0, ordered by that atom's predicate name and
	// then rule order — a fixed order, so a sweep's output is too.
	sweep []*strand
	// aggSels holds the aggregate selections the planner proved safe to
	// prune (planner.AggSelection.Prunable); Options.AggSel applies them.
	aggSels []planner.AggSelection
	// lanes orders the insertions of each predicate a prunable selection
	// reads, by the first such selection's value, in a PSN node's
	// best-first lane (deltaQueue.lane) when Options.AggSel is set; the
	// first 256 such predicates are ordered. A bounded table is left out:
	// it evicts in arrival order, which the lane would change.
	lanes []laneOrder
	decls map[string]*ast.TableDecl
	// indexes is the access-path plan's storage side: the secondary
	// indexes every node maintains per predicate — the group index of each
	// prunable aggregate selection first, then one index per distinct
	// column set that no mandatory path covers (see choosePath).
	indexes map[string][]indexSpec
	// maxSlots is the largest slot count of any rule; nodes size their
	// reusable slot environment to it once.
	maxSlots int
	// derived marks every predicate that appears as a rule head: its
	// hard-state contents are views, rebuildable from base facts, and so
	// are excluded from migration exports (Node.Export).
	derived map[string]bool
	// events marks lifetime-zero predicates (ast.TableDecl.IsEvent):
	// their deltas run trigger strands but are never stored, and their
	// deletions are dropped. A strand joining an event as a non-trigger
	// atom probes the event's table, which stays empty forever, so such
	// strands — including deletion strands — produce nothing, which is
	// exactly the P2 semantics: events never co-occur with anything and
	// cannot be retracted.
	events map[string]bool
	// foldKeys holds the primary-key columns of the fold-eligible
	// predicates — stored hard state with a key narrower than its row,
	// declared or inferred, and no size bound — whose key replacements are
	// one delta: in the local queue (Node.push) and in a paired strand
	// walk (Node.runPair). A whole-row key admits no
	// replacement; a soft-state refresh is not a count; and a bounded table
	// evicts in arrival order, which a dropped retraction would change.
	foldKeys map[string][]int
	// inferred marks the predicates whose key the rules imply
	// (analysis.Keys) rather than a declaration: decls holds a
	// declaration carrying it, as if it had been written.
	inferred map[string]bool
}

// Compile checks, localizes and compiles prog into strands. A program
// that breaks Definition 6 (analysis.Definition6) is refused with every
// violation at once: an errors.Join of one *planner.CheckError each.
func Compile(prog *ast.Program) (*Program, error) {
	var errs []error
	for _, d := range analysis.Definition6(prog) {
		errs = append(errs, &planner.CheckError{Rule: d.Rule, Msg: d.Msg})
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	local, err := planner.Localize(prog)
	if err != nil {
		return nil, err
	}
	p := &Program{
		source:   local,
		strands:  map[string][]*strand{},
		decls:    map[string]*ast.TableDecl{},
		indexes:  map[string][]indexSpec{},
		derived:  map[string]bool{},
		events:   map[string]bool{},
		foldKeys: map[string][]int{},
		inferred: map[string]bool{},
	}
	for _, d := range local.Materialized {
		p.decls[d.Name] = d
		if d.IsEvent() {
			p.events[d.Name] = true
		}
	}
	for pred, k := range analysis.Keys(local) {
		d := p.decls[pred]
		if k.Inferred {
			inf := ast.TableDecl{Name: pred, Lifetime: -1}
			if d != nil {
				inf = *d
			}
			inf.Keys = k.Cols
			d = &inf
			p.decls[pred] = d
			p.inferred[pred] = true
		}
		if k.Cols != nil && d.Lifetime < 0 && d.MaxSize <= 0 {
			p.foldKeys[pred] = k.Cols
		}
	}
	for _, s := range planner.DetectAggSelections(local) {
		if s.Prunable() {
			p.aggSels = append(p.aggSels, s)
			if d := p.decls[s.SrcPred]; (d == nil || d.MaxSize <= 0) && len(p.lanes) <= math.MaxUint8 &&
				!slices.ContainsFunc(p.lanes, func(o laneOrder) bool { return o.pred == s.SrcPred }) {
				o := laneOrder{pred: s.SrcPred, agg: s.AggPred, col: s.ValueCol, desc: s.Func == ast.AggMax}
				if d != nil {
					o.key = d.Keys
				}
				p.lanes = append(p.lanes, o)
			}
			p.ensureIndex(s.SrcPred, indexSpec{cols: s.GroupCols, group: true})
		}
	}
	for _, r := range local.Rules {
		if _, _, err := planner.EvalSite(r); err != nil {
			return nil, err
		}
		// Event hygiene (the analyzer reports the same shapes with
		// positions; this guards direct engine users): a rule joining
		// two events can never fire, and aggregates cannot range over
		// or produce events — both would get silently-empty semantics.
		nEvents := 0
		for _, a := range r.Atoms() {
			if p.events[a.Pred] {
				nEvents++
			}
		}
		if nEvents > 1 {
			return nil, fmt.Errorf("rule %s: joins %d event predicates; events never co-occur", r.Label, nEvents)
		}
		if r.Head.HasAggregate() && (nEvents > 0 || p.events[r.Head.Pred]) {
			return nil, fmt.Errorf("rule %s: aggregate over or into an event predicate", r.Label)
		}
		p.derived[r.Head.Pred] = true
		atoms := r.Atoms()
		code, err := compileRule(r, atoms)
		if err != nil {
			return nil, err
		}
		if code.nslots > p.maxSlots {
			p.maxSlots = code.nslots
		}
		aggIdx := r.Head.AggregateIndex()
		for i := range atoms {
			st := &strand{
				rule:    r,
				atoms:   atoms,
				trigger: i,
				code:    code,
				isAgg:   aggIdx >= 0,
				aggIdx:  aggIdx,
			}
			p.planAccess(st)
			st.partner = make([]bool, code.nslots)
			for j, a := range atoms {
				if j == i {
					continue
				}
				st.selfJoin = st.selfJoin || a.Pred == atoms[i].Pred
				for _, arg := range code.args[j] {
					if arg.kind == argSlot {
						st.partner[arg.slot] = true
					}
				}
			}
			if keys := p.foldKeys[r.Head.Pred]; st.isAgg && keys != nil {
				st.aggFolds = !slices.Contains(keys, aggIdx)
			}
			p.strands[atoms[i].Pred] = append(p.strands[atoms[i].Pred], st)
			if i == 0 && !st.isAgg {
				p.sweep = append(p.sweep, st)
			}
		}
	}
	slices.SortStableFunc(p.sweep, func(a, b *strand) int {
		return strings.Compare(a.atoms[0].Pred, b.atoms[0].Pred)
	})
	return p, nil
}

// unifySlots binds lowered atom arguments against tuple fields. It
// returns false on mismatch (constant disagreement, inconsistent
// repeated variable, or arity mismatch). Used for the trigger atom,
// whose bindings need no trail: run resets the environment per delta.
func unifySlots(args []slotArg, t val.Tuple, env *funcs.SlotEnv) bool {
	if len(args) != len(t.Fields) {
		return false
	}
	for i, a := range args {
		switch a.kind {
		case argSlot:
			if bound, ok := env.Get(int(a.slot)); ok {
				if !bound.Equal(t.Fields[i]) {
					return false
				}
				continue
			}
			env.Bind(int(a.slot), t.Fields[i])
		case argConst:
			if !a.constVal.Equal(t.Fields[i]) {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// bind sets a slot, recording it on the trail so the depth-first join
// can undo the binding instead of cloning the environment per candidate.
// Unification never rebinds a bound slot (it checks equality instead)
// and the planner rejects assignments that rebind, so the trail is a
// plain list of slots to unbind.
func (ctx *joinCtx) bind(slot int32, v val.Value) {
	ctx.env.Bind(int(slot), v)
	ctx.tr = append(ctx.tr, slot)
}

// unwind rolls the environment back to trail position mark.
func (ctx *joinCtx) unwind(mark int) {
	for i := len(ctx.tr) - 1; i >= mark; i-- {
		ctx.env.Unbind(int(ctx.tr[i]))
	}
	ctx.tr = ctx.tr[:mark]
}

// unifyTr is unifySlots with trail recording: new slot bindings go
// through ctx.bind so the caller can unwind them. On failure the caller
// must unwind to its own mark (partial bindings may have been made).
func (ctx *joinCtx) unifyTr(args []slotArg, t val.Tuple) bool {
	if len(args) != len(t.Fields) {
		return false
	}
	for i, a := range args {
		switch a.kind {
		case argSlot:
			if bound, ok := ctx.env.Get(int(a.slot)); ok {
				if !bound.Equal(t.Fields[i]) {
					return false
				}
				continue
			}
			ctx.bind(a.slot, t.Fields[i])
		case argConst:
			if !a.constVal.Equal(t.Fields[i]) {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// derived is one strand output: a head tuple destined for a location,
// with its deadline — the earliest deadline among the rows it joined
// (+Inf when they are all hard, events included).
type derived struct {
	tuple    val.Tuple
	loc      string
	deadline float64
}

// joinCtx carries the per-delta join parameters plus reusable evaluation
// state (slot environment, binding trail, index handles), so steady-state
// joins allocate nothing per candidate. The two stamp bounds implement
// the book-keeping that prevents repeated inferences:
//
//   - PSN (Algorithm 3): every stored tuple carries a distinct logical
//     timestamp; a +delta with stamp s joins entries with stamp < s at
//     atoms before the trigger and stamp <= s at atoms after it
//     (ltBefore = leAfter = s). Theorem 2's argument — only the
//     maximum-timestamp input generates a derivation — then guarantees
//     uniqueness, including for a tuple joining itself in self-join
//     rules (counted once, at the post-trigger position).
//   - SN (Algorithm 1): tuples of iteration i share stamp i; atoms before
//     the trigger read strictly older iterations (Stamp < i) and atoms
//     after it read up to the current one (Stamp <= i), matching the
//     Δ-rule form p1^old,...,Δpk^old,pk+1,...,pn of Section 3.1.
//   - Deletions: no bounds (both maxed); every live derivation that used
//     the retracted tuple must be cancelled.
//
// An insertion's join also carries deadlines: it starts from the
// trigger's (deadline) and takes the minimum with each partner row's, and
// a normal strand drops a binding whose deadline is already at or before
// now — a soft partner that has lapsed but not yet been swept supports
// nothing (DESIGN.md "Soft state by deadline"). Deletions and aggregate
// strands ignore deadlines: a retraction must cancel whatever was
// derived, and an aggregate counts every stored row until expiry removes
// it.
type joinCtx struct {
	// ltBefore bounds atoms at positions < trigger: Stamp < ltBefore.
	ltBefore int64
	// leAfter bounds atoms at positions > trigger: Stamp <= leAfter.
	leAfter int64
	// deleted is the tuple being retracted, valid when hasDeleted is set
	// (deletions only). For counting correctness in self-joins, atoms
	// after the trigger with the same predicate also match the deleted
	// tuple itself. Held by value: a pointer would move every caller's
	// tuple to the heap.
	deleted    val.Tuple
	hasDeleted bool
	// deadline is the trigger's deadline (+Inf for none), and now the
	// node's clock, against which a normal strand's insertion drops a
	// binding that has already lapsed.
	deadline float64
	now      float64
	// res resolves a strand's per-atom table and index handles at this
	// node (strands are shared across nodes; tables are not).
	res map[*strand]*strandRes
	// cur is the resolution for the strand currently running.
	cur *strandRes
	// env and tr are the reusable slot environment and its undo trail
	// (slot indices to unbind); run resets them per delta.
	env *funcs.SlotEnv
	tr  []int32
	// headBuf is the reusable head instantiation buffer: a derived head
	// is copied out of it exactly once, into the array the routed delta
	// (and then the table that stores it) keeps. listBuf is the same for
	// the elements of a fused list.
	headBuf []val.Value
	listBuf []val.Value
	// pair marks a paired walk (strand.runPair): the trigger's slots hold
	// the displaced tuple's bindings and pairDiff those on which the new
	// tuple's differ; every partner is accepted, as for a deletion, and
	// one that the stamp bounds reject, or whose deadline has passed,
	// leaves the new tuple's head out. pairCarve carves the displaced
	// tuple's heads, which are retractions, and pairEmit receives each
	// partner's two heads.
	pair      bool
	pairDiff  []pairSlot
	pairCarve *val.Carver
	pairEmit  func(old, new derived, hasOld, hasNew bool)
	// carve, when set, carves derived heads from the node's drain-owned
	// chunks instead of allocating each exactly; a head homed at keepAt,
	// when keepAt is set, is exempt. Whoever resets the context for a
	// delta sets both from the sign the derivations will be routed with,
	// so that only heads this node does not keep are carved: every
	// retraction (nothing stores one), and an insertion bound for another
	// node whose driver encodes it and drops it (keepAt is then the
	// node's id). A context built for anything else leaves carve nil.
	carve  *val.Carver
	keepAt string
}

// pairSlot is one trigger slot a paired walk binds two ways.
type pairSlot struct {
	slot     int32
	old, new val.Value
}

// strandRes is one node's resolved handles for one strand: the table of
// each body atom and, where its access path is an index, that index.
type strandRes struct {
	tbl []*table.Table
	idx []*table.Index
}

// noLimit disables a stamp bound.
const noLimit = int64(1)<<62 - 1

// run evaluates the strand for one delta tuple, invoking emit for every
// derived head tuple. The delta's sign is handled by the caller: the
// same join produces insertions for +deltas and deletions for -deltas.
func (s *strand) run(ctx *joinCtx, delta val.Tuple, emit func(derived)) error {
	if ctx.env == nil || ctx.env.Len() < s.code.nslots {
		ctx.env = funcs.NewSlotEnv(s.code.nslots)
	}
	ctx.env.Reset()
	ctx.tr = ctx.tr[:0]
	ctx.cur = ctx.res[s]
	if s.lapses(ctx, ctx.deadline) || !unifySlots(s.code.args[s.trigger], delta, ctx.env) {
		return nil
	}
	return s.joinFrom(ctx, 0, ctx.deadline, emit)
}

// runPair evaluates the strand once for the key replacement old → new of
// a pairable trigger (ctx.pair set): each complete join derives old's
// head and, within the new tuple's stamp bounds and deadline, new's, from
// the same partners, and hands both to ctx.pairEmit. It reports false,
// having derived nothing, when either tuple does not unify with the
// trigger.
func (s *strand) runPair(ctx *joinCtx, old, new val.Tuple) (bool, error) {
	if ctx.env == nil || ctx.env.Len() < s.code.nslots {
		ctx.env = funcs.NewSlotEnv(s.code.nslots)
	}
	args := s.code.args[s.trigger]
	ctx.env.Reset()
	if !unifySlots(args, new, ctx.env) {
		return false, nil
	}
	ctx.pairDiff = ctx.pairDiff[:0]
	for i, a := range args {
		if a.kind == argSlot {
			ctx.pairDiff = append(ctx.pairDiff, pairSlot{slot: a.slot, new: new.Fields[i]})
		}
	}
	ctx.env.Reset()
	if !unifySlots(args, old, ctx.env) {
		return false, nil
	}
	k := 0
	for _, d := range ctx.pairDiff {
		if v := ctx.env.Value(int(d.slot)); !v.Equal(d.new) {
			d.old = v
			ctx.pairDiff[k] = d
			k++
		}
	}
	clear(ctx.pairDiff[k:])
	ctx.pairDiff = ctx.pairDiff[:k]
	ctx.tr = ctx.tr[:0]
	ctx.cur = ctx.res[s]
	return true, s.joinFrom(ctx, 0, ctx.deadline, nil)
}

// lapses reports whether a binding with deadline dl supports nothing at
// this join: dl has passed, and the strand derives insertions from rows
// (see joinCtx).
func (s *strand) lapses(ctx *joinCtx, dl float64) bool {
	return dl <= ctx.now && !s.isAgg && !ctx.hasDeleted
}

// deadlineOf is a stored row's deadline, never for hard state.
func deadlineOf(e *table.Entry) float64 {
	if e.Expires < 0 {
		return never
	}
	return e.Expires
}

// joinFrom joins the remaining atoms (skipping the trigger) depth-first
// in body order, then evaluates assignments/selections and the head. dl
// is the deadline of the bindings so far.
func (s *strand) joinFrom(ctx *joinCtx, idx int, dl float64, emit func(derived)) error {
	if idx == len(s.atoms) {
		return s.finish(ctx, dl, emit)
	}
	if idx == s.trigger {
		return s.joinFrom(ctx, idx+1, dl, emit)
	}
	args := s.code.args[idx]

	tryEntry := func(t val.Tuple, stamp int64, until float64) error {
		if idx < s.trigger && stamp >= ctx.ltBefore || idx > s.trigger && stamp > ctx.leAfter {
			if !ctx.pair {
				return nil
			}
			until = math.Inf(-1) // a partner of the displaced tuple only
		}
		until = min(dl, until)
		if s.lapses(ctx, until) {
			return nil
		}
		mark := len(ctx.tr)
		if !ctx.unifyTr(args, t) {
			ctx.unwind(mark)
			return nil
		}
		err := s.joinFrom(ctx, idx+1, until, emit)
		ctx.unwind(mark)
		return err
	}

	path := &s.paths[idx]
	tbl := ctx.cur.tbl[idx]
	if path.kind == accessScan {
		var scanErr error
		tbl.Scan(func(e *table.Entry) bool {
			if err := tryEntry(tbl.Tuple(e), int64(e.Stamp), deadlineOf(e)); err != nil {
				scanErr = err
				return false
			}
			return true
		})
		if scanErr != nil {
			return scanErr
		}
	} else {
		// Hash the path's columns and walk what the table stores under
		// that hash. A hash collision — or a row that differs in a bound
		// column the path does not hash — admits a non-matching entry, but
		// unifyTr checks every bound column again, so both are filtered
		// there.
		h := path.seed
		for _, p := range path.hash {
			if p.slot >= 0 {
				h = h.AddValue(ctx.env.Value(int(p.slot)))
			} else {
				h = h.AddValue(p.constVal)
			}
		}
		if path.kind == accessPK {
			for e := tbl.KeyChain(h.Sum()); e != nil; e = tbl.Next(e) {
				if err := tryEntry(tbl.Tuple(e), int64(e.Stamp), deadlineOf(e)); err != nil {
					return err
				}
			}
		} else {
			for b := ctx.cur.idx[idx].Bucket(h.Sum()); ; {
				e := b.Next()
				if e == nil {
					break
				}
				if err := tryEntry(tbl.Tuple(e), int64(e.Stamp), deadlineOf(e)); err != nil {
					return err
				}
			}
		}
	}

	// Deletion self-join correction: the retracted tuple still counts as
	// a join partner for later occurrences of its own predicate.
	if ctx.hasDeleted && s.atoms[idx].Pred == ctx.deleted.Pred && idx > s.trigger {
		if err := tryEntry(ctx.deleted, -1, dl); err != nil {
			return err
		}
	}
	return nil
}

// finish evaluates the tail (assignments, selections) and instantiates
// the head, whose deadline is dl — both heads, under a paired walk
// (finishPair). Aggregate rules stop before head instantiation; the
// caller routes them through GroupAgg. Assignment bindings go on the
// trail so sibling join candidates see a clean environment.
func (s *strand) finish(ctx *joinCtx, dl float64, emit func(derived)) error {
	if ctx.pair {
		return s.finishPair(ctx, dl)
	}
	mark := len(ctx.tr)
	defer ctx.unwind(mark)
	head, ok, err := s.head(ctx)
	if ok {
		emit(derived{tuple: head, loc: head.Loc(), deadline: dl})
	}
	return err
}

// finishPair derives a paired walk's two heads from one complete join:
// the displaced tuple's from the bindings as they are, carved as a
// retraction, and — unless this join left it out (dl at or before now) —
// the new tuple's with the differing trigger slots rebound, which no
// partner read.
func (s *strand) finishPair(ctx *joinCtx, dl float64) error {
	mark := len(ctx.tr)
	carve, keepAt := ctx.carve, ctx.keepAt
	ctx.carve, ctx.keepAt = ctx.pairCarve, ""
	old, hasOld, err := s.head(ctx)
	ctx.carve, ctx.keepAt = carve, keepAt
	ctx.unwind(mark)
	if err != nil {
		return err
	}
	var w val.Tuple
	hasNew := dl > ctx.now
	if hasNew {
		for _, d := range ctx.pairDiff {
			ctx.env.Bind(int(d.slot), d.new)
		}
		w, hasNew, err = s.head(ctx)
		ctx.unwind(mark)
		for _, d := range ctx.pairDiff {
			ctx.env.Bind(int(d.slot), d.old)
		}
		if err != nil {
			return err
		}
	}
	var o, n derived
	if hasOld {
		o = derived{tuple: old, loc: old.Loc(), deadline: dl}
	}
	if hasNew {
		n = derived{tuple: w, loc: w.Loc(), deadline: dl}
	}
	if hasOld || hasNew {
		ctx.pairEmit(o, n, hasOld, hasNew)
	}
	return nil
}

// head evaluates the tail and instantiates the head; ok is false when a
// selection fails. The caller unwinds the assignments' bindings.
func (s *strand) head(ctx *joinCtx) (head val.Tuple, ok bool, err error) {
	for _, op := range s.code.tail {
		if op.assignSlot >= 0 {
			v, err := op.expr.Eval(ctx.env)
			if err != nil {
				return head, false, fmt.Errorf("rule %s: %w", s.rule.Label, err)
			}
			ctx.bind(op.assignSlot, v)
		} else {
			ok, err := op.expr.EvalBool(ctx.env)
			if err != nil {
				return head, false, fmt.Errorf("rule %s: %w", s.rule.Label, err)
			}
			if !ok {
				return head, false, nil
			}
		}
	}
	head, err = s.instantiateHead(ctx)
	return head, err == nil, err
}

// instantiateHead builds the head tuple from the slot environment: the
// fields are evaluated into the reusable headBuf — a fused list's
// elements into listBuf — and copied out once, into one array holding the
// fields and then the list, the layout val.DecodeTupleIn gives a received
// tuple. That array is the derived tuple's single allocation, owned from
// here on by whoever keeps the delta — or, for a head this node does not
// keep, carved from ctx.carve (DESIGN.md §3). For aggregate rules, the
// aggregate position receives the raw aggregated variable's value; the
// caller replaces it with the group aggregate.
func (s *strand) instantiateHead(ctx *joinCtx) (val.Tuple, error) {
	n := len(s.code.head)
	if cap(ctx.headBuf) < n {
		ctx.headBuf = make([]val.Value, n)
	}
	fields := ctx.headBuf[:n]
	fused := -1
	for i, ha := range s.code.head {
		if ha.slot >= 0 {
			v, ok := ctx.env.Get(int(ha.slot))
			if !ok {
				if ha.aggVar != "" {
					return val.Tuple{}, fmt.Errorf("rule %s: aggregate variable %s unbound", s.rule.Label, ha.aggVar)
				}
				// Unreachable after Compile's check (head variables are
				// bound by the body); keep the guard for safety.
				return val.Tuple{}, fmt.Errorf("rule %s head: %w", s.rule.Label, funcs.ErrUnboundVar)
			}
			fields[i] = v
			continue
		}
		if ha.list != nil {
			var err error
			if ctx.listBuf, err = ha.list.Append(ctx.listBuf[:0], ctx.env); err != nil {
				return val.Tuple{}, fmt.Errorf("rule %s head: %w", s.rule.Label, err)
			}
			fused = i
			continue
		}
		v, err := ha.expr.Eval(ctx.env)
		if err != nil {
			return val.Tuple{}, fmt.Errorf("rule %s head: %w", s.rule.Label, err)
		}
		fields[i] = v
	}
	if s.isAgg {
		// Aggregate heads go only to Node.aggEmit, which folds the row
		// into its group and copies what it keeps before the next
		// instantiation: hand it the scratch itself.
		return val.Tuple{Pred: s.rule.Head.Pred, Fields: fields}, nil
	}
	c := ctx.carve
	if ctx.keepAt != "" && fields[0].Addr() == ctx.keepAt {
		c = nil
	}
	if fused < 0 {
		fs := c.Make(n)
		copy(fs, fields)
		return val.Tuple{Pred: s.rule.Head.Pred, Fields: fs}, nil
	}
	vs := c.Make(n + len(ctx.listBuf))
	copy(vs, fields)
	elems := vs[n:]
	copy(elems, ctx.listBuf)
	vs[fused] = val.NewList(elems...)
	// Full slice expression: an append to Fields must never grow into the
	// list behind it.
	return val.Tuple{Pred: s.rule.Head.Pred, Fields: vs[:n:n]}, nil
}
