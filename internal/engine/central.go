package engine

import (
	"ndlog/internal/ast"
	"ndlog/internal/val"
)

// Central evaluates an NDlog program at a single site, ignoring data
// placement: every derived tuple loops back locally. It supports both
// evaluation modes and is the reference evaluator the distributed
// cluster is validated against (Theorems 1 and 3).
type Central struct {
	node *Node
	prog *Program
}

// NewCentral compiles prog for single-site evaluation: one node, one
// thread. Options.Parallelism counts nodes drained at once, so it has
// no effect here.
func NewCentral(prog *ast.Program, opts Options) (*Central, error) {
	p, err := Compile(prog)
	if err != nil {
		return nil, err
	}
	n := p.NewNode("central", opts)
	n.central = true
	return &Central{node: n, prog: p}, nil
}

// NewNode is Compile followed by Program.NewNode, for a driver that
// hosts a single node; one that hosts several compiles once.
func NewNode(id string, prog *ast.Program, opts Options) (*Node, error) {
	p, err := Compile(prog)
	if err != nil {
		return nil, err
	}
	return p.NewNode(id, opts), nil
}

// HomeFacts returns the subset of a program's base facts whose location
// specifier is id.
func HomeFacts(prog *ast.Program, id string) []val.Tuple {
	var out []val.Tuple
	for _, f := range prog.Facts {
		if len(f.Fields) > 0 && f.Fields[0].Kind() == val.KindAddr && f.Loc() == id {
			out = append(out, f)
		}
	}
	return out
}

// Node exposes the underlying runtime for inspection.
func (c *Central) Node() *Node { return c.node }

// LoadFacts inserts the program's base facts and runs to fixpoint.
func (c *Central) LoadFacts() {
	for _, f := range c.prog.source.Facts {
		c.node.Push(Insert(f))
	}
	c.Fixpoint()
}

// Insert adds a base tuple and runs to fixpoint.
func (c *Central) Insert(t val.Tuple) {
	c.node.Push(Insert(t))
	c.Fixpoint()
}

// Delete retracts a base tuple (count algorithm) and runs to fixpoint.
func (c *Central) Delete(t val.Tuple) {
	c.node.Push(Deletion(t))
	c.Fixpoint()
}

// Update replaces a base tuple: deletion followed by insertion
// (Section 4).
func (c *Central) Update(old, new val.Tuple) {
	c.node.Push(Deletion(old))
	c.node.Push(Insert(new))
	c.Fixpoint()
}

// Fixpoint drains the queue completely. Derived tuples destined for
// "remote" locations cannot occur in central mode.
func (c *Central) Fixpoint() {
	out := c.node.Drain()
	if len(out) != 0 {
		panic("engine: central evaluation produced remote deltas")
	}
}

// Tuples returns the current contents of a predicate, sorted.
func (c *Central) Tuples(pred string) []val.Tuple { return c.node.Tuples(pred) }

// QueryResults returns the tuples of the program's query predicate, or
// nil if the program has no query.
func (c *Central) QueryResults() []val.Tuple {
	if c.prog.source.Query == nil {
		return nil
	}
	return c.Tuples(c.prog.source.Query.Pred)
}
