// Package query defines the uniform query abstraction the decision
// problems of §2.3 are parameterised by. A Query maps instances to
// instances with PTIME data-complexity (the paper's QPTIME restriction is
// met by construction: all concrete queries here are algebra, first-order
// or DATALOG queries). Queries additionally report the constants they
// mention — needed to build the Δ of Proposition 2.1 — and, when they lie
// in fragments with special algorithms, implement marker interfaces:
//
//   - Liftable: positive existential (possibly with ≠ selections); can be
//     applied directly to a c-table database, producing a c-table database
//     with rep(q(T)) = q(rep(T)) (Imielinski–Lipski).
//   - HomPreserved: preserved under homomorphisms (positive existential
//     without ≠, and DATALOG); enables frozen-instance certainty
//     (Theorem 5.3(1)) and frozen-instance uniqueness (Theorem 3.2(2)).
package query

import (
	"fmt"

	"pw/internal/algebra"
	"pw/internal/datalog"
	"pw/internal/fo"
	"pw/internal/rel"
	"pw/internal/table"
)

// Query maps instances to instances in PTIME (data-complexity).
type Query interface {
	// Label names the query for error messages and reports.
	Label() string
	// Eval applies the query.
	Eval(*rel.Instance) (*rel.Instance, error)
	// Consts returns the constants mentioned by the query program.
	Consts() []string
}

// Liftable queries evaluate directly on conditioned tables.
type Liftable interface {
	Query
	// EvalLifted rewrites a c-table database into one representing the view
	// q(rep(d)).
	EvalLifted(*table.Database) (*table.Database, error)
}

// HomPreserved marks queries q with h(q(I)) ⊆ q(h(I)) for every
// homomorphism h (constant-fixing map extended to instances).
type HomPreserved interface {
	Query
	// homPreserved is a marker; implementations return true.
	HomPreserved() bool
}

// Identity is the identity query (the "−" of MEMB(−), CONT(−,−), …).
type Identity struct{}

// Label implements Query.
func (Identity) Label() string { return "identity" }

// Eval implements Query.
func (Identity) Eval(i *rel.Instance) (*rel.Instance, error) { return i, nil }

// Consts implements Query.
func (Identity) Consts() []string { return nil }

// EvalLifted implements Liftable: the identity view of a database is the
// database.
func (Identity) EvalLifted(d *table.Database) (*table.Database, error) { return d, nil }

// HomPreserved implements HomPreserved.
func (Identity) HomPreserved() bool { return true }

// IsIdentity reports whether q is the identity query.
func IsIdentity(q Query) bool {
	_, ok := q.(Identity)
	return ok
}

// Out is one output relation of a vector query.
type Out struct {
	Name string
	Expr algebra.Expr
}

// Algebra is a vector of named positive-existential algebra expressions
// (the q = (q₁, q₂) style of the paper's reductions).
type Algebra struct {
	Name string
	Outs []Out
}

// NewAlgebra builds an algebra query.
func NewAlgebra(name string, outs ...Out) Algebra { return Algebra{Name: name, Outs: outs} }

// Label implements Query.
func (a Algebra) Label() string {
	if a.Name != "" {
		return a.Name
	}
	return "algebra"
}

// Eval implements Query.
func (a Algebra) Eval(i *rel.Instance) (*rel.Instance, error) {
	out := rel.NewInstance()
	for _, o := range a.Outs {
		r, err := algebra.EvalToRelation(o.Expr, i, o.Name)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", a.Label(), err)
		}
		out.AddRelation(r)
	}
	return out, nil
}

// Consts implements Query.
func (a Algebra) Consts() []string {
	var out []string
	for _, o := range a.Outs {
		out = append(out, algebra.Consts(o.Expr)...)
	}
	return out
}

// EvalLifted implements Liftable.
func (a Algebra) EvalLifted(d *table.Database) (*table.Database, error) {
	out := table.NewDatabase()
	for i, o := range a.Outs {
		t, err := algebra.EvalToTable(o.Expr, d, o.Name)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", a.Label(), err)
		}
		if i > 0 {
			t.Global = nil // carry the global once
		}
		out.AddTable(t)
	}
	return out, nil
}

// Positive reports whether every output expression is positive
// (algebra.Positive): no ≠ selection, no diff, no world-set operator.
func (a Algebra) Positive() bool {
	for _, o := range a.Outs {
		if !algebra.Positive(o.Expr) {
			return false
		}
	}
	return true
}

// HomPreserved implements HomPreserved for positive algebra queries. The
// marker must only be trusted when Positive() is true; decision procedures
// check both.
func (a Algebra) HomPreserved() bool { return a.Positive() }

// FOOut is one output relation of a first-order vector query.
type FOOut struct {
	Name string
	Q    fo.Query
}

// FO is a vector of named first-order queries.
type FO struct {
	Name string
	Outs []FOOut
}

// NewFO builds a first-order query.
func NewFO(name string, outs ...FOOut) FO { return FO{Name: name, Outs: outs} }

// Label implements Query.
func (f FO) Label() string {
	if f.Name != "" {
		return f.Name
	}
	return "first-order"
}

// Eval implements Query.
func (f FO) Eval(i *rel.Instance) (*rel.Instance, error) {
	out := rel.NewInstance()
	for _, o := range f.Outs {
		r, err := o.Q.Eval(i, o.Name)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f.Label(), err)
		}
		out.AddRelation(r)
	}
	return out, nil
}

// Consts implements Query.
func (f FO) Consts() []string {
	var out []string
	for _, o := range f.Outs {
		out = append(out, o.Q.Consts()...)
	}
	return out
}

// Datalog wraps a DATALOG program as a query; the output instance contains
// the relations named in Outputs (IDB predicates).
type Datalog struct {
	Name      string
	Program   datalog.Program
	Outputs   []string
	SemiNaive bool // default true via NewDatalog
}

// NewDatalog builds a DATALOG query with semi-naive evaluation.
func NewDatalog(name string, p datalog.Program, outputs ...string) Datalog {
	return Datalog{Name: name, Program: p, Outputs: outputs, SemiNaive: true}
}

// Label implements Query.
func (d Datalog) Label() string {
	if d.Name != "" {
		return d.Name
	}
	return "datalog"
}

// Eval implements Query.
func (d Datalog) Eval(i *rel.Instance) (*rel.Instance, error) {
	var idb *rel.Instance
	var err error
	if d.SemiNaive {
		idb, err = d.Program.Eval(i)
	} else {
		idb, err = d.Program.EvalNaive(i)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", d.Label(), err)
	}
	out := rel.NewInstance()
	for _, name := range d.Outputs {
		r := idb.Relation(name)
		if r == nil {
			return nil, fmt.Errorf("%s: output %s is not an IDB predicate", d.Label(), name)
		}
		out.AddRelation(r)
	}
	return out, nil
}

// Consts implements Query.
func (d Datalog) Consts() []string { return d.Program.Consts() }

// HomPreserved implements HomPreserved: pure DATALOG is preserved under
// homomorphisms.
func (d Datalog) HomPreserved() bool { return true }

// Compile-time interface checks.
var (
	_ Liftable     = Identity{}
	_ Liftable     = Algebra{}
	_ HomPreserved = Identity{}
	_ HomPreserved = Algebra{}
	_ HomPreserved = Datalog{}
	_ Query        = FO{}
)

// IsHomPreserved reports whether q is marked preserved under
// homomorphisms and the marker is live (for Algebra: positive).
func IsHomPreserved(q Query) bool {
	h, ok := q.(HomPreserved)
	return ok && h.HomPreserved()
}

// AsLiftable returns the query as Liftable when it supports lifted
// evaluation on conditioned tables.
func AsLiftable(q Query) (Liftable, bool) {
	l, ok := q.(Liftable)
	return l, ok
}
