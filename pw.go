// Package pw is the public API of the possible-worlds library: a Go
// implementation of Abiteboul, Kanellakis and Grahne, "On the
// Representation and Querying of Sets of Possible Worlds" (SIGMOD 1987 /
// TCS 78(1991)).
//
// The package re-exports the library's core types as aliases and provides
// convenience constructors, so downstream users import only "pw":
//
//	t := pw.NewTable("R", 2)
//	t.AddTuple(pw.Const("1"), pw.Var("x"))
//	db := pw.NewDatabase(t)
//	worlds := pw.Worlds(db)                // enumerate rep(db)
//	ok, _ := pw.Member(instance, db)       // MEMB
//	ok, _ = pw.Certain(facts, query, db)   // CERT
//
// The full machinery lives in the internal packages; see DESIGN.md for the
// map from the paper's sections to modules.
package pw

import (
	"pw/internal/algebra"
	"pw/internal/cond"
	"pw/internal/decide"
	"pw/internal/query"
	"pw/internal/rel"
	"pw/internal/rep"
	"pw/internal/sym"
	"pw/internal/table"
	"pw/internal/valuation"
	"pw/internal/worlds"
	"pw/internal/wsd"
	"pw/internal/wsdalg"
)

// Core value and condition types.
type (
	// Value is a constant or a variable (null): an interned symbol whose
	// kind bit keeps the two namespaces disjoint (§2.2).
	Value = sym.ID
	// Tuple is a sequence of values: a table row, which may hold
	// variables, or a ground fact.
	Tuple = sym.Tuple
	// Atom is an equality or inequality between two values.
	Atom = cond.Atom
	// Conjunction is a conjunct of atoms (the paper's condition form).
	Conjunction = cond.Conjunction
)

// Table and instance types.
type (
	// Table is a conditioned table (Codd-, e-, i-, g- or c-table).
	Table = table.Table
	// Row is one tuple of a table with its local condition.
	Row = table.Row
	// Database is a vector of conditioned tables.
	Database = table.Database
	// Kind is the representation class of a table or database.
	Kind = table.Kind
	// Fact is a ground tuple.
	Fact = rel.Fact
	// Relation is a named set of facts.
	Relation = rel.Relation
	// Instance is a complete-information database.
	Instance = rel.Instance
	// Valuation maps variables to constants.
	Valuation = valuation.V
	// Schema describes relation names and arities.
	Schema = table.Schema
	// SchemaRel is one relation's name and arity in a Schema.
	SchemaRel = table.SchemaRel
)

// World-set decomposition types (the second representation backend): a
// world set stored as a product of independent components, with exact
// big-int counting and polynomial MEMB/POSS/CERT on the decomposition.
type (
	// WSD is a world-set decomposition.
	WSD = wsd.WSD
	// WSDFact is one ground fact of a decomposition alternative.
	WSDFact = wsd.Fact
	// WSDAlt is one alternative (fact-set) of a decomposition component.
	WSDAlt = wsd.Alt
)

// Query types.
type (
	// Query maps instances to instances with PTIME data-complexity.
	Query = query.Query
	// AlgebraQuery is a positive existential query (vector of named
	// relational algebra expressions), evaluable directly on c-tables.
	AlgebraQuery = query.Algebra
	// AlgebraOut is one named output relation of an algebra query.
	AlgebraOut = query.Out
	// FOQuery is a first-order query vector.
	FOQuery = query.FO
	// DatalogQuery is a DATALOG query.
	DatalogQuery = query.Datalog
	// Expr is a relational algebra expression.
	Expr = algebra.Expr
)

// NewAlgebraQuery builds a relational-algebra query from named outputs.
func NewAlgebraQuery(name string, outs ...AlgebraOut) AlgebraQuery {
	return query.NewAlgebra(name, outs...)
}

// Algebra expression constructors, re-exported so downstream users can
// assemble queries against the façade alone.

// ScanExpr scans a base relation, naming its columns positionally.
func ScanExpr(rel string, cols ...string) Expr { return algebra.Scan(rel, cols...) }

// ProjectExpr keeps the named columns, in the given order.
func ProjectExpr(e Expr, cols ...string) Expr { return algebra.Project{E: e, Cols: cols} }

// WhereEqExpr filters e by column = constant.
func WhereEqExpr(e Expr, col, constant string) Expr {
	return algebra.Where(e, algebra.EqP(algebra.Col(col), algebra.Lit(constant)))
}

// WhereEqColsExpr filters e by column = column.
func WhereEqColsExpr(e Expr, col1, col2 string) Expr {
	return algebra.Where(e, algebra.EqP(algebra.Col(col1), algebra.Col(col2)))
}

// RenameExpr renames columns pairwise: from[i] → to[i].
func RenameExpr(e Expr, from, to []string) Expr { return algebra.Rename{E: e, From: from, To: to} }

// JoinExpr is the natural join on shared column names.
func JoinExpr(l, r Expr) Expr { return algebra.Join{L: l, R: r} }

// UnionExpr is set union of two same-schema expressions.
func UnionExpr(l, r Expr) Expr { return algebra.Union{L: l, R: r} }

// Representation kinds, re-exported.
const (
	KindCodd = table.KindCodd
	KindE    = table.KindE
	KindI    = table.KindI
	KindG    = table.KindG
	KindC    = table.KindC
)

// Options tunes how the engine searches without changing what it decides.
// The determinism contract: every decision procedure returns identical
// results — booleans, world sets, answer sets — at every worker count,
// even though internal visit order differs under parallelism. Workers = 1
// reproduces the sequential engine bit-for-bit (witness order, fresh
// "~z…" constant naming); the zero value uses GOMAXPROCS workers.
//
//	ok, _ := pw.Options{Workers: 8}.Member(instance, db)
type Options struct {
	// Workers is the goroutine budget for the exponential valuation
	// searches and large matching-graph builds. 0 means GOMAXPROCS;
	// 1 is the sequential engine.
	Workers int
}

func (o Options) decide() decide.Options { return decide.Options{Workers: o.Workers} }
func (o Options) worlds() worlds.Options { return worlds.Options{Workers: o.Workers} }

// Member decides MEMB(−) with this option set.
func (o Options) Member(i *Instance, d *Database) (bool, error) {
	return o.decide().Membership(i, query.Identity{}, d)
}

// MemberOfView decides MEMB(q) with this option set.
func (o Options) MemberOfView(i *Instance, q Query, d *Database) (bool, error) {
	return o.decide().Membership(i, q, d)
}

// Unique decides UNIQ(−) with this option set.
func (o Options) Unique(i *Instance, d *Database) (bool, error) {
	return o.decide().Uniqueness(query.Identity{}, d, i)
}

// UniqueView decides UNIQ(q0) with this option set.
func (o Options) UniqueView(i *Instance, q0 Query, d *Database) (bool, error) {
	return o.decide().Uniqueness(q0, d, i)
}

// Contained decides CONT(−,−) with this option set.
func (o Options) Contained(d0, d *Database) (bool, error) {
	return o.decide().Containment(query.Identity{}, d0, query.Identity{}, d)
}

// ContainedViews decides CONT(q0,q) with this option set.
func (o Options) ContainedViews(q0 Query, d0 *Database, q Query, d *Database) (bool, error) {
	return o.decide().Containment(q0, d0, q, d)
}

// Possible decides POSS(∗,q) with this option set.
func (o Options) Possible(p *Instance, q Query, d *Database) (bool, error) {
	return o.decide().Possible(p, q, d)
}

// Certain decides CERT(∗,q) with this option set.
func (o Options) Certain(p *Instance, q Query, d *Database) (bool, error) {
	return o.decide().Certain(p, q, d)
}

// PossibleFact decides POSS(1,q) with this option set.
func (o Options) PossibleFact(relName string, f Fact, q Query, d *Database) (bool, error) {
	return o.decide().PossibleFact(relName, f, q, d)
}

// CertainFact decides CERT(1,q) with this option set.
func (o Options) CertainFact(relName string, f Fact, q Query, d *Database) (bool, error) {
	return o.decide().CertainFact(relName, f, q, d)
}

// CertainAnswers computes the certain answers of a liftable view with
// this option set; the answer set (and its order) is worker-count
// independent.
func (o Options) CertainAnswers(q Query, d *Database) (*Instance, error) {
	return o.decide().CertainAnswers(q, d)
}

// PossibleAnswers computes the possible answers of a liftable view over
// the constants of d and q with this option set; the answer set is
// worker-count independent.
func (o Options) PossibleAnswers(q Query, d *Database) (*Instance, error) {
	return o.decide().PossibleAnswers(q, d)
}

// Worlds materializes rep(d) with this option set: the valuation space is
// sharded across workers with per-shard fingerprint deduplication. The
// world *set* is worker-count independent; the slice order is the
// sequential enumeration order at Workers = 1 and shard-merge order above.
func (o Options) Worlds(d *Database) []*Instance { return o.worlds().All(d) }

// CountWorlds returns |rep(d)| over the canonical domain with this option
// set.
func (o Options) CountWorlds(d *Database) int { return o.worlds().Count(d) }

// Const returns the constant named name.
func Const(name string) Value { return sym.Const(name) }

// Var returns the variable (null) named name.
func Var(name string) Value { return sym.Var(name) }

// Eq returns the atom l = r.
func Eq(l, r Value) Atom { return cond.EqAtom(l, r) }

// Neq returns the atom l ≠ r.
func Neq(l, r Value) Atom { return cond.NeqAtom(l, r) }

// NewTable returns an empty conditioned table.
func NewTable(name string, arity int) *Table { return table.New(name, arity) }

// NewDatabase builds a database from tables.
func NewDatabase(tables ...*Table) *Database { return table.DB(tables...) }

// NewInstance returns an empty complete-information database.
func NewInstance() *Instance { return rel.NewInstance() }

// NewRelation returns an empty relation.
func NewRelation(name string, arity int) *Relation { return rel.NewRelation(name, arity) }

// Identity is the identity query.
func Identity() Query { return query.Identity{} }

// Worlds materializes rep(d) over the canonical domain Δ ∪ Δ′
// (Proposition 2.1). The result grows exponentially with the number of
// variables; use EachWorld for streaming.
func Worlds(d *Database) []*Instance { return worlds.All(d) }

// EachWorld streams the distinct possible worlds of d; fn returns true to
// stop early.
func EachWorld(d *Database, fn func(*Instance) bool) { worlds.Each(d, nil, fn) }

// CountWorlds returns |rep(d)| over the canonical domain.
func CountWorlds(d *Database) int { return worlds.Count(d) }

// Member decides MEMB(−): is i ∈ rep(d)? Polynomial for Codd-tables
// (Theorem 3.1(1)), NP search otherwise.
func Member(i *Instance, d *Database) (bool, error) {
	return decide.Options{}.Membership(i, query.Identity{}, d)
}

// MemberOfView decides MEMB(q): is i ∈ q(rep(d))?
func MemberOfView(i *Instance, q Query, d *Database) (bool, error) {
	return decide.Options{}.Membership(i, q, d)
}

// Unique decides UNIQ(−): is rep(d) = {i}?
func Unique(i *Instance, d *Database) (bool, error) {
	return decide.Options{}.Uniqueness(query.Identity{}, d, i)
}

// UniqueView decides UNIQ(q0): is q0(rep(d)) = {i}?
func UniqueView(i *Instance, q0 Query, d *Database) (bool, error) {
	return decide.Options{}.Uniqueness(q0, d, i)
}

// Contained decides CONT(−,−): is rep(d0) ⊆ rep(d)?
func Contained(d0, d *Database) (bool, error) {
	return decide.Options{}.Containment(query.Identity{}, d0, query.Identity{}, d)
}

// ContainedViews decides CONT(q0,q): is q0(rep(d0)) ⊆ q(rep(d))?
func ContainedViews(q0 Query, d0 *Database, q Query, d *Database) (bool, error) {
	return decide.Options{}.Containment(q0, d0, q, d)
}

// Possible decides POSS(∗,q): does some world of q(rep(d)) contain all
// facts of p? Pass Identity() for the view-free question.
func Possible(p *Instance, q Query, d *Database) (bool, error) {
	return decide.Options{}.Possible(p, q, d)
}

// Certain decides CERT(∗,q): do all worlds of q(rep(d)) contain all facts
// of p?
func Certain(p *Instance, q Query, d *Database) (bool, error) {
	return decide.Options{}.Certain(p, q, d)
}

// PossibleFact and CertainFact are the single-fact forms (POSS(1,q) and
// CERT(1,q), the primitive CERT(∗,q) reduces to, Proposition 2.1(6)).
func PossibleFact(relName string, f Fact, q Query, d *Database) (bool, error) {
	return decide.Options{}.PossibleFact(relName, f, q, d)
}

// CertainFact decides CERT(1, q) for a single fact.
func CertainFact(relName string, f Fact, q Query, d *Database) (bool, error) {
	return decide.Options{}.CertainFact(relName, f, q, d)
}

// Normalize incorporates implied equalities into the tables and leaves a
// residual inequality global condition; ok=false means rep(d) = ∅. The
// result is always independent of d and free to mutate (the internal fast
// path may alias; the façade clones in that case).
func Normalize(d *Database) (*Database, bool) {
	nd, ok := table.Normalize(d)
	if ok && nd == d {
		nd = d.Clone()
	}
	return nd, ok
}

// NewWSD returns an empty world-set decomposition over the given schema
// (zero components: the single world with every relation empty). Build it
// up with AddComponent (tuple-level alternatives) and AddWSDTemplate
// (attribute-level per-slot alternatives); the query methods normalize
// lazily and panic if normalization fails (its only failure mode is the
// merged-component blow-up guard on heavily entangled inputs) — call
// Normalize explicitly after building to receive that as an error
// instead, and before sharing the decomposition across goroutines.
func NewWSD(schema Schema) *WSD { return wsd.New(schema) }

// AddWSDTemplate appends an attribute-level component to a
// decomposition: one fact template over relName whose slot i ranges
// over slots[i], denoting the cross product of the slot choices as its
// alternatives (one instantiation per world) without ever materializing
// the product. A database whose fields vary independently — n readings
// of k values each — is k^n worlds in n·k symbols this way; Count,
// Member, PossibleFact, CertainFact and Sample all stay polynomial in
// the decomposition size, and Apply-family queries evaluate on the
// factored form directly.
func AddWSDTemplate(w *WSD, relName string, slots ...[]string) error {
	return w.AddTemplateComponent(relName, slots...)
}

// WSDFromWorlds factorizes a finite world list into a normalized
// decomposition denoting exactly that set: Count equals the number of
// distinct worlds and Expand reproduces them.
func WSDFromWorlds(ws []*Instance) (*WSD, error) { return wsd.FromWorlds(ws) }

// ToWSD compiles a conditioned-table database into a decomposition
// denoting exactly rep(d). It errors (wrapping ErrInfiniteRep) when
// rep(d) is infinite — i.e. some row variable is not forced to a
// constant by the global condition.
func ToWSD(d *Database) (*WSD, error) { return wsd.ToWSD(d) }

// ToWSDOverDomain compiles the world set of d restricted to valuations
// into the given finite domain (nil = the canonical Δ ∪ Δ′, agreeing
// exactly with Worlds/CountWorlds).
func ToWSDOverDomain(d *Database, domain []string) (*WSD, error) {
	return wsd.ToWSDOverDomain(d, domain)
}

// ErrInfiniteRep is returned (wrapped) by ToWSD for databases whose
// world set is infinite.
var ErrInfiniteRep = wsd.ErrInfiniteRep

// Apply evaluates a positive existential query directly on a c-table
// database, returning a c-table database representing the view q(rep(d))
// (the Imielinski–Lipski lifted evaluation used by Theorem 5.2(1)).
func Apply(q AlgebraQuery, d *Database) (*Database, error) { return q.EvalLifted(d) }

// CertainAnswers computes every certain fact of q(rep(d)) for a liftable
// (positive existential) query: the answers present in all possible
// worlds. For homomorphism-preserved queries on g-tables this is the
// polynomial certain-answer computation of Theorem 5.3(1); with ≠ or
// local conditions each candidate is confirmed by refutation.
func CertainAnswers(q Query, d *Database) (*Instance, error) {
	return decide.Options{}.CertainAnswers(q, d)
}

// PossibleAnswers computes every possible fact of q(rep(d)) over the
// constants of d and q, for a liftable query: the answers present in at
// least one possible world. (Facts over fresh constants may also be
// possible but form an infinite family; the restriction to the inputs'
// constants is the canonical finite answer set.)
func PossibleAnswers(q Query, d *Database) (*Instance, error) {
	return decide.Options{}.PossibleAnswers(q, d)
}

// ApplyWSD evaluates a positive relational-algebra query directly on a
// world-set decomposition, returning a normalized decomposition of the
// answer world-set: rep(ApplyWSD(q, w)) = {q(W) : W ∈ rep(w)}. No world
// is enumerated: component-local operators map alternatives pointwise
// and cross-component joins recombine only the components they touch.
// Queries outside the fragment (FO, DATALOG, algebra with ≠) error with
// ErrUnsupportedQuery.
func ApplyWSD(q Query, w *WSD) (*WSD, error) {
	out, _, _, err := wsdalg.Apply(w, q, wsdalg.Options{Decision: wsdalg.Written(q)})
	return out, err
}

// PossibleAnswersWSD computes every possible answer fact of q over the
// decomposition — the union of the answer world-set, read off the
// evaluated parts without assembling it.
func PossibleAnswersWSD(q Query, w *WSD) (*Instance, error) {
	return rep.DB{WSD: w}.Answers(decide.Options{}, q, true)
}

// CertainAnswersWSD computes every certain answer fact of q over the
// decomposition — the intersection of the answer world-set.
func CertainAnswersWSD(q Query, w *WSD) (*Instance, error) {
	return rep.DB{WSD: w}.Answers(decide.Options{}, q, false)
}

// ContainedWSD decides CONT(−,−) natively on decompositions:
// rep(sub) ⊆ rep(sup)?
func ContainedWSD(sub, sup *WSD) (bool, error) { return wsdalg.Contains(sub, sup) }

// ContainedViewsWSD decides CONT(q0,q) natively on decompositions:
// q0(rep(d0)) ⊆ q(rep(d))? Both queries must be in the supported
// fragment.
func ContainedViewsWSD(q0 Query, d0 *WSD, q Query, d *WSD) (bool, error) {
	return wsdalg.ContainmentViews(q0, d0, q, d)
}

// ErrUnsupportedQuery is returned (wrapped) by the WSD query entry
// points for queries outside the decomposition-evaluable fragment
// (positive existential algebra plus the identity query).
var ErrUnsupportedQuery = wsdalg.ErrUnsupported
