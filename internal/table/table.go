// Package table implements the paper's representation hierarchy (§2.2,
// Fig. 1): Codd-tables, e-tables, i-tables, g-tables and c-tables are all
// values of one Table type; Kind classifies a table into the least
// expressive class it belongs to, which is what internal/decide dispatches
// on to select the specialised polynomial-time algorithms.
//
// A Database is an n-vector of tables (the paper's generalization at the
// end of §2.2); the variables of distinct tables must be pairwise disjoint,
// with relationships established only through the global condition. Its
// compiled form (Compiled: normal form, kind, per-table row-pattern
// index) is built once, on first use by a decision procedure, after which
// the database is read-only.
package table

import (
	"fmt"
	"strings"
	"sync/atomic"

	"pw/internal/cond"
	"pw/internal/sym"
	"pw/internal/value"
)

// Kind is the representation class of a table or database, ordered by
// expressiveness. Every table of kind k also belongs to every kind ≥ k in
// the partial order Codd < E,I < G < C (E and I are incomparable; both sit
// below G).
type Kind uint8

const (
	// KindCodd : constants and uniquely occurring variables, no conditions.
	KindCodd Kind = iota
	// KindE : Codd-table plus a conjunction of equalities (equivalently, a
	// table where variables may repeat — the "naive tables" of [1,7,10]).
	KindE
	// KindI : Codd-table plus a global conjunction of inequalities.
	KindI
	// KindG : e-table plus a global conjunction of inequalities.
	KindG
	// KindC : g-table plus per-tuple local conditions.
	KindC
)

// String names the kind as in the paper.
func (k Kind) String() string {
	switch k {
	case KindCodd:
		return "table"
	case KindE:
		return "e-table"
	case KindI:
		return "i-table"
	case KindG:
		return "g-table"
	default:
		return "c-table"
	}
}

// AtMost reports whether k is in the fragment bounded by m, following the
// partial order (E ⋠ I and I ⋠ E).
func (k Kind) AtMost(m Kind) bool {
	if k == m || k == KindCodd {
		return true
	}
	switch m {
	case KindCodd:
		return false
	case KindE, KindI:
		return false // k != m and k != Codd
	case KindG:
		return k == KindE || k == KindI
	default: // KindC
		return true
	}
}

// Row is one tuple of a table together with its local condition (nil means
// the atom true, per the paper's convention).
type Row struct {
	Values value.Tuple
	Cond   cond.Conjunction
}

// NewRow builds an unconditioned row.
func NewRow(vs ...value.Value) Row { return Row{Values: value.NewTuple(vs...)} }

// Clone deep-copies the row.
func (r Row) Clone() Row {
	return Row{Values: r.Values.Clone(), Cond: r.Cond.Clone()}
}

// String renders the row in .pw syntax.
func (r Row) String() string {
	s := make([]string, len(r.Values))
	for i, v := range r.Values {
		s[i] = v.String()
	}
	out := strings.Join(s, " ")
	if len(r.Cond) > 0 {
		out += " | " + r.Cond.String()
	}
	return out
}

// Table is a conditioned table over one relation symbol. With Global and
// all local conditions empty and all variables distinct it is a Codd-table;
// the other classes are obtained by allowing more of the machinery (see
// Kind).
type Table struct {
	Name   string
	Arity  int
	Global cond.Conjunction // conjunction associated with the whole table
	Rows   []Row
}

// New returns an empty table with the given name and arity.
func New(name string, arity int) *Table {
	return &Table{Name: name, Arity: arity}
}

// Add appends a row, panicking on arity mismatch (programming error).
func (t *Table) Add(r Row) *Table {
	if len(r.Values) != t.Arity {
		panic(fmt.Sprintf("table: row %v has arity %d, table %s expects %d",
			r.Values, len(r.Values), t.Name, t.Arity))
	}
	t.Rows = append(t.Rows, r)
	return t
}

// AddTuple appends an unconditioned row of the given values.
func (t *Table) AddTuple(vs ...value.Value) *Table { return t.Add(NewRow(vs...)) }

// Clone deep-copies the table.
func (t *Table) Clone() *Table {
	c := New(t.Name, t.Arity)
	c.Global = t.Global.Clone()
	c.Rows = make([]Row, len(t.Rows))
	for i, r := range t.Rows {
		c.Rows[i] = r.Clone()
	}
	return c
}

// VarIDs appends all variable IDs of the table to dst in order of first
// occurrence (dedup via seen).
func (t *Table) VarIDs(dst []sym.ID, seen map[sym.ID]bool) []sym.ID {
	dst = t.Global.VarIDs(dst, seen)
	for _, r := range t.Rows {
		dst = r.Values.VarIDs(dst, seen)
		dst = r.Cond.VarIDs(dst, seen)
	}
	return dst
}

// ConstIDs appends all constant IDs of the table to dst (dedup via seen).
func (t *Table) ConstIDs(dst []sym.ID, seen map[sym.ID]bool) []sym.ID {
	dst = t.Global.ConstIDs(dst, seen)
	for _, r := range t.Rows {
		for _, v := range r.Values {
			if v.IsConst() && !seen[v.ID()] {
				seen[v.ID()] = true
				dst = append(dst, v.ID())
			}
		}
		dst = r.Cond.ConstIDs(dst, seen)
	}
	return dst
}

// HasLocalConds reports whether any row carries a non-trivial local
// condition.
func (t *Table) HasLocalConds() bool {
	for _, r := range t.Rows {
		if len(r.Cond) > 0 && !r.Cond.IsTrue() {
			return true
		}
	}
	return false
}

// varsDistinct reports whether no variable occurs twice among the row
// values of the table (the Codd property). Conditions are not inspected.
func (t *Table) varsDistinct(seen map[sym.ID]struct{}) bool {
	for _, r := range t.Rows {
		for _, v := range r.Values {
			if v.IsVar() {
				if _, dup := seen[v.ID()]; dup {
					return false
				}
				seen[v.ID()] = struct{}{}
			}
		}
	}
	return true
}

// Kind classifies the table into the least expressive class it
// syntactically belongs to. Repeated variables in rows are treated as
// incorporated equalities (standard practice, per the paper), so a
// condition-free table with repeated variables is an e-table.
func (t *Table) Kind() Kind {
	if t.HasLocalConds() {
		return KindC
	}
	distinct := t.varsDistinct(map[sym.ID]struct{}{})
	hasEq, hasNeq := false, false
	for _, a := range t.Global {
		if a.TriviallyTrue() {
			continue
		}
		if a.Op == cond.Eq {
			hasEq = true
		} else {
			hasNeq = true
		}
	}
	eq := hasEq || !distinct
	switch {
	case !eq && !hasNeq:
		return KindCodd
	case eq && !hasNeq:
		return KindE
	case !eq && hasNeq:
		return KindI
	default:
		return KindG
	}
}

// Subst applies a substitution to rows, local conditions and the global
// condition, returning a new table.
func (t *Table) Subst(s value.Subst) *Table {
	c := New(t.Name, t.Arity)
	c.Global = t.Global.Subst(s)
	c.Rows = make([]Row, len(t.Rows))
	for i, r := range t.Rows {
		vals := make(value.Tuple, len(r.Values))
		for j, v := range r.Values {
			if v.IsVar() {
				if w, ok := s[v]; ok {
					vals[j] = w
					continue
				}
			}
			vals[j] = v
		}
		c.Rows[i] = Row{Values: vals, Cond: r.Cond.Subst(s)}
	}
	return c
}

// String renders the table in .pw syntax.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "@table %s(%d)", t.Name, t.Arity)
	if len(t.Global) > 0 {
		fmt.Fprintf(&b, "\n  global: %s", t.Global.String())
	}
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "\n  row: %s", r.String())
	}
	return b.String()
}

// Database is a vector of conditioned tables over distinct relation names.
// The paper requires the variables of member tables to be pairwise
// disjoint; Validate checks this.
//
// A database is read-only once a decision procedure has read it: the
// first decision builds its compiled form (Compiled: the normal form,
// its kind and per-table row indexes) and every later one reuses it, so
// a row or condition changed afterwards would go unseen. AddTable drops
// the compiled form; any other change needs a fresh database.
type Database struct {
	tables   []*Table
	index    map[string]int
	compiled atomic.Pointer[Compiled]
}

// NewDatabase returns an empty database.
func NewDatabase() *Database { return &Database{index: make(map[string]int)} }

// DB builds a database from tables (convenience).
func DB(ts ...*Table) *Database {
	d := NewDatabase()
	for _, t := range ts {
		d.AddTable(t)
	}
	return d
}

// AddTable inserts t; it panics on duplicate names.
func (d *Database) AddTable(t *Table) *Table {
	if _, ok := d.index[t.Name]; ok {
		panic("table: duplicate table " + t.Name)
	}
	d.index[t.Name] = len(d.tables)
	d.tables = append(d.tables, t)
	d.compiled.Store(nil)
	return t
}

// Table returns the table named name, or nil.
func (d *Database) Table(name string) *Table {
	if i, ok := d.index[name]; ok {
		return d.tables[i]
	}
	return nil
}

// Tables returns the member tables in insertion order.
func (d *Database) Tables() []*Table { return d.tables }

// Clone deep-copies the database.
func (d *Database) Clone() *Database {
	c := NewDatabase()
	for _, t := range d.tables {
		c.AddTable(t.Clone())
	}
	return c
}

// Kind returns the least class containing every member table, also
// accounting for global conditions that span tables: a database whose
// members are individually Codd but which shares variables across tables
// is classified by the joint conditions.
func (d *Database) Kind() Kind {
	k := KindCodd
	join := func(m Kind) {
		// Join in the partial order; E ∨ I = G.
		if m == k || m.AtMost(k) {
			return
		}
		if k.AtMost(m) {
			k = m
			return
		}
		k = KindG
		if m == KindC {
			k = KindC
		}
	}
	for _, t := range d.tables {
		join(t.Kind())
	}
	// Cross-table repeated variables act as equalities.
	if k == KindCodd || k == KindI {
		seen := map[sym.ID]struct{}{}
		for _, t := range d.tables {
			if !t.varsDistinct(seen) {
				join(KindE)
				break
			}
		}
	}
	return k
}

// VarNames returns the sorted set of variable names (display form).
func (d *Database) VarNames() []string {
	return sym.Names(d.VarIDs(nil, map[sym.ID]bool{}))
}

// VarIDs appends all variable IDs of the database to dst (dedup via seen).
func (d *Database) VarIDs(dst []sym.ID, seen map[sym.ID]bool) []sym.ID {
	for _, t := range d.tables {
		dst = t.VarIDs(dst, seen)
	}
	return dst
}

// Universe returns the database's symbol universe: its variables, sorted
// by name for canonical enumeration order, with dense valuation slots.
func (d *Database) Universe() *sym.Universe {
	vs := d.VarIDs(nil, map[sym.ID]bool{})
	sym.SortByName(vs)
	return sym.NewUniverse(vs)
}

// ConstIDs appends all constant IDs of the database to dst (dedup via
// seen), the database's share of NewDelta's Base.
func (d *Database) ConstIDs(dst []sym.ID, seen map[sym.ID]bool) []sym.ID {
	for _, t := range d.tables {
		dst = t.ConstIDs(dst, seen)
	}
	return dst
}

// ConstNames returns the sorted set of constant names (display form).
func (d *Database) ConstNames() []string {
	return sym.Names(d.ConstIDs(nil, map[sym.ID]bool{}))
}

// GlobalConjunction returns the conjunction of all member tables' global
// conditions (the database-level global condition).
func (d *Database) GlobalConjunction() cond.Conjunction {
	var out cond.Conjunction
	for _, t := range d.tables {
		out = append(out, t.Global...)
	}
	return out
}

// Size returns the total number of rows.
func (d *Database) Size() int {
	n := 0
	for _, t := range d.tables {
		n += len(t.Rows)
	}
	return n
}

// Validate checks structural invariants: arities respected (enforced on
// Add) and row variables pairwise disjoint across distinct tables when the
// claimed kind is at most g-table... disjointness is required by the paper
// for vectors, with cross-table relationships expressed in conditions.
// Validate returns an error describing the first violation, or nil.
func (d *Database) Validate() error {
	seen := map[sym.ID]string{} // var -> first table
	for _, t := range d.tables {
		for _, r := range t.Rows {
			for _, v := range r.Values {
				if !v.IsVar() {
					continue
				}
				prev, ok := seen[v.ID()]
				if !ok {
					seen[v.ID()] = t.Name
				} else if prev != t.Name {
					return fmt.Errorf("table: variable ?%s occurs in both %s and %s rows; vector tables must use disjoint variables (link them via conditions)",
						v.Name(), prev, t.Name)
				}
			}
		}
	}
	return nil
}

// String renders all member tables.
func (d *Database) String() string {
	parts := make([]string, len(d.tables))
	for i, t := range d.tables {
		parts[i] = t.String()
	}
	return strings.Join(parts, "\n")
}

// Schema describes relation names and arities; both instances and
// databases expose one for compatibility checks.
type Schema []SchemaRel

// SchemaRel is one relation's name and arity.
type SchemaRel struct {
	Name  string
	Arity int
}

// Schema returns the database's schema in insertion order.
func (d *Database) Schema() Schema {
	s := make(Schema, len(d.tables))
	for i, t := range d.tables {
		s[i] = SchemaRel{Name: t.Name, Arity: t.Arity}
	}
	return s
}
