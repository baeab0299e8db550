package cond

import (
	"sync"

	"pw/internal/sym"
)

// Solver is a backtrackable equality closure: the conjunction of the
// atoms pushed so far, kept satisfiable, over interned symbol IDs.
//
// Values are nodes of a union–find forest, linked by size and never
// path-compressed, so every change to the closure is one undo-trail
// entry. A class keeps at its root its constant (at most one: merging two
// constants fails) and one entry of a circular list of its disequalities,
// each naming a node of the other side. Push adds atoms as one level and
// Pop removes the last level by undoing its trail entries; nodes, once
// made, stay until Reset as singletons, which constrain nothing.
//
// The zero Solver is empty and ready for use. A Solver is not safe for
// concurrent use: each search owns its own, usually from GetSolver.
type Solver struct {
	idx   map[sym.ID]int32 // value → node
	nodes []solverNode
	neqs  []neqEntry // the entries of all disequality lists
	trail []change
	marks []int32 // trail length at each open Push
}

// solverNode is one value of the forest; konst and neq are kept at roots.
type solverNode struct {
	id           sym.ID
	parent, size int32
	konst        sym.ID // the class's constant, or sym.None
	neq          int32  // an entry of the class's disequality list, or -1
}

// neqEntry names a node across one disequality of its class.
type neqEntry struct{ to, next int32 }

// change is one undo-trail entry. child ≥ 0: the root child was linked
// under root, whose constant was konst before. child < 0: the last
// disequality entry was inserted into root's list.
type change struct {
	root, child int32
	konst       sym.ID
}

var solvers = sync.Pool{New: func() any { return new(Solver) }}

// GetSolver returns an empty solver from a shared pool. Hand it back with
// Release once the search that owns it is done.
func GetSolver() *Solver { return solvers.Get().(*Solver) }

// Release empties s and returns it to GetSolver's pool; s must not be
// used afterwards.
func (s *Solver) Release() {
	s.Reset()
	solvers.Put(s)
}

// Reset empties s, keeping its storage.
func (s *Solver) Reset() {
	clear(s.idx)
	s.nodes, s.neqs, s.trail, s.marks = s.nodes[:0], s.neqs[:0], s.trail[:0], s.marks[:0]
}

// Push conjoins atoms to the closure as one level and reports whether the
// result is still satisfiable. A failed Push leaves s as it was and opens
// no level; a successful one is undone by Pop.
func (s *Solver) Push(atoms ...Atom) bool {
	mark := len(s.trail)
	for _, a := range atoms {
		if !s.add(a) {
			s.undoTo(mark)
			return false
		}
	}
	s.marks = append(s.marks, int32(mark))
	return true
}

// Pop removes the atoms of the last successful Push.
func (s *Solver) Pop() {
	n := len(s.marks) - 1
	s.undoTo(int(s.marks[n]))
	s.marks = s.marks[:n]
}

// Implies reports whether the closure entails a: pushing ¬a fails.
func (s *Solver) Implies(a Atom) bool {
	if s.Push(a.Negate()) {
		s.Pop()
		return false
	}
	return true
}

// ImpliedBindings returns the substitution the closure forces, as
// Conjunction.ImpliedBindings documents: each variable of a class with a
// constant maps to it, each other variable of a class with several
// variables to the class's least-named variable.
func (s *Solver) ImpliedBindings() Subst {
	// Per root: the class's representative. 0 (a constant, so never a
	// variable's ID) marks a variable-only class with none chosen yet.
	rep := make([]sym.ID, len(s.nodes))
	for n, nd := range s.nodes {
		r := s.find(int32(n))
		if c := s.nodes[r].konst; c != sym.None {
			rep[r] = c
		} else if nd.id.IsVar() && (rep[r] == 0 || nd.id.Name() < rep[r].Name()) {
			rep[r] = nd.id
		}
	}
	out := make(Subst)
	for n, nd := range s.nodes {
		if r := rep[s.find(int32(n))]; nd.id.IsVar() && r != nd.id {
			out[nd.id] = r
		}
	}
	return out
}

// add conjoins one atom, leaving the trail entries it made for the
// enclosing Push to undo on failure.
func (s *Solver) add(a Atom) bool {
	if (!a.L.IsVar() && !a.R.IsVar()) || a.L == a.R {
		return !a.TriviallyFalse()
	}
	l, r := s.find(s.node(a.L)), s.find(s.node(a.R))
	if a.Op == Eq {
		return s.union(l, r)
	}
	if l == r {
		return false
	}
	if s.nodes[l].konst != sym.None && s.nodes[r].konst != sym.None {
		return true // two distinct constants: apart for good
	}
	s.link(l, r)
	s.link(r, l)
	return true
}

// node returns the node of id, making a singleton on first sight.
func (s *Solver) node(id sym.ID) int32 {
	if n, ok := s.idx[id]; ok {
		return n
	}
	if s.idx == nil {
		s.idx = make(map[sym.ID]int32)
	}
	n := int32(len(s.nodes))
	s.idx[id] = n
	konst := id
	if id.IsVar() {
		konst = sym.None
	}
	s.nodes = append(s.nodes, solverNode{id: id, parent: n, size: 1, konst: konst, neq: -1})
	return n
}

func (s *Solver) find(n int32) int32 {
	for s.nodes[n].parent != n {
		n = s.nodes[n].parent
	}
	return n
}

// union merges the classes of roots l and r unless they hold two
// constants or a disequality separates them.
func (s *Solver) union(l, r int32) bool {
	if l == r {
		return true
	}
	if s.nodes[l].konst != sym.None && s.nodes[r].konst != sym.None {
		return false
	}
	if s.nodes[l].size < s.nodes[r].size {
		l, r = r, l
	}
	// Each disequality sits on both its classes' lists, so r's list
	// names every one between the two.
	if h := s.nodes[r].neq; h >= 0 {
		for e := h; ; {
			if s.find(s.neqs[e].to) == l {
				return false
			}
			if e = s.neqs[e].next; e == h {
				break
			}
		}
	}
	root, child := &s.nodes[l], &s.nodes[r]
	s.trail = append(s.trail, change{root: l, child: r, konst: root.konst})
	child.parent = l
	root.size += child.size
	if root.konst == sym.None {
		root.konst = child.konst
	}
	s.splice(l, r)
	return true
}

// splice joins r's disequality list into root l's. Swapping the
// successors of one entry of each circular list joins them, and
// swapping again splits them, so the undo is splice itself.
func (s *Solver) splice(l, r int32) {
	hl, hr := s.nodes[l].neq, s.nodes[r].neq
	switch {
	case hr < 0:
	case hl < 0:
		s.nodes[l].neq = hr
	case hl == hr: // undoing a join into an empty list
		s.nodes[l].neq = -1
	default:
		s.neqs[hl].next, s.neqs[hr].next = s.neqs[hr].next, s.neqs[hl].next
	}
}

// link inserts an entry naming other into root r's disequality list,
// right after its head.
func (s *Solver) link(r, other int32) {
	e := int32(len(s.neqs))
	if h := s.nodes[r].neq; h < 0 {
		s.nodes[r].neq = e
		s.neqs = append(s.neqs, neqEntry{to: other, next: e})
	} else {
		s.neqs = append(s.neqs, neqEntry{to: other, next: s.neqs[h].next})
		s.neqs[h].next = e
	}
	s.trail = append(s.trail, change{root: r, child: -1})
}

// undoTo reverts trail entries, newest first, until mark are left.
func (s *Solver) undoTo(mark int) {
	for i := len(s.trail) - 1; i >= mark; i-- {
		c := s.trail[i]
		root := &s.nodes[c.root]
		if c.child < 0 {
			e := int32(len(s.neqs) - 1)
			if root.neq == e {
				root.neq = -1
			} else {
				s.neqs[root.neq].next = s.neqs[e].next
			}
			s.neqs = s.neqs[:e]
			continue
		}
		s.splice(c.root, c.child)
		s.nodes[c.child].parent = c.child
		root.size -= s.nodes[c.child].size
		root.konst = c.konst
	}
	s.trail = s.trail[:mark]
}
