package cond

import (
	"pw/internal/sym"
	"pw/internal/unionfind"
)

// closureState is the reference equality closure the Solver replaced:
// built from scratch for one conjunction, a dense union–find over the
// values occurring in the atoms with the constant (if any) of each class
// tracked at the root. The solver's tests hold it to this closure.
type closureState struct {
	nodes   []sym.ID
	idx     map[sym.ID]int32
	uf      *unionfind.Dense
	constOf []sym.ID // valid at class roots; sym.None = no constant
}

func (s *closureState) node(v sym.ID) int32 {
	if i, ok := s.idx[v]; ok {
		return i
	}
	i := int32(len(s.nodes))
	s.idx[v] = i
	s.nodes = append(s.nodes, v)
	s.uf.Grow(len(s.nodes))
	if !v.IsVar() {
		s.constOf = append(s.constOf, v)
	} else {
		s.constOf = append(s.constOf, sym.None)
	}
	return i
}

// buildClosure merges equality classes and checks consistency over the
// atoms of c. It returns nil when c is unsatisfiable. Constant-constant
// merges of distinct constants and violated inequalities make it false.
func buildClosure(c Conjunction) *closureState {
	s := &closureState{
		idx: make(map[sym.ID]int32, 2*len(c)),
		uf:  unionfind.NewDense(0),
	}
	// Merge equality classes, propagating class constants to roots.
	for _, a := range c {
		l, r := s.node(a.L), s.node(a.R)
		if a.Op != Eq {
			continue
		}
		rl, rr := s.uf.Find(l), s.uf.Find(r)
		if rl == rr {
			continue
		}
		cl, cr := s.constOf[rl], s.constOf[rr]
		if cl != sym.None && cr != sym.None && cl != cr {
			return nil // two distinct constants forced equal
		}
		root := s.uf.Union(rl, rr)
		if cl != sym.None {
			s.constOf[root] = cl
		} else if cr != sym.None {
			s.constOf[root] = cr
		}
	}
	// Check inequalities: same class, or classes pinned to one constant.
	for _, a := range c {
		if a.Op != Neq {
			continue
		}
		rl, rr := s.uf.Find(s.idx[a.L]), s.uf.Find(s.idx[a.R])
		if rl == rr {
			return nil
		}
		if cl, cr := s.constOf[rl], s.constOf[rr]; cl != sym.None && cl == cr {
			return nil
		}
	}
	return s
}

// refSatisfiable is Satisfiable by the reference closure.
func refSatisfiable(c Conjunction) bool { return buildClosure(c) != nil }

// refImpliedBindings is ImpliedBindings by the reference closure.
func refImpliedBindings(c Conjunction) (Subst, bool) {
	s := buildClosure(c)
	if s == nil {
		return nil, false
	}
	// Group class members by root.
	classes := make(map[int32][]sym.ID, len(s.nodes))
	for i, v := range s.nodes {
		r := s.uf.Find(int32(i))
		classes[r] = append(classes[r], v)
	}
	out := make(Subst)
	for root, members := range classes {
		var varMembers []sym.ID
		for _, m := range members {
			if m.IsVar() {
				varMembers = append(varMembers, m)
			}
		}
		if len(varMembers) == 0 {
			continue
		}
		var rep sym.ID
		if cid := s.constOf[root]; cid != sym.None {
			rep = cid
		} else {
			// Lexicographically least variable name.
			rep = varMembers[0]
			for _, m := range varMembers[1:] {
				if m.Name() < rep.Name() {
					rep = m
				}
			}
		}
		for _, m := range varMembers {
			if m != rep {
				out[m] = rep
			}
		}
	}
	return out, true
}
