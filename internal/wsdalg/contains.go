// Native CONT on decompositions: rep(sub) ⊆ rep(sup) decided on the
// factored forms, without enumerating either world set. The algorithm
// aligns sub's product structure with sup's:
//
//  1. every support fact of sub must be in sup's support (a sub world
//     containing a fact unknown to sup exists, because every support
//     fact occurs in some alternative and the other components are
//     independent);
//  2. sub's components are clustered by the sup components they touch
//     (transitively, via a union–find): each sup component is then
//     touched by at most one cluster, so the containment condition
//     decomposes per cluster;
//  3. within a cluster, the joint alternatives (cross product of the
//     member components' alternatives — the only exponential, guarded
//     by wsd.MaxMergeAlts) are each split along sup's component
//     supports, and every piece — including the empty piece — must be
//     one of that sup component's alternatives;
//  4. sup components untouched by any sub support fact receive nothing
//     from any sub world, so ∅ must be among their alternatives.
//
// ContainmentViews lifts this to CONT(q0, q) over query answers by
// applying both queries first.
package wsdalg

import (
	"fmt"

	"pw/internal/query"
	"pw/internal/rel"
	"pw/internal/sym"
	"pw/internal/unionfind"
	"pw/internal/wsd"
)

// Contains decides CONT(−,−) on decompositions: rep(sub) ⊆ rep(sup)?
// Polynomial in the decomposition sizes except for the per-cluster
// joint-alternative tabulation, which is guarded by wsd.MaxMergeAlts
// (the same entanglement bound Normalize enforces).
func Contains(sub, sup *wsd.WSD) (bool, error) {
	if sub.Empty() {
		return true, nil // ∅ ⊆ anything
	}
	if sup.Empty() {
		return false, nil
	}
	if !schemasMatch(sub, sup) {
		// Worlds are complete instances over their schema; mismatched
		// schemas mean no sub world can be a sup world (the same
		// strictness as wsd.Member / rel.Instance.Equal).
		return false, nil
	}

	// (1) Support inclusion, recording each sub fact's owning component
	// on both sides. Attribute-level sub components resolve positionwise
	// whenever their whole instantiation set maps into one sup template
	// (slot-subset check, no expansion — templateMapped remembers the
	// pairing so step (3) can skip tabulating them); a template whose
	// instantiations spread across sup components falls back to bounded
	// enumeration, and one too wide even for that is the same
	// entanglement refusal Normalize and Apply give.
	type factRef struct {
		subComp int
		supComp int
	}
	nSub := sub.Components()
	var refs []factRef
	templateMapped := map[int]int{} // sub component -> sup template it maps into
	for ci := 0; ci < nSub; ci++ {
		if sj, resolved := templateInto(sub, ci, sup); resolved {
			if sj < 0 {
				return false, nil // an instantiation outside sup's support
			}
			templateMapped[ci] = sj
			refs = append(refs, factRef{subComp: ci, supComp: sj})
			continue
		}
		if sub.AltCount(ci) > wsd.MaxMergeAlts {
			return false, fmt.Errorf("wsdalg: containment needs the %d+ alternatives of one spread-out component (limit %d): %w",
				sub.AltCount(ci), wsd.MaxMergeAlts, ErrEntangled)
		}
		seen := map[string]bool{}
		for ai := 0; ai < sub.AltCount(ci); ai++ {
			for _, f := range sub.AltFacts(ci, ai) {
				sj, ok := sup.FactComponent(f.Rel, f.Args)
				if !ok {
					return false, nil
				}
				key := f.String()
				if !seen[key] {
					seen[key] = true
					refs = append(refs, factRef{subComp: ci, supComp: sj})
				}
			}
		}
	}

	// (2) Cluster sub components that touch a common sup component.
	uf := unionfind.NewDense(nSub)
	supTouch := map[int]int{} // sup component -> first touching sub component
	for _, r := range refs {
		if prev, ok := supTouch[r.supComp]; ok {
			uf.Union(int32(prev), int32(r.subComp))
		} else {
			supTouch[r.supComp] = r.subComp
		}
	}
	clusters := map[int32][]int{}
	var order []int32
	for ci := 0; ci < nSub; ci++ {
		r := uf.Find(int32(ci))
		if _, ok := clusters[r]; !ok {
			order = append(order, r)
		}
		clusters[r] = append(clusters[r], ci)
	}
	// Sup components touched by each cluster (each sup component by at
	// most one cluster, by construction of the union–find).
	touched := map[int32][]int{}
	seenSup := map[int]bool{}
	for _, r := range refs {
		root := uf.Find(int32(r.subComp))
		if !seenSup[r.supComp] {
			seenSup[r.supComp] = true
			touched[root] = append(touched[root], r.supComp)
		}
	}

	// (4) Untouched sup components must offer the empty alternative.
	for sj := 0; sj < sup.Components(); sj++ {
		if !seenSup[sj] && !sup.HasAlternative(sj, nil) {
			return false, nil
		}
	}

	// (3) Per cluster: every joint alternative must restrict to an
	// alternative of every touched sup component. The joint space can
	// approach MaxMergeAlts, so the loop must not re-resolve facts:
	// each member alternative's per-sup-component split is precomputed
	// once, and the restriction check for a sup component is memoized
	// on the sub-choice of the members that can actually touch it —
	// the number of distinct restrictions per sup component is the
	// (usually far smaller) product over those members alone.
	for _, root := range order {
		members := clusters[root]
		if len(members) == 1 {
			if _, ok := templateMapped[members[0]]; ok {
				// The lone template maps wholly into one sup template no
				// other sub component touches: the slot-subset check of
				// step (1) already proved every joint alternative (every
				// instantiation) is an alternative of it. Nothing to
				// tabulate — this is what keeps CONT polynomial on
				// attribute-level decompositions.
				continue
			}
		}
		supComps := touched[root]
		space := 1
		for _, ci := range members {
			// Per-member bound first: a saturated attribute-level count
			// must refuse here, before the product below could overflow.
			if sub.AltCount(ci) > wsd.MaxMergeAlts {
				return false, fmt.Errorf("wsdalg: containment cluster needs a member's %d+ alternatives (limit %d): %w",
					sub.AltCount(ci), wsd.MaxMergeAlts, ErrEntangled)
			}
			space *= sub.AltCount(ci)
			if space > wsd.MaxMergeAlts {
				return false, fmt.Errorf("wsdalg: containment cluster of %d components needs %d+ joint alternatives (limit %d): %w",
					len(members), space, wsd.MaxMergeAlts, ErrEntangled)
			}
		}
		// pre[k][ai][sj] = member k's alternative ai restricted to sup
		// component sj; touchers[sj] = members with any fact owned by sj.
		pre := make([]map[int]map[int][]wsd.Fact, len(members))
		touchers := map[int][]int{}
		for k, ci := range members {
			pre[k] = make(map[int]map[int][]wsd.Fact, sub.AltCount(ci))
			seenSj := map[int]bool{}
			for ai := 0; ai < sub.AltCount(ci); ai++ {
				m := map[int][]wsd.Fact{}
				for _, f := range sub.AltFacts(ci, ai) {
					sj, ok := sup.FactComponent(f.Rel, f.Args)
					if !ok {
						return false, nil // unreachable after step (1); belt and braces
					}
					m[sj] = append(m[sj], f)
					if !seenSj[sj] {
						seenSj[sj] = true
						touchers[sj] = append(touchers[sj], k)
					}
				}
				pre[k][ai] = m
			}
		}
		memo := make(map[int]map[string]bool, len(supComps))
		for _, sj := range supComps {
			memo[sj] = map[string]bool{}
		}
		choice := make([]int, len(members))
		var keyBuf []byte
		for {
			for _, sj := range supComps {
				keyBuf = keyBuf[:0]
				for _, k := range touchers[sj] {
					keyBuf = append(keyBuf, byte(choice[k]), byte(choice[k]>>8), byte(choice[k]>>16))
				}
				ok, hit := memo[sj][string(keyBuf)]
				if !hit {
					var facts []wsd.Fact
					for _, k := range touchers[sj] {
						facts = append(facts, pre[k][choice[k]][sj]...)
					}
					ok = sup.HasAlternative(sj, facts)
					memo[sj][string(keyBuf)] = ok
				}
				if !ok {
					return false, nil
				}
			}
			i := len(members) - 1
			for ; i >= 0; i-- {
				choice[i]++
				if choice[i] < sub.AltCount(members[i]) {
					break
				}
				choice[i] = 0
			}
			if i < 0 {
				break
			}
		}
	}
	return true, nil
}

// templateInto resolves an attribute-level sub component positionwise
// against sup. resolved=true means the component needed no enumeration:
// supComp is the sup attribute-level component whose slot domains
// contain the template's (every instantiation is one of its
// alternatives), or -1 when some instantiation is provably outside
// sup's support (the minimal one failed the lookup — containment is
// false). resolved=false sends the caller to the bounded enumeration
// fallback (tuple-level sub component, or a template whose
// instantiations spread across sup components).
func templateInto(sub *wsd.WSD, ci int, sup *wsd.WSD) (supComp int, resolved bool) {
	relName, cells, ok := sub.TemplateSlots(ci)
	if !ok {
		return 0, false
	}
	minInst := make(rel.Fact, len(cells))
	for i, cell := range cells {
		minInst[i] = cell[0].Name()
	}
	sj, ok := sup.FactComponent(relName, minInst)
	if !ok {
		return -1, true
	}
	supRel, supCells, ok := sup.TemplateSlots(sj)
	if !ok || supRel != relName || len(supCells) != len(cells) {
		return 0, false
	}
	for i := range cells {
		if !cellSubset(cells[i], supCells[i]) {
			return 0, false
		}
	}
	return sj, true
}

// cellSubset reports a ⊆ b for sorted slot value lists.
func cellSubset(a, b []sym.ID) bool {
	j := 0
	for _, v := range a {
		for j < len(b) && sym.Compare(b[j], v) < 0 {
			j++
		}
		if j >= len(b) || b[j] != v {
			return false
		}
		j++
	}
	return true
}

// ContainmentViews decides CONT(q0, q) natively on decompositions:
// q0(rep(d0)) ⊆ q(rep(d))? Both queries must lie in the supported
// fragment (Supported); both answer world-sets are produced by Apply, as
// written, and compared with Contains.
func ContainmentViews(q0 query.Query, d0 *wsd.WSD, q query.Query, d *wsd.WSD) (bool, error) {
	a0, _, _, err := Apply(d0, q0, Options{Decision: Written(q0)})
	if err != nil {
		return false, err
	}
	a, _, _, err := Apply(d, q, Options{Decision: Written(q)})
	if err != nil {
		return false, err
	}
	return Contains(a0, a)
}

// schemasMatch reports whether the two decompositions declare the same
// relations (names and arities, order-insensitive).
func schemasMatch(a, b *wsd.WSD) bool {
	if len(a.Schema()) != len(b.Schema()) {
		return false
	}
	arity := make(map[string]int, len(b.Schema()))
	for _, r := range b.Schema() {
		arity[r.Name] = r.Arity
	}
	for _, r := range a.Schema() {
		got, ok := arity[r.Name]
		if !ok || got != r.Arity {
			return false
		}
	}
	return true
}
