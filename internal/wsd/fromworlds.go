// FromWorlds: the oracle-facing constructor. It factorizes an explicit
// finite world list into product-normal form — the bridge between the
// enumeration backend (internal/worlds) and the decomposition backend,
// used by the differential tests to prove the two agree.
package wsd

import (
	"fmt"

	"pw/internal/rel"
	"pw/internal/table"
)

// FromWorlds factorizes a finite set of worlds (given as a list, possibly
// with duplicates) into a normalized decomposition with
// rep(FromWorlds(W)) = W exactly: every split the factorizer performs is
// verified by a counting argument, so Count equals |W| and
// Expand reproduces W up to order.
//
// All worlds must share a schema (same relation names and arities); an
// empty list yields the decomposition of the empty world set.
func FromWorlds(ws []*rel.Instance) (*WSD, error) {
	if len(ws) == 0 {
		w := New(nil)
		w.empty = true
		return w, nil
	}
	schema := schemaOfInstance(ws[0])
	w := New(schema)
	for wi, inst := range ws {
		if wi > 0 && !w.schemaMatches(inst) {
			return nil, fmt.Errorf("wsd: world %d has a different schema than world 0", wi)
		}
	}

	// One component whose alternatives are the distinct worlds; Normalize
	// deduplicates and factors it into independent components.
	alts := make([][]int32, 0, len(ws))
	for _, inst := range ws {
		var ids []int32
		for _, r := range inst.Relations() {
			ri := int32(w.schemaIdx[r.Name])
			for _, t := range r.Tuples() {
				ids = append(ids, w.intern(ri, t))
			}
		}
		alts = append(alts, sortDedupIDs(ids))
	}
	w.pending = []component{{alts: alts}}
	w.normalized = false
	if err := w.Normalize(); err != nil {
		return nil, err
	}
	return w, nil
}

// schemaOfInstance reads an instance's relations as a schema in
// declaration order.
func schemaOfInstance(i *rel.Instance) table.Schema {
	s := make(table.Schema, 0, len(i.Relations()))
	for _, r := range i.Relations() {
		s = append(s, table.SchemaRel{Name: r.Name, Arity: r.Arity})
	}
	return s
}
