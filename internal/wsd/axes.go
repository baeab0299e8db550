// The choice-axis table: per normalized version, the decomposition
// flattened into independent choice axes. An axis is a whole tuple-level
// component or one open slot (two or more values) of an attribute-level
// template; distinct slots of one template are independent by
// construction, so treating them as separate axes is exact. A world is
// one choice per axis, which is the coordinate system lifted query
// evaluation (internal/wsdalg) sweeps: a part of an intermediate
// relation is a function of the choices on a few axes.
//
// Layout. Parallel int32 arrays indexed by axis — owning component,
// template slot (-1 for a tuple-level component), alternative count —
// the open-slot values (shared with the template, nil for tuple-level
// axes), and per component the offset of its first axis. Axes are
// numbered in component order and, within a template, in slot order.
//
// Lifecycle. The table is derived state of one normalized version, with
// the posting index's discipline: built on first use, published with a
// compare-and-swap (concurrent readers of a shared normalized WSD may
// race the first build; the loser's copy is dropped), dropped by every
// derivation of a new version (buildIndexes, an incremental install,
// clearToEmpty) and never carried into clones or snapshots: rebuilding
// it is O(n) int work, cheap beside the reads that use it. Readers share it; every
// slice it hands out is capacity-clipped, so a caller's append copies
// instead of writing into the table.
package wsd

import "pw/internal/sym"

// Axes is a normalized decomposition's choice-axis table (see the file
// comment). It is immutable once published.
type Axes struct {
	comp   []int32    // per axis: owning component
	slot   []int32    // per axis: template slot, -1 for a tuple-level component
	counts []int32    // per axis: alternative count
	cells  [][]sym.ID // per axis: open-slot values, nil for a tuple-level axis
	first  []int32    // per component: its first axis; first[len(comps)] = axis count
}

// Axes returns the current version's choice-axis table, building it on
// first use.
func (w *WSD) Axes() *Axes {
	w.ensure()
	if a := w.axes.Load(); a != nil {
		return a
	}
	a := w.buildAxes()
	if w.axes.CompareAndSwap(nil, a) {
		return a
	}
	return w.axes.Load()
}

// buildAxes flattens the components into axes in one pass.
func (w *WSD) buildAxes() *Axes {
	n := 0
	for ci := range w.comps {
		if at := w.comps[ci].attr; at != nil {
			for _, cell := range at.cells {
				if len(cell) > 1 {
					n++
				}
			}
			continue
		}
		n++
	}
	a := &Axes{
		comp:   make([]int32, 0, n),
		slot:   make([]int32, 0, n),
		counts: make([]int32, 0, n),
		cells:  make([][]sym.ID, 0, n),
		first:  make([]int32, len(w.comps)+1),
	}
	for ci := range w.comps {
		a.first[ci] = int32(len(a.comp))
		c := &w.comps[ci]
		if c.attr == nil {
			a.add(ci, -1, len(c.alts), nil)
			continue
		}
		for si, cell := range c.attr.cells {
			if len(cell) > 1 { // a fixed slot is a constant, not a choice axis
				a.add(ci, si, len(cell), cell[:len(cell):len(cell)])
			}
		}
	}
	a.first[len(w.comps)] = int32(len(a.comp))
	return a
}

func (a *Axes) add(ci, slot, count int, cells []sym.ID) {
	a.comp = append(a.comp, int32(ci))
	a.slot = append(a.slot, int32(slot))
	a.counts = append(a.counts, int32(count))
	a.cells = append(a.cells, cells)
}

// Len returns the number of axes.
func (a *Axes) Len() int { return len(a.comp) }

// Counts returns every axis's alternative count, indexed by axis. The
// slice is capacity-clipped and shared: callers must not write into it.
func (a *Axes) Counts() []int32 { return a.counts[:len(a.counts):len(a.counts)] }

// Cells returns every axis's open-slot values (nil for a tuple-level
// axis), indexed by axis. Capacity-clipped and shared, like Counts.
func (a *Axes) Cells() [][]sym.ID { return a.cells[:len(a.cells):len(a.cells)] }

// Owner returns the component and template slot (-1 for a tuple-level
// component) axis u ranges over.
func (a *Axes) Owner(u int) (ci, slot int) { return int(a.comp[u]), int(a.slot[u]) }

// Axis returns the axis of component ci's slot (slot -1: the whole
// tuple-level component), or -1 when that is not a choice axis — a
// fixed template slot, or a slot of a component of the other kind.
func (a *Axes) Axis(ci, slot int) int {
	for u := a.first[ci]; u < a.first[ci+1]; u++ {
		if int(a.slot[u]) == slot {
			return int(u)
		}
	}
	return -1
}
