package decide

import (
	"testing"

	"pw/internal/obs"
	"pw/internal/rel"
	"pw/internal/sym"
	"pw/internal/table"
	"pw/internal/valuation"
)

// qInst builds a one-column Q instance (the FO query's output shape).
func qInst(vals ...string) *rel.Instance {
	i := rel.NewInstance()
	r := i.EnsureRelation("Q", 1)
	for _, x := range vals {
		r.AddRow(x)
	}
	return i
}

// A first-order (non-liftable) query forces the generic valuation
// search, which must account its work into Options.Cost: shards
// spawned, valuations visited, and the visit depth of the witness.
func TestOptionsCostRecordsValuationSearch(t *testing.T) {
	tb := table.New("T", 2)
	tb.Add(table.Row{Values: sym.Tuple{v("x"), k("1")}})
	d := table.DB(tb)
	p := qInst("1") // Q(1) possible: any world T(a,1) with a≠1 is asymmetric

	c := obs.NewCost()
	o := Options{Workers: 1, Cost: c}
	got, err := o.Possible(p, foQuery(), d)
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("Possible(Q(1), asym, T(x,1)) = false, want true")
	}
	if n := c.Get(obs.DecideShards); n < 1 {
		t.Errorf("decide_shards = %d, want >= 1", n)
	}
	visits := c.Get(obs.DecideValuations)
	if visits < 1 {
		t.Errorf("decide_valuations = %d, want >= 1", visits)
	}
	depth := c.Get(obs.DecideWitnessDepth)
	if depth < 1 || depth > visits {
		t.Errorf("decide_witness_depth = %d, want in [1, %d]", depth, visits)
	}

	// A nil sink must not change the answer (the untraced hot path).
	got2, err := Options{Workers: 1}.Possible(p, foQuery(), d)
	if err != nil || got2 != got {
		t.Errorf("uninstrumented Possible = (%v, %v), want (%v, nil)", got2, err, got)
	}
}

// The sharded search records the fan-out and the cancellation that a
// witness in one shard triggers in the others.
func TestOptionsCostRecordsSharding(t *testing.T) {
	old := valuation.MinShardedSpace
	valuation.MinShardedSpace = 2
	defer func() { valuation.MinShardedSpace = old }()

	tb := table.New("T", 2)
	tb.Add(table.Row{Values: sym.Tuple{v("x"), v("y")}})
	tb.Add(table.Row{Values: sym.Tuple{v("z"), k("1")}})
	d := table.DB(tb)

	c := obs.NewCost()
	o := Options{Workers: 4, Cost: c}
	got, err := o.Possible(qInst("1"), foQuery(), d)
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("Possible = false, want true")
	}
	if n := c.Get(obs.DecideShards); n < 2 {
		t.Errorf("decide_shards = %d, want >= 2 with the sharding cutoff lowered", n)
	}
	if n := c.Get(obs.DecideCancels); n != 1 {
		t.Errorf("decide_cancels = %d, want 1 (witness aborts the other shards)", n)
	}
}
