// Package rep answers the paper's problems — MEMB, UNIQ, POSS, CERT,
// CONT, the world count, sampling and the possible and certain answers
// — on either representation a .pw database loads as: conditioned
// tables, through the decision engine of internal/decide, or a
// world-set decomposition, through internal/wsd and internal/wsdalg.
// It is named after the paper's rep(·), the world set a representation
// denotes, and it is the one place that picks a backend: the query
// server, pwq, the difftest harness and the pw façade hold a DB and call
// its methods.
package rep

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"strconv"

	"pw/internal/decide"
	"pw/internal/gen"
	"pw/internal/query"
	"pw/internal/rel"
	"pw/internal/table"
	"pw/internal/worlds"
	"pw/internal/wsd"
	"pw/internal/wsdalg"
)

// DB is one stored database: exactly one of WSD and Tab is non-nil. A
// decomposition must be normalized before it is shared.
type DB struct {
	WSD *wsd.WSD
	Tab *table.Database
}

// Native reports whether the database is a decomposition, where MEMB,
// UNIQ, POSS, CERT, the count and sampling are polynomial probes of the
// factored form and need no search.
func (d DB) Native() bool { return d.WSD != nil }

// Kind classifies the representation: backend "table" for conditioned
// tables, and for decompositions backend "wsd" with kind "attr" when any
// relation has an attribute-level template, else "tuple" — read off the
// per-relation template lists, O(relations).
func (d DB) Kind() (backend, kind string) {
	if d.WSD == nil {
		return "table", "table"
	}
	for ri := range d.WSD.Schema() {
		if d.WSD.HasTemplates(ri) {
			return "wsd", "attr"
		}
	}
	return "wsd", "tuple"
}

// Member decides MEMB(−): is i a world of the database?
func (d DB) Member(o decide.Options, i *rel.Instance) (bool, error) {
	if d.WSD != nil {
		return d.WSD.Member(i), nil
	}
	return o.Membership(i, query.Identity{}, d.Tab)
}

// Unique decides UNIQ(−): is i the database's only world? On a
// decomposition that is a count of exactly one (compared as a big.Int:
// Int64 is undefined outside int64 range, the very regime
// decompositions serve) and membership.
func (d DB) Unique(o decide.Options, i *rel.Instance) (bool, error) {
	if d.WSD != nil {
		return d.WSD.Count().Cmp(big.NewInt(1)) == 0 && d.WSD.Member(i), nil
	}
	return o.Uniqueness(query.Identity{}, d.Tab, i)
}

// Possible decides POSS(∗): do the facts of p hold together in some
// world?
func (d DB) Possible(o decide.Options, p *rel.Instance) (bool, error) {
	if d.WSD != nil {
		return d.WSD.Possible(p), nil
	}
	return o.Possible(p, query.Identity{}, d.Tab)
}

// Certain decides CERT(∗): do the facts of p hold in every world?
func (d DB) Certain(o decide.Options, p *rel.Instance) (bool, error) {
	if d.WSD != nil {
		return d.WSD.Certain(p), nil
	}
	return o.Certain(p, query.Identity{}, d.Tab)
}

// Count returns the number of worlds in decimal: a decomposition's
// exact count, memoized per version; for tables |rep(d)| over the
// canonical domain, enumerated across o.Workers.
func (d DB) Count(o decide.Options) string {
	if d.WSD != nil {
		return d.WSD.CountString()
	}
	return strconv.Itoa(worlds.Options{Workers: o.Workers}.Count(d.Tab))
}

// Sample draws the k-th of a run of sample worlds. On a decomposition
// the draw is uniform over the worlds, one independent choice per
// component from rng. Tables yield a member world found by a seeded
// search (seed+k), not uniform over rep; its budget is bounded, so a
// miss means "none found", not "none exists".
func (d DB) Sample(rng *rand.Rand, seed int64, k int) (*rel.Instance, error) {
	if d.WSD != nil {
		if inst := d.WSD.Sample(rng); inst != nil {
			return inst, nil
		}
		return nil, errors.New("cannot sample from the empty world set")
	}
	if inst, ok := gen.MemberInstance(seed+int64(k), d.Tab); ok {
		return inst, nil
	}
	return nil, errors.New("no member world found within the sampling budget; try a different seed")
}

// Answers returns the possible (possible set) or certain answers of q.
// A decomposition evaluates q as written and reads the answer facts off
// the evaluated parts; tables run the decision engine's answer sets,
// the possible ones over the constants of the database and q.
func (d DB) Answers(o decide.Options, q query.Query, possible bool) (*rel.Instance, error) {
	if d.WSD != nil {
		a, _, _, err := wsdalg.Eval(d.WSD, q, wsdalg.Options{Decision: wsdalg.Written(q), Cost: o.Cost})
		if err != nil {
			return nil, err
		}
		return a.Instance(possible)
	}
	if possible {
		return o.PossibleAnswers(q, d.Tab)
	}
	return o.CertainAnswers(q, d.Tab)
}

// Contains decides CONT(q0, q1): is q0(rep(sub)) ⊆ q1(rep(sup))? Two
// table databases go to the decision engine, which handles every query
// class. Otherwise the native decomposition containment runs, with a
// table side compiled to its exact decomposition first; a table subset
// whose rep is infinite is "no" under the identity query, since
// infinitely many worlds cannot fit in a finite decomposition's world
// set.
func Contains(o decide.Options, q0 query.Query, sub DB, q1 query.Query, sup DB) (bool, error) {
	if sub.WSD == nil && sup.WSD == nil {
		return o.Containment(q0, sub.Tab, q1, sup.Tab)
	}
	w, w2 := sub.WSD, sup.WSD
	if w == nil {
		var err error
		if w, err = wsd.ToWSD(sub.Tab); errors.Is(err, wsd.ErrInfiniteRep) && query.IsIdentity(q0) {
			return false, nil
		} else if err != nil {
			return false, err
		}
	}
	if w2 == nil {
		var err error
		if w2, err = wsd.ToWSD(sup.Tab); err != nil {
			return false, fmt.Errorf("superset side: %w", err)
		}
	}
	return wsdalg.ContainmentViews(q0, w, q1, w2)
}
