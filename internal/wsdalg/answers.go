// Decomposition-native answer sets: once Eval has produced the answer
// world-set as a decomposition, possibility and certainty of answer
// facts are support lookups — the normalized invariants make the
// support exactly the possible facts and the every-alternative facts
// exactly the certain ones. No world is ever expanded, and the answer
// stays interned: the readouts copy the decomposition's tuples into the
// answer instance, and names resolve only when it is printed.
package wsdalg

import (
	"fmt"

	"pw/internal/query"
	"pw/internal/rel"
	"pw/internal/table"
	"pw/internal/wsd"
)

// PossibleAnswers computes every possible answer fact of q over the
// decomposition: the facts present in at least one world of
// {q(W) : W ∈ rep(D)}. The result instance is shaped by the query's
// output schema; on the empty world set it is empty (no world, no
// possible fact). Unlike the c-table engines, the answer space of a
// decomposition is ground and finite, so no domain restriction is
// needed: the support of Eval's result is the complete answer set.
func PossibleAnswers(w *wsd.WSD, q query.Query) (*rel.Instance, error) {
	out, err := answerSet(w, q)
	if err != nil {
		return nil, err
	}
	inst := shapedInstance(out.Schema())
	if out.Empty() {
		return inst, nil
	}
	// The possible-answer set is the result's support — output-sized,
	// but an answer template whose instantiation count overflows int
	// cannot be materialized at all: report the blow-up instead of
	// letting Support panic.
	if _, ok := out.SupportSize(); !ok {
		return nil, fmt.Errorf("%w: the possible-answer set of %s has more facts than fit in memory (an answer template's field product overflows)",
			ErrEntangled, q.Label())
	}
	rels := inst.Relations()
	for f := range out.SupportTuples() {
		rels[f.Rel].Insert(f.Tuple)
	}
	return inst, nil
}

// CertainAnswers computes every certain answer fact of q over the
// decomposition: the facts present in all worlds of {q(W) : W ∈ rep(D)}.
// On the empty world set certainty is vacuous and there is no canonical
// answer set; the schema-shaped empty instance is reported, matching
// decide.CertainAnswers' convention for rep(d) = ∅.
func CertainAnswers(w *wsd.WSD, q query.Query) (*rel.Instance, error) {
	out, err := answerSet(w, q)
	if err != nil {
		return nil, err
	}
	inst := shapedInstance(out.Schema())
	if out.Empty() {
		return inst, nil
	}
	rels := inst.Relations()
	for f := range out.CertainTuples() {
		rels[f.Rel].Insert(f.Tuple)
	}
	return inst, nil
}

// answerSet returns the answer world-set the readouts read: Eval's
// result, except for the identity query, whose answer world-set is the
// input itself — read in place rather than through Eval's deep clone,
// since the readouts never mutate it.
func answerSet(w *wsd.WSD, q query.Query) (*wsd.WSD, error) {
	if query.IsIdentity(q) {
		return w, nil
	}
	return Eval(w, q)
}

// shapedInstance builds an empty instance with one relation per schema
// entry, in schema order: relation i of the instance is schema position
// i, the index the tuple iterators yield.
func shapedInstance(s table.Schema) *rel.Instance {
	inst := rel.NewInstance()
	for _, r := range s {
		inst.AddRelation(rel.NewRelation(r.Name, r.Arity))
	}
	return inst
}
