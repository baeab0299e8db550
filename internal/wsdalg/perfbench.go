// Wrappers kept for the frozen benchmark module perfbench, whose
// harness and layer probes call these names; it is their only caller.
// Each is a one-line form of Eval or Apply that keeps its old contract.
// Everything else calls Eval, Apply or Optimize directly.
package wsdalg

import (
	"pw/internal/obs"
	"pw/internal/query"
	"pw/internal/rel"
	"pw/internal/wsd"
)

// EvalPlanned applies q as written, observed: a nil c gets a private
// sink, so the plan is always returned.
func EvalPlanned(w *wsd.WSD, q query.Query, c *obs.Cost) (*wsd.WSD, *Plan, error) {
	out, pl, _, err := Apply(w, q, Options{Decision: Written(q), Cost: orNew(c)})
	return out, pl, err
}

// EvalOptimized is EvalPlanned through the planner: the chosen form is
// applied, and the plan carries the planning record.
func EvalOptimized(w *wsd.WSD, q query.Query, c *obs.Cost) (*wsd.WSD, *Plan, error) {
	out, pl, _, err := Apply(w, q, Options{Cost: orNew(c)})
	return out, pl, err
}

// PossibleAnswers is the possible answer set of q as written.
func PossibleAnswers(w *wsd.WSD, q query.Query) (*rel.Instance, error) { return answerSet(w, q, true) }

// CertainAnswers is the certain answer set of q as written.
func CertainAnswers(w *wsd.WSD, q query.Query) (*rel.Instance, error) { return answerSet(w, q, false) }

func orNew(c *obs.Cost) *obs.Cost {
	if c == nil {
		return obs.NewCost()
	}
	return c
}
