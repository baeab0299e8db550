// Standard backend constructors: the engines this repository ships,
// wrapped as difftest Backends. Suites compose these per package —
// the decision engine at several worker counts (the determinism
// contract), the decomposition backend from three provenances (native,
// re-factorized from the expanded world list, compiled from a c-table
// database), and the lifted evaluator's answer sets.
package difftest

import (
	"errors"
	"fmt"
	"math/big"

	"pw/internal/decide"
	"pw/internal/query"
	"pw/internal/rel"
	"pw/internal/rep"
	"pw/internal/wsd"
	"pw/internal/wsdalg"
)

// DecideBackend answers through the c-table decision engine on the
// case's database at a fixed worker count. withAnswers additionally
// wires the lifted possible/certain answer sets (only for cases whose
// query the lifting supports — the generator's contract). Answer
// comparisons are domain-restricted to the database's and query's
// constants: the engine enumerates candidates there by design, while
// the oracle's canonical world set also realizes fresh constants.
func DecideBackend(workers int, withAnswers bool) Backend {
	return Backend{
		Name: fmt.Sprintf("decide/w%d", workers),
		Make: func(c *Case) (*Ops, error) {
			if c.DB == nil {
				return nil, errors.New("case carries no database")
			}
			if c.Update != nil {
				return nil, errors.New("the decide backend answers the stored database; it cannot apply the case's update")
			}
			q := c.Q()
			o := decide.Options{Workers: workers}
			ops := &Ops{
				Member:   func(i *rel.Instance) (bool, error) { return o.Membership(i, q, c.DB) },
				Possible: func(i *rel.Instance) (bool, error) { return o.Possible(i, q, c.DB) },
				Certain:  func(i *rel.Instance) (bool, error) { return o.Certain(i, q, c.DB) },
				Unique:   func(i *rel.Instance) (bool, error) { return o.Uniqueness(q, c.DB, i) },
			}
			if withAnswers {
				ops.PossAns = func() (*rel.Instance, error) { return o.PossibleAnswers(q, c.DB) }
				ops.CertAns = func() (*rel.Instance, error) { return o.CertainAnswers(q, c.DB) }
				ops.AnswerDomain = answerDomain(c)
			}
			return ops, nil
		},
	}
}

// answerDomain is the constant pool the c-table answer engines enumerate
// over: the database's constants plus the query's.
func answerDomain(c *Case) []string {
	seen := map[string]bool{}
	var out []string
	add := func(s string) {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	for _, s := range c.DB.Consts(nil, map[string]bool{}) {
		add(s)
	}
	for _, s := range c.Q().Consts() {
		add(s)
	}
	if out == nil {
		out = []string{}
	}
	return out
}

// WSDBackend answers natively on the case's decomposition. A
// non-identity query routes through the lifted evaluator first, so the
// decision procedures interrogate rep(Eval(D, q)) — the full query-op
// path. The case's query must lie in the wsdalg-supported fragment.
func WSDBackend(name string) Backend {
	return Backend{
		Name: name,
		Make: func(c *Case) (*Ops, error) {
			if c.WSD == nil {
				return nil, errors.New("case carries no decomposition")
			}
			if c.Update != nil {
				return nil, errors.New("use UpdateBackend for cases that carry an update")
			}
			return wsdOps(c.WSD, c.Q())
		},
	}
}

// FromWorldsBackend re-factorizes the case's world list with
// wsd.FromWorlds and answers from the result — the metamorphic
// factorize∘expand identity: whatever built the case's worlds, the
// re-factorized decomposition must denote exactly the same set. On a
// case with an update, the post-update worlds are factorized, so this
// is the oracle-side provenance the update engines must match.
func FromWorldsBackend() Backend {
	return Backend{
		Name: "wsd/fromworlds",
		Make: func(c *Case) (*Ops, error) {
			w, err := wsd.FromWorlds(c.oracleWorlds())
			if err != nil {
				return nil, err
			}
			return wsdOps(w, c.Q())
		},
	}
}

// CompileBackend compiles the case's database to a decomposition over
// the given domain (nil = the canonical Δ ∪ Δ′, matching worlds.All)
// and answers from it. The domain function sees the case so view suites
// can widen it to the query's constants.
func CompileBackend(name string, domain func(*Case) []string) Backend {
	return Backend{
		Name: name,
		Make: func(c *Case) (*Ops, error) {
			if c.DB == nil {
				return nil, errors.New("case carries no database")
			}
			if c.Update != nil {
				return nil, errors.New("the compile backend answers the stored database; it cannot apply the case's update")
			}
			var dom []string
			if domain != nil {
				dom = domain(c)
			}
			w, err := wsd.ToWSDOverDomain(c.DB, dom)
			if err != nil {
				return nil, err
			}
			return wsdOps(w, c.Q())
		},
	}
}

// PlannedWSDBackend answers natively on the case's decomposition with
// the cost-based planner in the loop: the query is rewritten by
// wsdalg.Optimize before evaluation. Any divergence from the naive
// WSDBackend (or the oracle) is a planner-equivalence bug.
func PlannedWSDBackend() Backend {
	return Backend{
		Name: "wsdalg/planned",
		Make: func(c *Case) (*Ops, error) {
			if c.WSD == nil {
				return nil, errors.New("case carries no decomposition")
			}
			if c.Update != nil {
				return nil, errors.New("use UpdateBackend for cases that carry an update")
			}
			q := c.Q()
			opt, info := wsdalg.Optimize(c.WSD, q)
			if info != nil && info.ChosenCost > info.NaiveCost {
				return nil, fmt.Errorf("planner chose a costlier plan: %d > %d", info.ChosenCost, info.NaiveCost)
			}
			return wsdOps(c.WSD, opt)
		},
	}
}

// wsdOps wires a decomposition (after pushing the case's query through
// the lifted evaluator) into the full operation set: the decision
// problems and the count on the answer world set, the answer sets read
// off the query's evaluation on w.
func wsdOps(w *wsd.WSD, q query.Query) (*Ops, error) {
	res := w
	if !query.IsIdentity(q) {
		var err error
		if res, _, _, err = wsdalg.Apply(w, q, wsdalg.Options{Decision: wsdalg.Written(q)}); err != nil {
			return nil, err
		}
	}
	var o decide.Options
	in, view := rep.DB{WSD: w}, rep.DB{WSD: res}
	return &Ops{
		Member:   func(i *rel.Instance) (bool, error) { return view.Member(o, i) },
		Possible: func(i *rel.Instance) (bool, error) { return view.Possible(o, i) },
		Certain:  func(i *rel.Instance) (bool, error) { return view.Certain(o, i) },
		Unique:   func(i *rel.Instance) (bool, error) { return view.Unique(o, i) },
		Count:    func() (*big.Int, error) { return res.Count(), nil },
		Expand:   func() ([]*rel.Instance, error) { return res.Expand(0), nil },
		PossAns:  func() (*rel.Instance, error) { return in.Answers(o, q, true) },
		CertAns:  func() (*rel.Instance, error) { return in.Answers(o, q, false) },
	}, nil
}
