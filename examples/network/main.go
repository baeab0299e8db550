// Network: link-state uncertainty and containment. Two monitoring systems
// report partial views of a network's link table; the question "does
// monitor A's knowledge refine monitor B's?" is exactly the containment
// problem CONT(−,−) (§4 of the paper), and reachability under uncertainty
// is DATALOG certainty (Theorem 5.3(1)).
//
//	go run ./examples/network
package main

import (
	"fmt"
	"log"

	"pw"
	"pw/internal/datalog"
	"pw/internal/query"
	"pw/internal/sym"
)

func main() {
	// Monitor A: knows s→a and a→t, plus one link from a to an unknown
	// node.
	linkA := pw.NewTable("Link", 2)
	linkA.AddTuple(pw.Const("s"), pw.Const("a"))
	linkA.AddTuple(pw.Const("a"), pw.Const("t"))
	linkA.AddTuple(pw.Const("a"), pw.Var("x"))

	// Monitor B: the same, but B is even less sure: both endpoints of the
	// third link are open.
	linkB := pw.NewTable("Link", 2)
	linkB.AddTuple(pw.Const("s"), pw.Const("a"))
	linkB.AddTuple(pw.Const("a"), pw.Const("t"))
	linkB.AddTuple(pw.Var("y"), pw.Var("z"))

	dbA, dbB := pw.NewDatabase(linkA), pw.NewDatabase(linkB)

	// A's worlds are a subset of B's (A commits the link source to "a").
	sub, err := pw.Contained(dbA, dbB)
	if err != nil {
		log.Fatal(err)
	}
	sup, err := pw.Contained(dbB, dbA)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rep(A) ⊆ rep(B): %v (A refines B)\n", sub)
	fmt.Printf("rep(B) ⊆ rep(A): %v (B admits worlds A excludes)\n", sup)

	// Reachability: is t certainly reachable from s whatever the unknown
	// link turns out to be? DATALOG transitive closure + frozen
	// evaluation (Theorem 5.3(1)).
	prog := datalog.Program{Rules: []datalog.Rule{
		datalog.R(datalog.At("Reach", sym.Var("u"), sym.Var("v")),
			datalog.At("Link", sym.Var("u"), sym.Var("v"))),
		datalog.R(datalog.At("Reach", sym.Var("u"), sym.Var("w")),
			datalog.At("Reach", sym.Var("u"), sym.Var("v")),
			datalog.At("Link", sym.Var("v"), sym.Var("w"))),
	}}
	reach := query.NewDatalog("reach", prog, "Reach")

	for _, tc := range []struct {
		from, to string
	}{
		{"s", "t"}, // certain: the s→a→t path needs no unknown link
		{"s", "b"}, // possible (x may be b) but not certain
	} {
		f := pw.Fact{tc.from, tc.to}
		cert, err := pw.CertainFact("Reach", f, reach, dbA)
		if err != nil {
			log.Fatal(err)
		}
		poss, err := pw.PossibleFact("Reach", f, reach, dbA)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("Reach(%s,%s): certain=%-5v possible=%v\n", tc.from, tc.to, cert, poss)
	}

	// Membership: could the network actually be exactly this?
	world := pw.NewInstance()
	r := pw.NewRelation("Link", 2)
	r.Add(pw.Fact{"s", "a"})
	r.Add(pw.Fact{"a", "t"})
	world.AddRelation(r)
	member, err := pw.Member(world, dbA)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nexactly {s→a, a→t} is a possible world of A: %v (the unknown link may coincide with a→t)\n", member)
}
