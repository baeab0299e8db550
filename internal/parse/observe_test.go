package parse

import (
	"io"
	"strings"
	"testing"

	"pw/internal/obs"
)

const obsSrc = "@table T(2)\n  row: a b\n"

// Every parser fed through Cost.ParseReader must record exactly the
// bytes consumed, and a nil sink must hand the plain reader through.
func TestObservedParsersRecordBytes(t *testing.T) {
	c := obs.NewCost()
	src, err := ParseSource(c.ParseReader(strings.NewReader(obsSrc)))
	if err != nil {
		t.Fatal(err)
	}
	if src.DB == nil {
		t.Fatal("observed parse lost the database")
	}
	if got := c.Get(obs.ParseBytes); got != int64(len(obsSrc)) {
		t.Errorf("parse_bytes = %d, want %d", got, len(obsSrc))
	}

	// Nil sink: the wrapper is the identity, so the parse is exactly the
	// plain parser with no counting.
	var none *obs.Cost
	r := strings.NewReader(obsSrc)
	if got := none.ParseReader(r); got != io.Reader(r) {
		t.Fatalf("nil sink wrapped the reader: %T", got)
	}
	if _, err := ParseSource(none.ParseReader(strings.NewReader(obsSrc))); err != nil {
		t.Fatal(err)
	}

	inst := "@relation R(1)\n  fact: x\n"
	c2 := obs.NewCost()
	if _, err := ParseInstance(c2.ParseReader(strings.NewReader(inst))); err != nil {
		t.Fatal(err)
	}
	if got := c2.Get(obs.ParseBytes); got != int64(len(inst)) {
		t.Errorf("instance parse_bytes = %d, want %d", got, len(inst))
	}
	if _, err := ParseInstance(none.ParseReader(strings.NewReader(inst))); err != nil {
		t.Fatal(err)
	}

	upd := "@update\n  insert: R(x)\n"
	c3 := obs.NewCost()
	if _, err := ParseUpdate(c3.ParseReader(strings.NewReader(upd))); err != nil {
		t.Fatal(err)
	}
	if got := c3.Get(obs.ParseBytes); got != int64(len(upd)) {
		t.Errorf("update parse_bytes = %d, want %d", got, len(upd))
	}
	if _, err := ParseUpdate(none.ParseReader(strings.NewReader(upd))); err != nil {
		t.Fatal(err)
	}
}

// Errors pass through the counting reader unchanged.
func TestObservedParserPropagatesErrors(t *testing.T) {
	c := obs.NewCost()
	if _, err := ParseUpdate(c.ParseReader(strings.NewReader("@nonsense\n"))); err == nil {
		t.Fatal("observed parse of garbage succeeded")
	}
}
