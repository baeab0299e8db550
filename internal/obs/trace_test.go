package obs

import (
	"strings"
	"testing"
)

func TestTraceNil(t *testing.T) {
	var tr *Trace
	if tr.ID() != "" || tr.Root() != nil || tr.Cost() != nil || tr.Tree() != nil {
		t.Error("nil trace accessors must return zero values")
	}
	tr.Finish() // no panic
	var sb strings.Builder
	tr.WriteText(&sb)
	if sb.Len() != 0 {
		t.Errorf("nil WriteText wrote %q", sb.String())
	}
	// Nil spans chain through child creation and End.
	var sp *Span
	if sp.StartChild("x") != nil {
		t.Error("nil span StartChild must return nil")
	}
	sp.End()
}

func TestTraceTree(t *testing.T) {
	tr := NewTrace("cert-ans", "req-1")
	if got := tr.ID(); got != "req-1" {
		t.Errorf("ID = %q, want req-1", got)
	}
	parse := tr.Root().StartChild("parse")
	parse.End()
	eval := tr.Root().StartChild("eval")
	tab := eval.StartChild("tabulate")
	tab.End()
	eval.End()
	tr.Cost().Add(EvalParts, 2)
	tr.Finish()

	n := tr.Tree()
	if n.Name != "cert-ans" {
		t.Fatalf("root name = %q", n.Name)
	}
	if len(n.Children) != 2 || n.Children[0].Name != "parse" || n.Children[1].Name != "eval" {
		t.Fatalf("children = %+v, want [parse eval]", n.Children)
	}
	if len(n.Children[1].Children) != 1 || n.Children[1].Children[0].Name != "tabulate" {
		t.Fatalf("eval children = %+v, want [tabulate]", n.Children[1].Children)
	}
	if n.DurUS < 0 || n.Children[0].StartUS < 0 {
		t.Errorf("negative timings: %+v", n)
	}

	var sb strings.Builder
	tr.WriteText(&sb)
	out := sb.String()
	for _, want := range []string{"cert-ans ", "\n  parse ", "\n  eval ", "\n    tabulate ", "cost: eval_parts=2\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteText output missing %q:\n%s", want, out)
		}
	}
}

// Spans may be started from worker goroutines concurrently.
func TestSpanConcurrentChildren(t *testing.T) {
	tr := NewTrace("q", "id")
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 100; j++ {
				tr.Root().StartChild("w").End()
			}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	tr.Finish()
	if got := len(tr.Tree().Children); got != 800 {
		t.Errorf("children = %d, want 800", got)
	}
}

// TestSpanSetError: error classes stick to spans (first writer wins),
// survive into the tree, and render with a ! marker.
func TestSpanSetError(t *testing.T) {
	var nilSpan *Span
	nilSpan.SetError("x") // no panic

	tr := NewTrace("cert-ans", "req-9")
	eval := tr.Root().StartChild("eval")
	eval.SetError("unsupported")
	eval.SetError("shadowed") // first class wins
	eval.End()
	tr.Root().SetError("unsupported")
	tr.Finish()

	n := tr.Tree()
	if n.Error != "unsupported" || n.Children[0].Error != "unsupported" {
		t.Fatalf("error classes lost: root=%q eval=%q", n.Error, n.Children[0].Error)
	}
	var sb strings.Builder
	tr.WriteText(&sb)
	if !strings.Contains(sb.String(), "!unsupported") {
		t.Errorf("rendered trace missing !unsupported marker:\n%s", sb.String())
	}
}

// TestWriteTextTruncation: the text renderer bounds both depth and
// fan-out so a pathological span tree cannot flood a terminal; the JSON
// tree stays complete.
func TestWriteTextTruncation(t *testing.T) {
	tr := NewTrace("deep", "id")
	sp := tr.Root()
	const depth = 40
	for i := 0; i < depth; i++ {
		sp = sp.StartChild("d")
	}
	tr.Finish()
	var sb strings.Builder
	tr.WriteText(&sb)
	out := sb.String()
	if got := strings.Count(out, "\n"); got > maxRenderDepth+3 {
		t.Errorf("deep render emitted %d lines, want ≤ %d", got, maxRenderDepth+3)
	}
	if !strings.Contains(out, "deeper)") {
		t.Errorf("deep render missing elision marker:\n%s", out)
	}
	// The full chain survives in the JSON tree.
	n, levels := tr.Tree(), 0
	for ; n != nil; n = firstChild(n) {
		levels++
	}
	if levels != depth+1 {
		t.Errorf("JSON tree has %d levels, want %d", levels, depth+1)
	}

	wide := NewTrace("wide", "id")
	for i := 0; i < 100; i++ {
		wide.Root().StartChild("w").End()
	}
	wide.Finish()
	sb.Reset()
	wide.WriteText(&sb)
	out = sb.String()
	if got := strings.Count(out, "\n  w "); got != maxRenderChildren {
		t.Errorf("wide render shows %d children, want %d", got, maxRenderChildren)
	}
	if !strings.Contains(out, "(+68 more)") {
		t.Errorf("wide render missing elision marker:\n%s", out)
	}
	if got := len(wide.Tree().Children); got != 100 {
		t.Errorf("JSON tree has %d children, want 100", got)
	}
}

func firstChild(n *SpanNode) *SpanNode {
	if len(n.Children) == 0 {
		return nil
	}
	return n.Children[0]
}
