package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Span is one timed region of a traced request. Spans form a tree under
// the trace root; children may be started from worker goroutines (the
// child list is mutex-guarded). All methods are nil-receiver safe, so
// untraced call paths thread nil spans for free.
type Span struct {
	name  string
	start time.Time

	mu       sync.Mutex
	end      time.Time
	errClass string
	children []*Span
}

func newSpan(name string) *Span { return &Span{name: name, start: time.Now()} }

// StartChild opens a child span. On a nil receiver it returns nil.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	c := newSpan(name)
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End closes the span. Safe on a nil receiver; double-End keeps the
// first end time.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.mu.Unlock()
}

// SetError annotates the span with an error class (e.g. "entangled",
// "unsupported"). The span still times and closes normally — errors
// mark the tree, they never abandon it. Safe on a nil receiver; the
// first class wins on repeat calls.
func (s *Span) SetError(class string) {
	if s == nil || class == "" {
		return
	}
	s.mu.Lock()
	if s.errClass == "" {
		s.errClass = class
	}
	s.mu.Unlock()
}

// SpanNode is the JSON shape of a finished span tree: name, start
// offset and duration in microseconds, an optional error class, nested
// children. It is embedded in ?trace=1 query responses.
type SpanNode struct {
	Name     string      `json:"name"`
	StartUS  int64       `json:"start_us"`
	DurUS    int64       `json:"us"`
	Error    string      `json:"error,omitempty"`
	Children []*SpanNode `json:"children,omitempty"`
}

// node renders the span subtree relative to the trace epoch. An
// unfinished span reads as ended now.
func (s *Span) node(epoch time.Time) *SpanNode {
	s.mu.Lock()
	end := s.end
	errClass := s.errClass
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	if end.IsZero() {
		end = time.Now()
	}
	n := &SpanNode{
		Name:    s.name,
		StartUS: s.start.Sub(epoch).Microseconds(),
		DurUS:   end.Sub(s.start).Microseconds(),
		Error:   errClass,
	}
	for _, c := range children {
		n.Children = append(n.Children, c.node(epoch))
	}
	return n
}

// Trace is one request's trace: a span tree plus a Cost sink plus a
// request ID. A nil *Trace is the untraced request — every method
// degrades to a no-op or nil, so call sites need no branching.
type Trace struct {
	id   string
	root *Span
	cost *Cost
}

// NewTrace starts a trace whose root span is already running.
func NewTrace(name, id string) *Trace {
	return &Trace{id: id, root: newSpan(name), cost: NewCost()}
}

// ID reports the request ID ("" on a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Root returns the root span (nil on a nil trace), the parent for
// request-phase children.
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Cost returns the trace's cost sink (nil on a nil trace).
func (t *Trace) Cost() *Cost {
	if t == nil {
		return nil
	}
	return t.cost
}

// Finish ends the root span.
func (t *Trace) Finish() { t.Root().End() }

// Tree renders the finished span tree (nil on a nil trace).
func (t *Trace) Tree() *SpanNode {
	if t == nil {
		return nil
	}
	return t.root.node(t.root.start)
}

// Renderer bounds: a span tree is for human eyes, so WriteText clips
// pathological shapes instead of flooding the terminal. Deeper subtrees
// render as a "... (N deeper)" marker, and only the first
// maxRenderChildren children of any node are listed, followed by a
// "... (+N more)" marker. The JSON Tree() shape is never truncated.
const (
	maxRenderDepth    = 16
	maxRenderChildren = 32
)

// countNodes reports the size of a span subtree (for the depth marker).
func countNodes(n *SpanNode) int {
	total := 1
	for _, c := range n.Children {
		total += countNodes(c)
	}
	return total
}

// WriteText renders the span tree and the nonzero cost counters as
// indented text — the pwq -trace / debugging shape. Error-marked spans
// carry a trailing "!class". Trees deeper than maxRenderDepth or wider
// than maxRenderChildren per node are clipped with "..." markers.
func (t *Trace) WriteText(w io.Writer) {
	if t == nil {
		return
	}
	indent := func(depth int) {
		for i := 0; i < depth; i++ {
			io.WriteString(w, "  ")
		}
	}
	var walk func(n *SpanNode, depth int)
	walk = func(n *SpanNode, depth int) {
		indent(depth)
		if n.Error != "" {
			fmt.Fprintf(w, "%s %dus (+%dus) !%s\n", n.Name, n.DurUS, n.StartUS, n.Error)
		} else {
			fmt.Fprintf(w, "%s %dus (+%dus)\n", n.Name, n.DurUS, n.StartUS)
		}
		if len(n.Children) == 0 {
			return
		}
		if depth+1 >= maxRenderDepth {
			hidden := 0
			for _, c := range n.Children {
				hidden += countNodes(c)
			}
			indent(depth + 1)
			fmt.Fprintf(w, "... (%d deeper)\n", hidden)
			return
		}
		shown := n.Children
		if len(shown) > maxRenderChildren {
			shown = shown[:maxRenderChildren]
		}
		for _, c := range shown {
			walk(c, depth+1)
		}
		if hidden := len(n.Children) - len(shown); hidden > 0 {
			indent(depth + 1)
			fmt.Fprintf(w, "... (+%d more)\n", hidden)
		}
	}
	walk(t.Tree(), 0)
	if s := t.cost.String(); s != "" {
		fmt.Fprintf(w, "cost: %s\n", s)
	}
}
