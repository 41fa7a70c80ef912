package trace

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// collect is a test sink capturing every flushed event.
type collect struct {
	mu  sync.Mutex
	evs []Event
}

func (c *collect) Write(events []Event) {
	c.mu.Lock()
	c.evs = append(c.evs, events...)
	c.mu.Unlock()
}
func (c *collect) Close() error { return nil }

func TestSpanTreeAndCounters(t *testing.T) {
	sink := &collect{}
	tr := New(Config{Sink: sink})
	root := tr.NewTrace("session")
	child := root.Start("work").Attr("variant", "x")
	child.Point("retry")
	grand := child.Start("kernel")
	grand.End()
	child.End()
	root.End()
	tr.Flush()

	if got := tr.Counters(); got.Started != 3 || got.Finished != 3 || got.Points != 1 || got.Dropped != 0 {
		t.Fatalf("counters = %+v, want 3 started, 3 finished, 1 point", got)
	}
	if len(sink.evs) != 4 {
		t.Fatalf("flushed %d events, want 4 (3 spans + 1 point)", len(sink.evs))
	}
	byName := map[string]Event{}
	for _, e := range sink.evs {
		byName[e.Name] = e
		if e.Trace != root.TraceID() {
			t.Errorf("%s: trace id %d, want %d", e.Name, e.Trace, root.TraceID())
		}
	}
	if byName["work"].Parent != byName["session"].Span {
		t.Errorf("work's parent = %d, want session span %d", byName["work"].Parent, byName["session"].Span)
	}
	if byName["kernel"].Parent != byName["work"].Span {
		t.Errorf("kernel's parent = %d, want work span %d", byName["kernel"].Parent, byName["work"].Span)
	}
	if byName["retry"].Parent != byName["work"].Span || !byName["retry"].Point {
		t.Errorf("retry point misfiled: %+v", byName["retry"])
	}
	if len(byName["work"].Attrs) != 1 || byName["work"].Attrs[0] != (Attr{"variant", "x"}) {
		t.Errorf("work attrs = %v", byName["work"].Attrs)
	}
	// Parent opens before child, child closes before parent.
	if !(byName["session"].BeginSeq < byName["work"].BeginSeq &&
		byName["work"].BeginSeq < byName["kernel"].BeginSeq) {
		t.Error("begin sequence is not parent-before-child")
	}
	if !(byName["kernel"].EndSeq < byName["work"].EndSeq &&
		byName["work"].EndSeq < byName["session"].EndSeq) {
		t.Error("end sequence is not child-before-parent")
	}
	if byName["kernel"].Dur < 0 || byName["kernel"].Start < byName["work"].Start {
		t.Error("child starts before parent on the monotonic clock")
	}
}

// TestDisabledCtxIsInert pins the off-by-default contract: the zero
// Ctx records nothing, reaches no tracer, and allocates nothing.
func TestDisabledCtxIsInert(t *testing.T) {
	var c Ctx
	if c.Live() {
		t.Fatal("zero Ctx claims to be live")
	}
	n := testing.AllocsPerRun(100, func() {
		sp := c.Start("x")
		sp = sp.Attr("k", "v")
		sp.Point("p")
		sp.End()
		sp.Flush()
	})
	if n != 0 {
		t.Fatalf("disabled span site allocates %.1f times, want 0", n)
	}
}

func TestRingOverflowDropsWholeSpans(t *testing.T) {
	sink := &collect{}
	tr := New(Config{Sink: sink, Capacity: 2, Shards: 1})
	root := tr.NewTrace("root")
	for i := 0; i < 5; i++ {
		root.Start("s").End()
	}
	root.End()
	tr.Flush()
	c := tr.Counters()
	if c.Dropped != 4 { // 5 children + root = 6 completed, ring holds 2
		t.Fatalf("dropped = %d, want 4", c.Dropped)
	}
	if len(sink.evs) != 2 {
		t.Fatalf("flushed %d events, want 2", len(sink.evs))
	}
}

func TestJSONLRoundTripBalanced(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	tr := New(Config{Sink: sink})
	root := tr.NewTrace("run")
	a := root.Start("phase-a").Attr("n", "7")
	a.PointAttr("mark", "k", "v")
	a.End()
	b := root.Start("phase-b")
	b.End()
	root.End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := CheckJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("journal does not validate: %v\n%s", err, buf.String())
	}
	if st.Spans != 3 || st.Points != 1 || st.Traces != 1 {
		t.Fatalf("stats = %+v, want 3 spans, 1 point, 1 trace", st)
	}
	if st.Lines != 7 { // 3 spans x (b+e) + 1 point
		t.Fatalf("lines = %d, want 7", st.Lines)
	}
	// The root's open must be the first line and its close the last.
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if !strings.Contains(lines[0], `"ev":"b"`) || !strings.Contains(lines[0], `"name":"run"`) {
		t.Errorf("first line is not the root open: %s", lines[0])
	}
	if !strings.Contains(lines[len(lines)-1], `"ev":"e"`) {
		t.Errorf("last line is not a close: %s", lines[len(lines)-1])
	}
}

func TestCheckJournalRejectsImbalance(t *testing.T) {
	for name, journal := range map[string]string{
		"unclosed":   `{"ev":"b","seq":1,"trace":1,"span":1,"name":"x","t":0}`,
		"unopened":   `{"ev":"e","seq":1,"trace":1,"span":1,"t":0}`,
		"reopened":   "{\"ev\":\"b\",\"seq\":1,\"trace\":1,\"span\":1,\"name\":\"x\",\"t\":0}\n{\"ev\":\"e\",\"seq\":2,\"trace\":1,\"span\":1,\"t\":1}\n{\"ev\":\"b\",\"seq\":3,\"trace\":1,\"span\":1,\"name\":\"x\",\"t\":2}\n{\"ev\":\"e\",\"seq\":4,\"trace\":1,\"span\":1,\"t\":3}",
		"badjson":    `{"ev":`,
		"wrongtrace": "{\"ev\":\"b\",\"seq\":1,\"trace\":1,\"span\":1,\"name\":\"x\",\"t\":0}\n{\"ev\":\"e\",\"seq\":2,\"trace\":2,\"span\":1,\"t\":1}",
	} {
		if _, err := CheckJournal(strings.NewReader(journal)); err == nil {
			t.Errorf("%s journal validated, want error", name)
		}
	}
}

func TestMemSinkRetentionAndEviction(t *testing.T) {
	m := NewMemSink(2, 3)
	tr := New(Config{Sink: m})
	var roots []Ctx
	for i := 0; i < 3; i++ {
		root := tr.NewTrace("r")
		for j := 0; j < 5; j++ {
			root.Start("s").End()
		}
		root.End()
		tr.Flush()
		roots = append(roots, root)
	}
	if m.Len() != 2 {
		t.Fatalf("retained %d traces, want 2", m.Len())
	}
	if _, _, ok := m.Trace(roots[0].TraceID()); ok {
		t.Error("oldest trace was not evicted")
	}
	evs, truncated, ok := m.Trace(roots[2].TraceID())
	if !ok || len(evs) != 3 || truncated != 3 {
		t.Fatalf("newest trace: ok=%v len=%d truncated=%d, want 3 kept + 3 truncated", ok, len(evs), truncated)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].BeginSeq < evs[i-1].BeginSeq {
			t.Fatal("trace events not ordered by begin sequence")
		}
	}
}

// TestConcurrentSpansRace exercises concurrent span recording and
// flushing under -race.
func TestConcurrentSpansRace(t *testing.T) {
	sink := &collect{}
	tr := New(Config{Sink: sink, Capacity: 1 << 14})
	root := tr.NewTrace("root")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sp := root.Start("work")
				sp.Point("tick")
				sp.End()
				if i%50 == 0 {
					tr.Flush()
				}
			}
		}()
	}
	wg.Wait()
	root.End()
	tr.Flush()
	c := tr.Counters()
	if c.Started != c.Finished {
		t.Fatalf("started %d != finished %d", c.Started, c.Finished)
	}
	if int64(len(sink.evs))+c.Dropped != c.Finished+c.Points {
		t.Fatalf("flushed %d + dropped %d != finished %d + points %d",
			len(sink.evs), c.Dropped, c.Finished, c.Points)
	}
}

// TestHoldDefersUntilCommit: a held subtree's completed spans and points
// stay out of every Flush until Commit, then arrive together, while the
// rest of the trace flushes as usual; the hold is capped like a ring.
func TestHoldDefersUntilCommit(t *testing.T) {
	sink := &collect{}
	tr := New(Config{Sink: sink, Capacity: 4, Shards: 1})
	root := tr.NewTrace("root")
	task := root.Hold().Start("task")
	task.Start("kernel").End()
	task.End()
	root.Start("other").End()
	tr.Flush()
	if len(sink.evs) != 1 || sink.evs[0].Name != "other" {
		t.Fatalf("flush before Commit delivered %v, want only the unheld span", names(sink.evs))
	}
	task.Point("discard") // after End: still under the task, still held
	task.Commit()
	tr.Flush()
	if got := names(sink.evs[1:]); got != "task kernel discard" {
		t.Fatalf("flush after Commit delivered %q, want the whole held subtree in begin order", got)
	}

	big := root.Hold()
	for i := 0; i < 6; i++ {
		big.Start("s").End()
	}
	big.Commit()
	if c := tr.Counters(); c.Dropped != 2 {
		t.Fatalf("dropped = %d, want 2 past the hold's capacity of 4", c.Dropped)
	}

	var off Ctx
	off.Hold().Commit() // disabled: inert
}

func names(evs []Event) string {
	var s []string
	for _, e := range evs {
		s = append(s, e.Name)
	}
	return strings.Join(s, " ")
}
