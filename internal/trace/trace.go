// Package trace is the suite's zero-dependency structured tracer: it
// records where the time of a run went — parse, build, dispatch, kernel,
// verify, refinement — as a tree of spans with nanosecond monotonic
// timestamps, cheap enough to thread through the sweep supervisor, the
// autotuner, the graph ingest pipeline, and the GPU simulator without
// perturbing the measurements the paper's methodology depends on.
//
// The design has two halves:
//
//   - Recording. A Tracer owns a small set of sharded ring buffers.
//     Span sites carry a Ctx (tracer pointer + trace/span identity);
//     Ctx.Start captures the monotonic start time and a sequence
//     number, Ctx.End appends one completed-span entry to a shard ring.
//     Nothing is serialized or locked globally on the hot path, and the
//     disabled path — a zero Ctx — is a single nil check per span site:
//     every Ctx method returns immediately when no tracer is attached,
//     so instrumented code pays nothing when tracing is off (pinned by
//     the cmd/bench gate, DESIGN.md §15).
//
//   - Flushing. At run boundaries (a sweep task, a tune trial, an HTTP
//     request) the owner calls Flush, which drains every shard under a
//     single flush lock and hands the completed events, ordered by
//     their begin sequence, to the Sink: a JSONL journal for the CLIs
//     (-trace) or a bounded in-memory store for the serve endpoint
//     (GET /v1/trace/{id}).
//
// Ring overflow drops whole spans (begin and end together, so a journal
// never goes unbalanced) and counts them in Counters.Dropped; size the
// capacity up rather than flushing from a span site.
package trace

import (
	"sync"
	"sync/atomic"
	"time"
)

// An Attr is one key/value annotation on a span or point.
type Attr struct {
	Key string `json:"k"`
	Val string `json:"v"`
}

// Event is one completed span (or instant point) as delivered to a
// Sink. Start is nanoseconds on the tracer's monotonic clock (its
// epoch is the Tracer's creation); Dur is the span length (zero for
// points). BeginSeq/EndSeq are the tracer-wide total order of the
// span's open and close, which is what makes a rendered journal
// balanced and nestable: a parent's begin always precedes its
// children's, and a child's end always precedes its parent's.
type Event struct {
	Trace  uint64 `json:"trace"`
	Span   uint64 `json:"span"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	Point  bool   `json:"point,omitempty"`
	Attrs  []Attr `json:"attrs,omitempty"`

	BeginSeq uint64 `json:"-"`
	EndSeq   uint64 `json:"-"`
}

// Sink receives each flush's completed events, ordered by BeginSeq.
// Write is always called under the tracer's flush lock — never
// concurrently — but from whichever goroutine flushed.
type Sink interface {
	Write(events []Event)
	Close() error
}

// Counters is the tracer's live accounting, safe to read at any time:
// Started-Finished is the number of currently open spans, which is how
// a stuck run shows up on a dashboard before any journal is cut.
type Counters struct {
	Started  int64 `json:"spans_started"`
	Finished int64 `json:"spans_finished"`
	Points   int64 `json:"points"`
	Dropped  int64 `json:"dropped"`
}

const (
	defaultShards   = 8
	defaultCapacity = 4096 // per shard
)

// Config sizes a Tracer. The zero value (plus a Sink) is serviceable.
type Config struct {
	// Sink receives flushed events. Required.
	Sink Sink
	// Capacity is the per-shard ring capacity; 0 means 4096. A full
	// shard drops whole spans (counted) until the next Flush.
	Capacity int
	// Shards is the ring count completed spans are striped over; 0
	// means 8. More shards, less End contention under wide fan-out.
	Shards int
}

type shard struct {
	mu  sync.Mutex
	buf []Event
}

// Tracer records spans into sharded rings and flushes them to its
// sink. All methods are safe for concurrent use.
type Tracer struct {
	sink  Sink
	epoch time.Time
	cap   int

	seq atomic.Uint64 // begin/end/point total order
	ids atomic.Uint64 // span and trace id allocator (shared sequence)

	started  atomic.Int64
	finished atomic.Int64
	points   atomic.Int64
	dropped  atomic.Int64

	flushMu sync.Mutex
	shards  []shard
	scratch []Event // flush staging, reused across flushes
}

// New creates a Tracer. It panics without a Sink — a tracer that
// records into nothing is always a wiring bug.
func New(cfg Config) *Tracer {
	if cfg.Sink == nil {
		panic("trace.New: Config.Sink is required")
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = defaultCapacity
	}
	if cfg.Shards <= 0 {
		cfg.Shards = defaultShards
	}
	return &Tracer{
		sink:   cfg.Sink,
		epoch:  time.Now(),
		cap:    cfg.Capacity,
		shards: make([]shard, cfg.Shards),
	}
}

// now is nanoseconds on the tracer's monotonic clock.
func (t *Tracer) now() int64 { return int64(time.Since(t.epoch)) }

// NewTrace opens a fresh trace whose root span is name and returns the
// root's Ctx. The trace id doubles as the root span id.
func (t *Tracer) NewTrace(name string) Ctx {
	if t == nil {
		return Ctx{}
	}
	id := t.ids.Add(1)
	t.started.Add(1)
	return Ctx{
		tr:    t,
		trace: id,
		span:  id,
		name:  name,
		start: t.now(),
		bseq:  t.seq.Add(1),
	}
}

// Counters returns the live span accounting.
func (t *Tracer) Counters() Counters {
	if t == nil {
		return Counters{}
	}
	return Counters{
		Started:  t.started.Load(),
		Finished: t.finished.Load(),
		Points:   t.points.Load(),
		Dropped:  t.dropped.Load(),
	}
}

// record appends a completed event to its shard ring, dropping (and
// counting) it when the ring is full.
func (t *Tracer) record(e Event) {
	s := &t.shards[e.Span%uint64(len(t.shards))]
	s.mu.Lock()
	if len(s.buf) >= t.cap {
		s.mu.Unlock()
		t.dropped.Add(1)
		return
	}
	s.buf = append(s.buf, e)
	s.mu.Unlock()
}

// Flush drains every shard and hands the completed events, sorted by
// begin sequence, to the sink. Call it at run boundaries — after a
// sweep task, a tune trial, an HTTP request — so rings stay small and
// the journal stays roughly chronological.
func (t *Tracer) Flush() {
	if t == nil {
		return
	}
	t.flushMu.Lock()
	defer t.flushMu.Unlock()
	evs := t.scratch[:0]
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		evs = append(evs, s.buf...)
		s.buf = s.buf[:0]
		s.mu.Unlock()
	}
	if len(evs) == 0 {
		t.scratch = evs
		return
	}
	sortEvents(evs)
	t.sink.Write(evs)
	t.scratch = evs
}

// Close flushes and closes the sink.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.Flush()
	return t.sink.Close()
}

// sortEvents orders by BeginSeq (insertion sort over the typical
// near-sorted flush; flushes are boundary-sized, not unbounded).
func sortEvents(evs []Event) {
	for i := 1; i < len(evs); i++ {
		for j := i; j > 0 && evs[j].BeginSeq < evs[j-1].BeginSeq; j-- {
			evs[j], evs[j-1] = evs[j-1], evs[j]
		}
	}
}

// Ctx is a span site's handle: the tracer plus the identity of the
// enclosing span. The zero Ctx is "tracing disabled" — every method is
// a nil check and a return, which is the entire disabled-path cost.
// Ctx values are passed by value through options structs; a Ctx is
// usable from any goroutine.
type Ctx struct {
	tr     *Tracer
	hold   *hold // non-nil: completed events wait here for Commit
	trace  uint64
	span   uint64
	parent uint64
	name   string
	start  int64
	bseq   uint64
	attrs  []Attr
}

// Live reports whether a tracer is attached. Use it to gate attribute
// construction that would otherwise run (and allocate) on the disabled
// path: attrs passed to Attr are evaluated by the caller regardless.
func (c Ctx) Live() bool { return c.tr != nil }

// TraceID returns the trace identity, 0 when disabled.
func (c Ctx) TraceID() uint64 { return c.trace }

// SpanID returns the span identity, 0 when disabled.
func (c Ctx) SpanID() uint64 { return c.span }

// Start opens a child span and returns its Ctx. End it exactly once.
func (c Ctx) Start(name string) Ctx {
	if c.tr == nil {
		return Ctx{}
	}
	t := c.tr
	t.started.Add(1)
	return Ctx{
		tr:     t,
		hold:   c.hold,
		trace:  c.trace,
		span:   t.ids.Add(1),
		parent: c.span,
		name:   name,
		start:  t.now(),
		bseq:   t.seq.Add(1),
	}
}

// Attr annotates the span, returning the annotated Ctx. Call between
// Start and End, on the value End will be called on. Guard expensive
// value construction with Live.
func (c Ctx) Attr(key, val string) Ctx {
	if c.tr == nil {
		return c
	}
	c.attrs = append(c.attrs, Attr{Key: key, Val: val})
	return c
}

// End closes the span, recording it into the tracer's rings.
func (c Ctx) End() {
	if c.tr == nil {
		return
	}
	t := c.tr
	t.finished.Add(1)
	c.record(Event{
		Trace:    c.trace,
		Span:     c.span,
		Parent:   c.parent,
		Name:     c.name,
		Start:    c.start,
		Dur:      t.now() - c.start,
		Attrs:    c.attrs,
		BeginSeq: c.bseq,
		EndSeq:   t.seq.Add(1),
	})
}

// Point records an instant event under this span (a retry, a
// quarantine decision, a reclaim) with no duration.
func (c Ctx) Point(name string) { c.PointAttr(name, "", "") }

// PointAttr is Point with one attribute; an empty key attaches none.
func (c Ctx) PointAttr(name, key, val string) {
	if c.tr == nil {
		return
	}
	t := c.tr
	t.points.Add(1)
	var attrs []Attr
	if key != "" {
		attrs = []Attr{{Key: key, Val: val}}
	}
	seq := t.seq.Add(1)
	c.record(Event{
		Trace:    c.trace,
		Span:     t.ids.Add(1),
		Parent:   c.span,
		Name:     name,
		Start:    t.now(),
		Point:    true,
		Attrs:    attrs,
		BeginSeq: seq,
		EndSeq:   seq,
	})
}

// hold is the private buffer of a held subtree (see Ctx.Hold).
type hold struct {
	mu  sync.Mutex
	evs []Event
}

// record files a completed event: into the subtree's hold when there
// is one, else into the tracer's rings. A hold is capped at the rings'
// total capacity and, like a ring, drops (and counts) past it.
func (c Ctx) record(e Event) {
	h := c.hold
	if h == nil {
		c.tr.record(e)
		return
	}
	h.mu.Lock()
	if len(h.evs) >= c.tr.cap*len(c.tr.shards) {
		h.mu.Unlock()
		c.tr.dropped.Add(1)
		return
	}
	h.evs = append(h.evs, e)
	h.mu.Unlock()
}

// Hold returns this span's Ctx with a fresh private buffer: every span
// and point completed under it (through it or through Ctxs started from
// it) waits in the buffer, out of reach of Flush, until Commit moves it
// into the tracer's rings. A run that commits its results in an order
// other than the one it executes them in — the sweep supervisor running
// tasks concurrently and committing them in task order — holds each
// task's subtree, so a flush at one task's commit never carries part of
// another task still in flight. A disabled Ctx returns itself.
func (c Ctx) Hold() Ctx {
	if c.tr == nil {
		return c
	}
	c.hold = &hold{}
	return c
}

// Commit moves the events held for this Ctx's subtree into the tracer's
// rings, where the next Flush finds them. Events completed under the
// hold after Commit wait for a later Commit. A Ctx without a hold does
// nothing.
func (c Ctx) Commit() {
	h := c.hold
	if h == nil {
		return
	}
	h.mu.Lock()
	evs := h.evs
	h.evs = nil
	h.mu.Unlock()
	for _, e := range evs {
		c.tr.record(e)
	}
}

// Flush drains the attached tracer's rings to its sink; a disabled Ctx
// does nothing. Run boundaries call this so every completed span of
// the run reaches the journal before the next run starts.
func (c Ctx) Flush() {
	if c.tr == nil {
		return
	}
	c.tr.Flush()
}
