package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call the harness made into a layer. Spans of one
// controller transition share Txn (the harness's transaction number). A span
// flagged ShadowOf replays, on a shadow copy of a lower layer, the work the
// real span ShadowOf did inside itself: it is a sibling in time but counts
// against the real span's self time.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`              // 0 = no parent
	ShadowOf int    `json:"shadow_of,omitempty"` // 0 = a real call
	Txn      int    `json:"txn"`
	Name     string `json:"name"` // "<layer>.<call>"
	Rep      int    `json:"rep"`
	Start    int64  `json:"start_ns"` // since the trace began
	End      int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans in memory. A nil *tracer records nothing, so the
// untraced run shares every call site and pays one nil check.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span IDs
	txn   int
	rep   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// nextTxn starts a new transaction: later spans carry its number.
func (t *tracer) nextTxn() {
	if t != nil {
		t.txn++
	}
}

// timer is an open span; stop closes it and returns the elapsed time. It
// times the call whether or not a tracer records it.
type timer struct {
	t  *tracer
	id int
	t0 time.Time
}

func (t *tracer) start(name string) timer { return t.startShadow(name, 0) }

// startShadow opens a span that replays, on a shadow layer, work done inside
// the real span shadowOf.
func (t *tracer) startShadow(name string, shadowOf int) timer {
	if t == nil {
		return timer{t0: time.Now()}
	}
	id := len(t.spans) + 1
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.open = append(t.open, id)
	now := time.Now()
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, ShadowOf: shadowOf, Txn: t.txn, Name: name, Rep: t.rep,
		Start: now.Sub(t.t0).Nanoseconds(),
	})
	return timer{t: t, id: id, t0: now}
}

func (tm timer) stop() time.Duration {
	now := time.Now()
	if tm.t != nil {
		tm.t.spans[tm.id-1].End = now.Sub(tm.t.t0).Nanoseconds()
		tm.t.open = tm.t.open[:len(tm.t.open)-1]
	}
	return now.Sub(tm.t0)
}

// selfTimes returns every span's self time by ID: its duration minus the part
// of its interval that child spans cover (overlapping children count once),
// minus the durations of the shadow spans that replay its inner work.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	shadows := map[int]time.Duration{}
	for _, s := range spans {
		if s.ShadowOf != 0 {
			shadows[s.ShadowOf] += s.dur()
		}
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, children[s.ID]) - shadows[s.ID]
	}
	return self
}

// covered is the length of the union of the children's intervals clipped to
// the parent's.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, hi int64
	hi = parent.Start
	for _, k := range kids {
		lo, end := max(k.Start, hi), min(k.End, parent.End)
		if end > lo {
			total += end - lo
			hi = end
		}
	}
	return time.Duration(total)
}

// tracedRun is one workload's spans in the span file.
type tracedRun struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

// writeSpans dumps every traced workload's spans as one JSON document.
func writeSpans(path string, host hostInfo, runs []tracedRun) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(struct {
		Host hostInfo    `json:"host"`
		Runs []tracedRun `json:"runs"`
	}{host, runs})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
