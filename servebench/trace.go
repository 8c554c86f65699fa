package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call at a layer boundary. Every span of one request
// carries that request's id (its index in the seeded stream), so the spans
// the client records and the spans the in-process replay records for the
// same request can be joined.
type span struct {
	req    int64 // request id
	id     int32 // span id, unique within a tracer
	parent int32 // id of the span that caused this one; -1 for a root
	name   string
	start  int64 // ns since the tracer's epoch
	end    int64
}

func (s span) dur() int64 { return s.end - s.start }

// tracer keeps spans in memory; they are written out once the run ends so
// recording never touches the disk. It is not safe for concurrent use: each
// recording goroutine owns one and the results are merged afterwards.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer(epoch time.Time, capacity int) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, 0, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its index; end closes it.
func (t *tracer) begin(req int64, parent int32, name string) int {
	t.spans = append(t.spans, span{req: req, id: int32(len(t.spans)), parent: parent, name: name, start: t.now()})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].end = t.now() }

// record adds an already-timed span (the load generator times from a
// request's due time, which precedes the call).
func (t *tracer) record(req int64, name string, start, end time.Time) {
	t.spans = append(t.spans, span{
		req: req, id: int32(len(t.spans)), parent: -1, name: name,
		start: int64(start.Sub(t.epoch)), end: int64(end.Sub(t.epoch)),
	})
}

// selfTime is each span's duration minus the part of its interval that its
// children cover, indexed like spans. Overlapping children are counted once;
// a child reaching outside its parent only counts inside it. Span ids must
// be unique within spans.
func selfTime(spans []span) []int64 {
	idx := make(map[int32]int, len(spans))
	for i, s := range spans {
		idx[s.id] = i
	}
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s, children[s.id])
	}
	return self
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.start, parent.start), min(k.end, parent.end)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// layerTimes groups span self times, in microseconds, by span name.
func layerTimes(spans []span) map[string][]float64 {
	self := selfTime(spans)
	out := make(map[string][]float64)
	for i, s := range spans {
		out[s.name] = append(out[s.name], float64(self[i])/1e3)
	}
	return out
}

// perRequest sums, for every request that has all the named spans, the
// signed combination sum(plus) - sum(minus) of their durations in
// microseconds. It is how a layer's own share is derived from spans of
// separate calls on the same input, e.g. predict - encode - score.
func perRequest(spans []span, plus, minus []string) []float64 {
	type acc struct {
		v    int64
		seen map[string]int
	}
	byReq := make(map[int64]*acc)
	var order []int64
	for _, s := range spans {
		a := byReq[s.req]
		if a == nil {
			a = &acc{seen: make(map[string]int)}
			byReq[s.req] = a
			order = append(order, s.req)
		}
		for _, n := range plus {
			if s.name == n {
				a.v += s.dur()
				a.seen[n]++
			}
		}
		for _, n := range minus {
			if s.name == n {
				a.v -= s.dur()
				a.seen[n]++
			}
		}
	}
	var out []float64
	for _, r := range order {
		a := byReq[r]
		if len(a.seen) == len(plus)+len(minus) {
			out = append(out, float64(a.v)/1e3)
		}
	}
	return out
}

// residual is an end-to-end time minus the sum of the layer times that make
// it up: the share no layer span accounts for (transport, scheduling,
// queueing and whatever the layers do outside the measured calls).
func residual(endToEnd float64, layers ...float64) float64 {
	for _, l := range layers {
		endToEnd -= l
	}
	return endToEnd
}

// writeSpans writes spans as JSON lines, one object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range spans {
		fmt.Fprintf(w, "{\"req\":%d,\"id\":%d,\"parent\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d}\n",
			s.req, s.id, s.parent, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
