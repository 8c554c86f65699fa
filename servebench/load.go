package main

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// phase describes one load phase. An open-loop phase sends request i at
// t0 + i/rate whether or not earlier ones have finished, and times each
// from that due time; a closed-loop phase has each client send its next
// request when the previous one completes.
type phase struct {
	name    string
	open    bool
	rate    float64 // open loop: offered requests per second
	dur     time.Duration
	clients int
	// adaptOnly draws from the trailing adapt-only stream instead of the
	// mixed stream.
	adaptOnly bool
	trace     bool // record one client span per request
}

// lateLimitMS marks an open-loop phase invalid: when the generator itself
// (not a busy connection) sent a tenth of its requests this late, it fell
// behind the schedule and the offered load was not the one configured.
const lateLimitMS = 1.0

// phaseResult is what one phase measured and checked.
type phaseResult struct {
	phase
	wall                 time.Duration
	sent, ok, failed     int
	recs                 []rec     // every successful request
	lateMS               []float64 // generator lateness of each open-loop send
	classified           int       // samples classified by successful responses
	labelled, groundTrue int       // served labels, and how many equal the ground truth
	adaptsAcked, updated int
	mismatches           int
	firstMismatch        string
	spans                []span
	stealTicks           uint64 // host CPU time stolen during the phase
	totalTicks           uint64 // host CPU time that passed during the phase
}

// invalid reports whether the generator fell behind its own schedule.
func (r *phaseResult) invalid() bool {
	return r.open && len(r.lateMS) > 0 && quantile(r.lateMS, 0.9) > lateLimitMS
}

// latency returns the latencies (ms) of the successful predicts, or of the
// adapts.
func (r *phaseResult) latency(adapt bool) []float64 {
	var lat []float64
	for _, x := range r.recs {
		if x.adapt == adapt {
			lat = append(lat, x.lat)
		}
	}
	return lat
}

// stealFrac is the share of host CPU time stolen during the phase.
func (r *phaseResult) stealFrac() float64 {
	if r.totalTicks == 0 {
		return 0
	}
	return float64(r.stealTicks) / float64(r.totalTicks)
}

// rec is one successful request: its latency in ms, and its kind.
type rec struct {
	lat   float64
	adapt bool
}

// checker validates served answers against the ground truth and, where the
// model cannot change during the phase, against labels the benchmark
// computed in-process from the same model file.
type checker struct {
	classes int
	Y       []int // ground truth of the test split
	oracle  []int // expected label per test sample; nil when adapts mutate the model
}

type predictResponse struct {
	Label  *int  `json:"label"`
	Labels []int `json:"labels"`
}

type adaptResponse struct {
	Pred    *int `json:"pred"`
	Updated bool `json:"updated"`
}

// check validates one successful response and folds it into r.
func (c *checker) check(r *phaseResult, req request, body []byte) error {
	if req.adapt {
		var resp adaptResponse
		if err := json.Unmarshal(body, &resp); err != nil || resp.Pred == nil {
			return fmt.Errorf("request %d: malformed /adapt response %q", req.id, body)
		}
		if *resp.Pred < 0 || *resp.Pred >= c.classes {
			return fmt.Errorf("request %d: /adapt pred %d out of range [0,%d)", req.id, *resp.Pred, c.classes)
		}
		r.adaptsAcked++
		r.classified++
		if resp.Updated {
			r.updated++
		}
		return nil
	}
	var resp predictResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("request %d: malformed /predict response %q", req.id, body)
	}
	labels := resp.Labels
	if resp.Label != nil {
		labels = []int{*resp.Label}
	}
	if len(labels) != len(req.samples) {
		return fmt.Errorf("request %d: %d labels for %d samples", req.id, len(labels), len(req.samples))
	}
	for k, got := range labels {
		s := req.samples[k]
		if got < 0 || got >= c.classes {
			return fmt.Errorf("request %d: label %d out of range [0,%d)", req.id, got, c.classes)
		}
		if c.oracle != nil && got != c.oracle[s] {
			return fmt.Errorf("request %d sample %d: served label %d, in-process PredictAll says %d", req.id, s, got, c.oracle[s])
		}
		r.labelled++
		if got == c.Y[s] {
			r.groundTrue++
		}
	}
	r.classified += len(labels)
	return nil
}

// runPhase drives one phase with ph.clients connections, one goroutine
// each, starting at stream index first. It returns once every client has
// finished.
func runPhase(ph phase, addr string, st *stream, chk *checker, first int64, epoch time.Time) *phaseResult {
	parts := make([]*phaseResult, ph.clients)
	var next atomic.Int64
	n := int64(ph.rate * ph.dur.Seconds())
	t0 := time.Now().Add(2 * time.Millisecond)
	deadline := t0.Add(ph.dur)
	total0, steal0 := cpuTicks()
	var wg sync.WaitGroup
	for k := range parts {
		r := &phaseResult{phase: ph}
		parts[k] = r
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newConn(addr, 5*time.Second)
			defer c.close()
			var tr *tracer
			if ph.trace {
				tr = newTracer(epoch, 1024)
			}
			free := time.Now()
			for {
				i := next.Add(1) - 1
				if ph.open && i >= n || !ph.open && time.Now().After(deadline) {
					break
				}
				var req request
				if ph.adaptOnly {
					req = st.adaptAt(first + i)
				} else {
					req = st.at(first + i)
				}
				var due time.Time
				if ph.open {
					due = t0.Add(time.Duration(float64(i) / ph.rate * 1e9))
					sleepUntil(due)
				}
				sent := time.Now()
				if !ph.open {
					due = sent
				} else {
					// Lateness the generator caused: time past the later of
					// the due time and the moment this client was free.
					from := due
					if free.After(from) {
						from = free
					}
					r.lateMS = append(r.lateMS, ms(sent.Sub(from)))
				}
				r.sent++
				status, body, err := c.do(req.wire)
				done := time.Now()
				free = done
				if tr != nil {
					name := "client.predict"
					if req.adapt {
						name = "client.adapt"
					}
					tr.record(req.id, name, due, done)
				}
				if err != nil || status < 200 || status > 299 {
					r.failed++
					continue
				}
				if err := chk.check(r, req, body); err != nil {
					r.mismatches++
					if r.firstMismatch == "" {
						r.firstMismatch = err.Error()
					}
					continue
				}
				r.ok++
				r.recs = append(r.recs, rec{lat: ms(done.Sub(due)), adapt: req.adapt})
			}
			if tr != nil {
				r.spans = tr.spans
			}
		}()
	}
	wg.Wait()
	out := mergeResults(ph, parts)
	out.wall = time.Since(t0)
	total1, steal1 := cpuTicks()
	out.totalTicks, out.stealTicks = total1-total0, steal1-steal0
	return out
}

func mergeResults(ph phase, parts []*phaseResult) *phaseResult {
	out := &phaseResult{phase: ph}
	for _, r := range parts {
		out.sent += r.sent
		out.ok += r.ok
		out.failed += r.failed
		out.recs = append(out.recs, r.recs...)
		out.lateMS = append(out.lateMS, r.lateMS...)
		out.classified += r.classified
		out.labelled += r.labelled
		out.groundTrue += r.groundTrue
		out.adaptsAcked += r.adaptsAcked
		out.updated += r.updated
		out.mismatches += r.mismatches
		if out.firstMismatch == "" {
			out.firstMismatch = r.firstMismatch
		}
		out.spans = mergeSpans(out.spans, r.spans)
	}
	return out
}

// mergeSpans appends b to a, renumbering b's span ids past a's.
func mergeSpans(a, b []span) []span {
	off := int32(len(a))
	for _, s := range b {
		s.id += off
		if s.parent >= 0 {
			s.parent += off
		}
		a = append(a, s)
	}
	return a
}

// sleepUntil blocks the calling thread in nanosleep until t. The runtime's
// timers wake about 0.5 ms late on average on an idle Linux host (they
// round sub-millisecond waits up to the next millisecond of epoll timeout);
// a raw nanosleep wakes within tens of microseconds, which keeps the
// open-loop schedule honest.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop and sleep the remainder
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
