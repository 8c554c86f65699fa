package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	generic "github.com/edge-hdc/generic"
)

func testStream(t *testing.T, w workload, seed uint64) *stream {
	t.Helper()
	ds, err := generic.LoadDataset(w.dataset, datasetSeed)
	if err != nil {
		t.Fatal(err)
	}
	return newStream(w, seed, ds.TestX, ds.TestY)
}

// Same seed, byte-identical requests, whatever order they are built in;
// another seed, another stream.
func TestStreamDeterminism(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, b, c := testStream(t, w, 42), testStream(t, w, 42), testStream(t, w, 43)
			const n = 2000
			differ := 0
			for i := int64(n - 1); i >= 0; i-- { // b is built backwards
				_ = b.at(i)
				_ = b.adaptAt(i)
			}
			for i := int64(0); i < n; i++ {
				ra, rb := a.at(i), b.at(i)
				if !bytes.Equal(ra.wire, rb.wire) || ra.adapt != rb.adapt || ra.id != rb.id {
					t.Fatalf("request %d differs between two streams of seed 42", i)
				}
				if !bytes.Equal(a.adaptAt(i).wire, b.adaptAt(i).wire) {
					t.Fatalf("adapt request %d differs between two streams of seed 42", i)
				}
				if !bytes.Equal(ra.wire, c.at(i).wire) {
					differ++
				}
			}
			if differ < n/2 {
				t.Fatalf("seeds 42 and 43 share %d of %d requests", n-differ, n)
			}
		})
	}
}

// Bodies carry exactly the test samples they claim, in the handler's
// request shape, and the mix sends the configured share to /adapt.
func TestStreamBodies(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			s := testStream(t, w, 7)
			adapts := 0
			n := int64(4000)
			if w.batch > 1 {
				n = 100 // 150 kB bodies; the batch stream has no adapt mix to sample
			}
			for i := int64(0); i < n; i++ {
				req := s.at(i)
				head := string(req.wire[:bytes.Index(req.wire, []byte("\r\n"))])
				var in struct {
					X     []float64   `json:"x"`
					Xs    [][]float64 `json:"xs"`
					Label *int        `json:"label"`
				}
				dec := json.NewDecoder(bytes.NewReader(body(req.wire)))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&in); err != nil {
					t.Fatalf("request %d: %v", i, err)
				}
				xs := in.Xs
				if in.X != nil {
					xs = [][]float64{in.X}
				}
				if req.adapt {
					adapts++
					if head != "POST /adapt HTTP/1.1" || in.Label == nil || *in.Label != s.Y[req.samples[0]] {
						t.Fatalf("request %d: adapt %q without its ground-truth label", i, head)
					}
				} else if head != "POST /predict HTTP/1.1" || in.Label != nil || len(xs) != w.batch {
					t.Fatalf("request %d: %q carries %d samples, want %d", i, head, len(xs), w.batch)
				}
				for k, x := range xs {
					want := s.X[req.samples[k]]
					for j := range x {
						if x[j] != want[j] {
							t.Fatalf("request %d sample %d feature %d: %v, want %v", i, k, j, x[j], want[j])
						}
					}
				}
			}
			if frac := float64(adapts) / float64(n); frac < w.adaptFrac-0.02 || frac > w.adaptFrac+0.02 {
				t.Fatalf("adapt share %.3f, want %.2f", frac, w.adaptFrac)
			}
		})
	}
}

func TestCheckerRejectsWrongAnswers(t *testing.T) {
	chk := &checker{classes: 3, Y: []int{0, 1, 2}, oracle: []int{0, 2, 2}}
	pred := request{id: 1, samples: []int{1}}
	for _, c := range []struct {
		req  request
		body string
		bad  string
	}{
		{pred, `{"label":2}`, ""},
		{pred, `{"label":1}`, "PredictAll says 2"},
		{pred, `{"label":3}`, "out of range"},
		{pred, `{"labels":[2,2]}`, "2 labels for 1 samples"},
		{request{id: 2, samples: []int{0, 2}}, `{"labels":[0,2]}`, ""},
		{request{id: 3, adapt: true, samples: []int{0}}, `{"pred":1,"updated":true}`, ""},
		{request{id: 4, adapt: true, samples: []int{0}}, `{"pred":-1,"updated":false}`, "out of range"},
		{request{id: 5, adapt: true, samples: []int{0}}, `{}`, "malformed"},
	} {
		var r phaseResult
		err := chk.check(&r, c.req, []byte(c.body))
		switch {
		case c.bad == "" && err != nil:
			t.Errorf("%s: unexpected error %v", c.body, err)
		case c.bad != "" && (err == nil || !strings.Contains(err.Error(), c.bad)):
			t.Errorf("%s: error %v, want one containing %q", c.body, err, c.bad)
		}
	}
}
