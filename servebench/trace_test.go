package main

import (
	"math"
	"testing"
)

func TestSelfTime(t *testing.T) {
	spans := []span{
		{req: 1, id: 0, parent: -1, name: "root", start: 0, end: 100},
		{req: 1, id: 1, parent: 0, name: "a", start: 10, end: 40},
		{req: 1, id: 2, parent: 0, name: "b", start: 30, end: 60}, // overlaps a by 10
		{req: 1, id: 3, parent: 1, name: "a.child", start: 15, end: 25},
		{req: 1, id: 4, parent: 0, name: "late", start: 90, end: 130}, // reaches past root
		{req: 2, id: 5, parent: -1, name: "root", start: 200, end: 250},
	}
	want := []int64{
		100 - (50 + 10), // a∪b covers 10..60, late covers 90..100
		30 - 10,
		30,
		10,
		40,
		50,
	}
	got := selfTime(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].name, got[i], want[i])
		}
	}
	lt := layerTimes(spans)
	if r := lt["root"]; len(r) != 2 || r[0] != 0.04 || r[1] != 0.05 {
		t.Errorf("layerTimes[root] = %v µs, want [0.04 0.05]", r)
	}
}

func TestPerRequestAndResidual(t *testing.T) {
	spans := []span{
		{req: 7, id: 0, parent: -1, name: "predict", start: 0, end: 10000},
		{req: 7, id: 1, parent: -1, name: "encode", start: 10000, end: 17000},
		{req: 7, id: 2, parent: -1, name: "score", start: 17000, end: 18000},
		{req: 8, id: 3, parent: -1, name: "predict", start: 0, end: 5000},
		{req: 8, id: 4, parent: -1, name: "encode", start: 5000, end: 8000},
		// request 8 has no score span: it cannot be attributed and is skipped.
		// Request 9 scores two samples: both count against its one predict.
		{req: 9, id: 5, parent: -1, name: "predict", start: 0, end: 9000},
		{req: 9, id: 6, parent: -1, name: "encode", start: 0, end: 2000},
		{req: 9, id: 7, parent: -1, name: "score", start: 0, end: 1000},
		{req: 9, id: 8, parent: -1, name: "score", start: 0, end: 1000},
	}
	got := perRequest(spans, []string{"predict"}, []string{"encode", "score"})
	want := []float64{2, 5} // µs: 10-7-1, 9-2-1-1
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("perRequest = %v, want %v", got, want)
	}
	if r := residual(300, 45, 113.5, 0.5); math.Abs(r-141) > 1e-9 {
		t.Fatalf("residual = %g, want 141", r)
	}
	if r := residual(100, 60, 50); r != -10 {
		t.Fatalf("residual = %g, want -10 (layers may sum past a median)", r)
	}
}

func TestMergeSpansRenumbers(t *testing.T) {
	a := []span{{id: 0, parent: -1}, {id: 1, parent: 0}}
	b := []span{{id: 0, parent: -1}, {id: 1, parent: 0}}
	m := mergeSpans(a, b)
	if m[2].id != 2 || m[3].id != 3 || m[3].parent != 2 || m[2].parent != -1 {
		t.Fatalf("merged = %+v", m)
	}
}
