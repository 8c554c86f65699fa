package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"testing"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json the smoke
// test holds the program to.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// TestSmoke runs every workload for a short traced run against a freshly
// built generic-serve and checks that it answers correctly and reports
// exactly the metrics BENCHMARK.json declares, with their units.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds generic-serve and runs each workload")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	sort.Strings(names)
	sort.Strings(have)
	if !slices.Equal(names, have) {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, have)
	}

	bin := filepath.Join(t.TempDir(), "generic-serve")
	if out, err := exec.Command("go", "build", "-o", bin, "github.com/edge-hdc/generic/cmd/generic-serve").CombinedOutput(); err != nil {
		t.Fatalf("building generic-serve: %v\n%s", err, out)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			out := t.TempDir()
			var log bytes.Buffer
			res, err := run(config{workload: w.name, seed: 5, seconds: 2, trace: true, serveBin: bin, out: out}, &log)
			if err != nil {
				t.Fatalf("run: %v\n%s", err, log.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, log.String())
			}
			checkMetrics(t, "per_layer", res.Metrics, spec.PerLayer)

			var rec struct {
				EndToEnd map[string]metric `json:"end_to_end"`
			}
			b, err := os.ReadFile(filepath.Join(out, "results", w.name+"-seed5-trace1.json"))
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(b, &rec); err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, "end_to_end", rec.EndToEnd, spec.EndToEnd)
			for _, name := range []string{"setup_s", "predict_p50_ms", "capacity_samples_per_s", "accuracy", "ok_frac"} {
				if rec.EndToEnd[name].Value <= 0 {
					t.Errorf("%s = %g, want > 0", name, rec.EndToEnd[name].Value)
				}
			}
		})
	}
}

func checkMetrics(t *testing.T, kind string, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics reported, BENCHMARK.json declares %d", kind, len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s not reported", kind, m.Name)
		case g.Unit != m.Unit:
			t.Errorf("%s: %s in %s, BENCHMARK.json says %s", kind, m.Name, g.Unit, m.Unit)
		}
	}
}
