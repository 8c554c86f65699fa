package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// pooledTail describes the highest percentile the pooled samples support,
// for the report: on a shared host it mostly measures CPU stolen by the
// hypervisor, which is why the bounded tail metric is at tailAt.
func pooledTail(parts [][]float64) string {
	var all []float64
	for _, p := range parts {
		all = append(all, p...)
	}
	v, at, n := tailQuantile(all, 1)
	return fmt.Sprintf("p%g=%.4f ms of n=%d", at*100, v, n)
}

// report prints the run as a human-readable table.
func report(out io.Writer, fp map[string]string, phases []*phaseResult, e2e, layer map[string]metric, notes map[string]string, problems []string) {
	keys := make([]string, 0, len(fp))
	for k := range fp {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%s", k, fp[k])
	}
	fmt.Fprintf(out, "servebench%s\n", b.String())
	fmt.Fprintf(out, "%-8s %6s %9s %7s %7s %7s %6s %15s %6s %5s\n", "phase", "loop", "offered/s", "clients", "sent", "ok", "failed", "late_p50/p99_ms", "steal%", "valid")
	for _, r := range phases {
		loop, offered, late := "closed", "-", "-"
		if r.open {
			loop, offered = "open", fmt.Sprintf("%.0f", r.rate)
			late = fmt.Sprintf("%.3f/%.3f", quantile(r.lateMS, 0.5), quantile(r.lateMS, 0.99))
		}
		valid := "yes"
		if r.invalid() {
			valid = "NO"
		}
		fmt.Fprintf(out, "%-8s %6s %9s %7d %7d %7d %6d %15s %6.2f %5s\n", r.name, loop, offered, r.clients, r.sent, r.ok, r.failed, late, 100*r.stealFrac(), valid)
	}
	printMetrics(out, "end to end", e2e, notes)
	if layer != nil {
		printMetrics(out, "per layer", layer, nil)
	}
	for _, p := range problems {
		fmt.Fprintln(out, "WRONG:", p)
	}
}

func printMetrics(out io.Writer, title string, ms map[string]metric, notes map[string]string) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%s:\n", title)
	for _, n := range names {
		note := ""
		if notes[n] != "" {
			note = "  (" + notes[n] + ")"
		}
		fmt.Fprintf(out, "  %-30s %14.4f %s%s\n", n, ms[n].Value, ms[n].Unit, note)
	}
}

// writeRecord saves the run's fingerprint, phases and metrics as JSON under
// the output directory.
func writeRecord(cfg config, w workload, fp map[string]string, phases []*phaseResult, e2e, layer map[string]metric, problems []string) error {
	type phaseRecord struct {
		Name      string  `json:"name"`
		Open      bool    `json:"open"`
		Rate      float64 `json:"offered_per_s,omitempty"`
		Clients   int     `json:"clients"`
		WallS     float64 `json:"wall_s"`
		Sent      int     `json:"sent"`
		OK        int     `json:"ok"`
		Failed    int     `json:"failed"`
		LateP99MS float64 `json:"late_p99_ms,omitempty"`
		StealPct  float64 `json:"steal_pct"`
		Invalid   bool    `json:"invalid"`
	}
	rec := struct {
		Fingerprint map[string]string `json:"fingerprint"`
		Phases      []phaseRecord     `json:"phases"`
		EndToEnd    map[string]metric `json:"end_to_end"`
		PerLayer    map[string]metric `json:"per_layer,omitempty"`
		Problems    []string          `json:"problems"`
	}{Fingerprint: fp, EndToEnd: e2e, PerLayer: layer, Problems: problems}
	for _, r := range phases {
		pr := phaseRecord{Name: r.name, Open: r.open, Rate: r.rate, Clients: r.clients, WallS: r.wall.Seconds(),
			Sent: r.sent, OK: r.ok, Failed: r.failed, StealPct: 100 * r.stealFrac(), Invalid: r.invalid()}
		if len(r.lateMS) > 0 {
			pr.LateP99MS = quantile(r.lateMS, 0.99)
		}
		rec.Phases = append(rec.Phases, pr)
	}
	dir := filepath.Join(cfg.out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", w.name, cfg.seed, boolInt(cfg.trace)))
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing result record: %w", err)
	}
	return nil
}
