// Command servebench is the repository's end-to-end benchmark: it trains a
// model for one workload, serves it with the real generic-serve binary,
// drives HTTP load at it from this one process, checks every answer, and
// reports end-to-end metrics or, with --trace 1, per-layer metrics from an
// in-process replay of the same request stream.
//
//	bash servebench/run.sh --workload exact-eeg-single --seed 1 --seconds 20 --trace 0
//
// run.sh builds both binaries from the checkout it is started in; the last
// line of standard output is one JSON object with the result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	generic "github.com/edge-hdc/generic"
)

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	serveBin string
	out      string // directory for run files and result records
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed for the model and the request stream")
	flag.IntVar(&cfg.seconds, "seconds", 28, "planned seconds of measured load")
	flag.IntVar(&trace, "trace", 0, "1: also run the traced run and report per-layer metrics")
	flag.StringVar(&cfg.serveBin, "serve-bin", ".bench_build/bin/generic-serve", "generic-serve binary")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for run files and result records")
	flag.Parse()
	cfg.trace = trace == 1
	if trace != 0 && trace != 1 || cfg.seconds < 1 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "servebench: want --workload NAME --seed N --seconds S(>=1) --trace 0|1")
		os.Exit(2)
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Phase lengths as shares of --seconds. The open loop gets the larger share
// of each round because its latency percentiles need the most samples.
const (
	rounds       = 8
	openShare    = 0.6 // of each round; the rest is the closed loop
	adaptShare   = 0.2 // trailing adapt-only phase of workloads without a mix
	tracedShare  = 0.25
	replayShare  = 0.25
	setups       = 5
	warmupPeriod = 500 * time.Millisecond
)

// run executes one benchmark run and returns its result; an error means the
// run could not be made, not that an answer was wrong.
func run(cfg config, out io.Writer) (*result, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(cfg.serveBin); err != nil {
		return nil, fmt.Errorf("generic-serve binary: %w", err)
	}
	fp := fingerprint(cfg)
	dir := filepath.Join(cfg.out, "run", fmt.Sprintf("%s-seed%d-trace%d", w.name, cfg.seed, boolInt(cfg.trace)))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	modelPath := filepath.Join(dir, "model.ghdc")
	stateDir := filepath.Join(dir, "state")
	S := time.Duration(cfg.seconds) * time.Second

	// Set-up, several times: model build through the first /readyz 200.
	var setupS, fitS []float64
	var d *daemon
	for k := 0; k < setups; k++ {
		start := time.Now()
		fit, err := buildModel(w, cfg.seed, modelPath)
		if err != nil {
			return nil, fmt.Errorf("building model: %w", err)
		}
		d, err = startDaemon(cfg.serveBin, modelPath, stateDir, filepath.Join(dir, fmt.Sprintf("daemon-%d.log", k)))
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
		fitS = append(fitS, fit.Seconds())
		if k < setups-1 {
			if err := d.stop(); err != nil {
				return nil, fmt.Errorf("stopping set-up daemon: %w", err)
			}
		}
	}
	stopped := false
	defer func() {
		if !stopped {
			d.stop()
		}
	}()

	ds, err := generic.LoadDataset(w.dataset, datasetSeed)
	if err != nil {
		return nil, err
	}
	chk := &checker{classes: ds.Classes, Y: ds.TestY}
	if w.adaptFrac == 0 {
		// Predict phases run before any adapt, so the served model is the
		// file's: every label must equal the in-process batch path's.
		p, err := generic.LoadPipelineFile(modelPath)
		if err != nil {
			return nil, err
		}
		if chk.oracle, err = p.PredictAll(ds.TestX); err != nil {
			return nil, err
		}
	}
	st := newStream(w, cfg.seed, ds.TestX, ds.TestY)
	epoch := time.Now()
	clients := runtime.NumCPU()

	var phases []*phaseResult
	do := func(ph phase, first int64) *phaseResult {
		r := runPhase(ph, d.addr, st, chk, first, epoch)
		phases = append(phases, r)
		return r
	}
	c0, err := d.counters()
	if err != nil {
		return nil, err
	}
	do(phase{name: "warmup", dur: warmupPeriod, clients: clients}, 0)

	// Rounds of an open-loop then a closed-loop phase. A round during which
	// the hypervisor stole more than stealLimit of the CPU is set aside and
	// another run in its place while the stretched budget lasts; the metrics
	// summarise the clean rounds with bestQuarter.
	predictS := S
	if w.adaptFrac == 0 {
		predictS = S - share(S, adaptShare)
	}
	var handler counters // /metrics deltas over the open-loop phases
	var next int64
	var scrapeErr error
	scrape := func() counters {
		c, err := d.counters()
		if err != nil && scrapeErr == nil {
			scrapeErr = err
		}
		return c
	}
	predictRounds := runRounds(predictS, func(k int) []*phaseResult {
		before := scrape()
		o := do(phase{name: fmt.Sprintf("open-%d", k), open: true, rate: w.openRate, dur: share(predictS, openShare/rounds), clients: clients}, next)
		after := scrape()
		handler.predictCount += after.predictCount - before.predictCount
		handler.predictSumNS += after.predictSumNS - before.predictSumNS
		next += int64(o.sent)
		c := do(phase{name: fmt.Sprintf("closed-%d", k), dur: share(predictS, (1-openShare)/rounds), clients: clients}, next)
		next += int64(c.sent)
		return []*phaseResult{o, c}
	})
	if scrapeErr != nil {
		return nil, scrapeErr
	}
	var traced *phaseResult
	if cfg.trace {
		// The traced run resends the stream from its start, so the replay
		// below re-runs exactly the requests the daemon answered first.
		traced = do(phase{name: "traced", open: true, rate: w.openRate, dur: share(S, tracedShare), clients: clients, trace: true}, 0)
	}
	var adaptRounds roundSet
	var adaptSent int64
	if w.adaptFrac == 0 {
		// Adapts change the model, so they come after every predict has been
		// checked against the model file.
		adaptS := share(S, adaptShare)
		adaptRounds = runRounds(adaptS, func(k int) []*phaseResult {
			a := do(phase{name: fmt.Sprintf("adapt-%d", k), open: true, rate: w.adaptRate, dur: adaptS / rounds, clients: clients, adaptOnly: true, trace: cfg.trace}, adaptSent)
			adaptSent += int64(a.sent)
			return []*phaseResult{a}
		})
	}

	// Durability oracle: every acknowledged adapt is one WAL record and one
	// published snapshot, and nothing else published one.
	var h health
	if err := d.get("/healthz", &h); err != nil {
		return nil, err
	}
	cEnd, err := d.counters()
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	stopped = true
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("stopping daemon: %w", err)
	}

	var problems []string
	acked := 0
	for _, r := range phases {
		acked += r.adaptsAcked
		if r.mismatches > 0 {
			problems = append(problems, fmt.Sprintf("%s phase: %d wrong answers, first: %s", r.name, r.mismatches, r.firstMismatch))
		}
	}
	if h.WALSeq != uint64(acked) || h.SnapshotVersion-1 != uint64(acked) {
		problems = append(problems, fmt.Sprintf("%d adapts acknowledged, but /healthz reports wal_seq %d and snapshot_version %d",
			acked, h.WALSeq, h.SnapshotVersion))
	}

	measured := append(predictRounds.phases(), adaptRounds.phases()...)
	res := &result{}
	var sent, ok, labelled, groundTrue int
	for _, r := range measured {
		res.Attempted += r.sent
		res.Failed += r.failed + r.mismatches
		sent += r.sent
		ok += r.ok
		labelled += r.labelled
		groundTrue += r.groundTrue
	}
	var predictParts, adaptParts [][]float64
	var capacity []float64
	for _, rd := range predictRounds.used() {
		open, closed := rd[0], rd[1]
		predictParts = append(predictParts, open.latency(false))
		if w.adaptFrac > 0 {
			adaptParts = append(adaptParts, open.latency(true))
		}
		capacity = append(capacity, float64(closed.classified)/closed.wall.Seconds())
	}
	for _, rd := range adaptRounds.used() {
		adaptParts = append(adaptParts, rd[0].latency(true))
	}
	pP50, pP75, pAt, pK, pN := overParts(predictParts, tailAt)
	aP50, aP75, aAt, aK, aN := overParts(adaptParts, tailAt)
	notes := map[string]string{
		"predict_p50_ms": fmt.Sprintf("lower quartile of %d parts, n=%d; %s", pK, pN, predictRounds),
		"predict_p75_ms": fmt.Sprintf("lower quartile of %d parts' p%g; pooled %s", pK, pAt*100, pooledTail(predictParts)),
		"adapt_p50_ms": fmt.Sprintf("lower quartile of %d parts, n=%d; p%g %.4f ms; pooled %s",
			aK, aN, aAt*100, aP75, pooledTail(adaptParts)),
		"capacity_samples_per_s": fmt.Sprintf("upper quartile of %d rounds, %d clients", len(capacity), clients),
	}
	if w.adaptFrac == 0 {
		notes["adapt_p50_ms"] += "; " + adaptRounds.String()
	}
	e2e := map[string]metric{
		"setup_s":                {median(setupS), "s"},
		"predict_p50_ms":         {pP50, "ms"},
		"predict_p75_ms":         {pP75, "ms"},
		"adapt_p50_ms":           {aP50, "ms"},
		"capacity_samples_per_s": {quantile(capacity, 1-bestQuarter), "1/s"},
		"ok_frac":                {float64(ok) / float64(sent), "ratio"},
		"accuracy":               {float64(groundTrue) / float64(labelled), "ratio"},
		"server_rss_mb":          {rss, "MB"},
	}

	var layer map[string]metric
	if cfg.trace {
		layer, err = layerMetrics(w, modelPath, filepath.Join(dir, "replay"), st, chk, epoch,
			layerInputs{opens: predictRounds.opens(), traced: traced, adaptSent: adaptSent, measured: measured,
				predictP50MS: pP50, handler: handler, c0: c0, cEnd: cEnd, fitS: fitS, S: S},
			&problems)
		if err != nil {
			return nil, err
		}
		var spans []span
		for _, r := range phases {
			spans = mergeSpans(spans, r.spans)
		}
		if err := writeSpans(filepath.Join(dir, "client-spans.jsonl"), spans); err != nil {
			return nil, err
		}
		res.Metrics = layer
	} else {
		res.Metrics = e2e
	}
	for _, ms := range []map[string]metric{e2e, layer} {
		for name, m := range ms {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				return nil, fmt.Errorf("metric %s has no value (too few samples)", name)
			}
		}
	}
	res.Correct = len(problems) == 0

	report(out, fp, phases, e2e, layer, notes, problems)
	return res, writeRecord(cfg, w, fp, phases, e2e, layer, problems)
}

func share(S time.Duration, f float64) time.Duration { return time.Duration(float64(S) * f) }

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
