package main

import (
	"fmt"
	"path/filepath"
	"time"

	generic "github.com/edge-hdc/generic"
)

// layerInputs carries what the untraced and traced phases measured into
// the per-layer computation.
type layerInputs struct {
	opens, measured []*phaseResult
	traced          *phaseResult
	adaptSent       int64    // requests of the adapt-only stream sent; 0 for a mixed workload
	predictP50MS    float64  // untraced end-to-end predict median
	handler         counters // /metrics deltas over the open-loop phases
	c0, cEnd        counters // /metrics at the start and the end of the run
	fitS            []float64
	S               time.Duration
}

// layerMetrics replays the traced run's request stream in-process and
// derives the per-layer metrics from its spans. Mismatches between layers
// are appended to problems.
func layerMetrics(w workload, modelPath, dir string, st *stream, chk *checker, epoch time.Time, in layerInputs, problems *[]string) (map[string]metric, error) {
	rp, err := newReplayer(w, modelPath, dir, chk, epoch)
	if err != nil {
		return nil, err
	}
	budget := share(in.S, replayShare)
	if in.adaptSent == 0 {
		err = rp.run(st.at, int64(in.traced.sent), budget)
	} else {
		// The predict stream, then the adapt-only stream, as the daemon saw.
		err = rp.run(st.at, int64(in.traced.sent), budget*3/5)
		if err == nil {
			err = rp.run(st.adaptAt, in.adaptSent, budget*2/5)
		}
	}
	if cerr := rp.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if err := writeSpans(filepath.Join(dir, "..", "replay-spans.jsonl"), rp.tr.spans); err != nil {
		return nil, err
	}
	if rp.mismatches > 0 {
		*problems = append(*problems, fmt.Sprintf("replay: %d layer disagreements, first: %s", rp.mismatches, rp.firstMismatch))
	}

	lt := layerTimes(rp.tr.spans)
	served := [2]string{"encoding.encode", "classifier.score"}
	if w.binary {
		served = [2]string{"encoding.encode_bin", "classifier.score_bin"}
	}
	perCall := func(xs []float64) []float64 {
		for i := range xs {
			xs[i] /= float64(w.batch)
		}
		return xs
	}
	pipelineSelf := perCall(perRequest(rp.tr.spans, []string{"pipeline.predict"}, served[:]))
	observe := perCall(perRequest(rp.tr.spans, []string{served[1]}, []string{"classifier.margin"}))

	var sent, ok, failed int
	for _, r := range in.measured {
		sent += r.sent
		ok += r.ok
		failed += r.failed
	}
	handlerMean := float64(in.handler.predictSumNS) / float64(in.handler.predictCount) / 1e3
	var late []float64
	for _, r := range in.opens {
		late = append(late, r.lateMS...)
	}

	decode, encode := median(lt["http.decode"]), median(lt["http.encode"])
	tracedLat := in.traced.latency(false)
	e2eP50 := in.predictP50MS * 1e3
	path := median(lt["pipeline.predict"])
	if w.batch > 1 {
		path = median(lt["pipeline.predict_all"])
	}

	enc, err := generic.LoadPipelineFile(modelPath)
	if err != nil {
		return nil, err
	}
	ecfg := enc.Encoder().Config()
	encodeP99, _, _ := tailQuantile(lt["encoding.encode"], 0.99)
	predictP99, _, _ := tailQuantile(lt["pipeline.predict"], 0.99)
	adaptP99, _, _ := tailQuantile(lt["serve.adapt"], 0.99)

	return map[string]metric{
		"load.late_p99_ms": {quantile(late, 0.99), "ms"},
		"load.sent":        {float64(sent), "count"},
		"load.ok":          {float64(ok), "count"},
		"load.failed":      {float64(failed), "count"},

		"http.decode_us_p50":   {decode, "us"},
		"http.encode_us_p50":   {encode, "us"},
		"http.handler_mean_us": {handlerMean, "us"},
		"http.residual_us":     {residual(e2eP50, decode, path, encode), "us"},
		"http.shed":            {float64(in.cEnd.shed - in.c0.shed), "count"},

		"pipeline.predict_us_p50":     {median(lt["pipeline.predict"]), "us"},
		"pipeline.predict_us_p99":     {predictP99, "us"},
		"pipeline.self_us":            {median(pipelineSelf), "us"},
		"pipeline.predict_all_ms_p50": {median(lt["pipeline.predict_all"]) / 1e3, "ms"},
		"pipeline.clone_us_p50":       {median(lt["pipeline.clone"]), "us"},
		"pipeline.fit_s":              {median(in.fitS), "s"},

		"modelio.load_ms": {median(lt["modelio.load"]) / 1e3, "ms"},

		"encoding.encode_us_p50":     {median(lt["encoding.encode"]), "us"},
		"encoding.encode_us_p99":     {encodeP99, "us"},
		"encoding.encode_bin_us_p50": {median(lt["encoding.encode_bin"]), "us"},
		"encoding.windows_per_call":  {float64(ecfg.Features - ecfg.N + 1), "count"},

		"classifier.score_us_p50":     {median(lt["classifier.score"]), "us"},
		"classifier.score_bin_us_p50": {median(lt["classifier.score_bin"]), "us"},

		"quality.observe_us": {median(observe), "us"},

		"serve.adapt_us_p50":       {median(lt["serve.adapt"]), "us"},
		"serve.adapt_us_p99":       {adaptP99, "us"},
		"serve.wal_append_us_p50":  {median(lt["serve.wal_append"]), "us"},
		"serve.adapt_updated_frac": {float64(rp.updated) / float64(rp.adapts), "ratio"},
		"trace.overhead_ms":        {median(tracedLat) - in.predictP50MS, "ms"},
		"replay.requests":          {float64(rp.requests), "count"},
	}, nil
}
