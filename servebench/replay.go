package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	generic "github.com/edge-hdc/generic"
	"github.com/edge-hdc/generic/internal/classifier"
	"github.com/edge-hdc/generic/internal/encoding"
	"github.com/edge-hdc/generic/internal/hdc"
	"github.com/edge-hdc/generic/internal/serve"
)

// The handler's request shapes, decoded exactly as cmd/generic-serve does.
type servedPredictRequest struct {
	X  []float64   `json:"x,omitempty"`
	Xs [][]float64 `json:"xs,omitempty"`
}

type servedPredictResponse struct {
	Label  *int  `json:"label,omitempty"`
	Labels []int `json:"labels,omitempty"`
}

type servedAdaptRequest struct {
	X     []float64 `json:"x"`
	Label int       `json:"label"`
}

type servedAdaptResponse struct {
	Pred    int  `json:"pred"`
	Updated bool `json:"updated"`
}

// replayer re-runs requests of the traced stream in-process, one at a time,
// with one span around each call into a layer's exported function. It
// serves from its own serving core, opened on the same model file with the
// daemon's WAL policy, so adapts evolve the model as they do in the daemon.
type replayer struct {
	w       workload
	tr      *tracer
	chk     *checker
	core    *serve.Core
	wal     *serve.WAL
	walSeq  uint64
	enc     generic.Encoder
	benc    encoding.BinaryEncoder
	vec     hdc.Vec
	bv      *hdc.BinVec
	workers int

	// offPath is a binarized copy of an exact model, so the binary kernels
	// are timed on every workload's inputs; exact workloads never serve it.
	offPath *classifier.BinaryModel

	requests, adapts, updated int
	mismatches                int
	firstMismatch             string
}

func newReplayer(w workload, modelPath, dir string, chk *checker, epoch time.Time) (*replayer, error) {
	tr := newTracer(epoch, 1<<16)
	var p *generic.Pipeline
	for k := 0; k < 5; k++ {
		s := tr.begin(-1, -1, "modelio.load")
		var err error
		p, err = generic.LoadPipelineFile(modelPath)
		tr.end(s)
		if err != nil {
			return nil, err
		}
	}
	mc, ok := p.Encoder().(encoding.MaterialCloner)
	if !ok {
		return nil, errors.New("encoder cannot clone its material")
	}
	enc := mc.CloneMaterial()
	benc, ok := encoding.AsBinary(enc)
	if !ok {
		return nil, errors.New("encoder has no binary path")
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	core, err := serve.Open(p, serve.Options{Dir: filepath.Join(dir, "core"), Sync: serve.SyncNone, CheckpointEvery: 1024})
	if err != nil {
		return nil, err
	}
	wal, _, _, err := serve.OpenWAL(filepath.Join(dir, "append.wal"), serve.SyncNone)
	if err != nil {
		core.Close()
		return nil, err
	}
	r := &replayer{
		w: w, tr: tr, chk: chk, core: core, wal: wal,
		enc: enc, benc: benc,
		vec: hdc.NewVec(enc.D()), bv: hdc.NewBinVec(enc.D()),
		workers: runtime.GOMAXPROCS(0),
	}
	if !w.binary {
		r.offPath = classifier.Binarize(p.Model())
	}
	return r, nil
}

func (r *replayer) close() error {
	err := r.core.Close()
	if werr := r.wal.Close(); err == nil {
		err = werr
	}
	return err
}

// run replays reqs in order until they are exhausted or budget has passed.
func (r *replayer) run(reqs func(int64) request, n int64, budget time.Duration) error {
	stop := time.Now().Add(budget)
	for i := int64(0); i < n && time.Now().Before(stop); i++ {
		req := reqs(i)
		var err error
		if req.adapt {
			err = r.adapt(req)
		} else {
			err = r.predict(req)
		}
		if err != nil {
			return err
		}
		r.requests++
	}
	return nil
}

func (r *replayer) mismatch(format string, args ...any) {
	r.mismatches++
	if r.firstMismatch == "" {
		r.firstMismatch = fmt.Sprintf(format, args...)
	}
}

func (r *replayer) predict(req request) error {
	tr, id := r.tr, req.id
	root := tr.begin(id, -1, "replay.request")
	rid := tr.spans[root].id

	s := tr.begin(id, rid, "http.decode")
	var in servedPredictRequest
	dec := json.NewDecoder(bytes.NewReader(body(req.wire)))
	dec.DisallowUnknownFields()
	err := dec.Decode(&in)
	tr.end(s)
	if err != nil {
		return fmt.Errorf("replay request %d: %w", id, err)
	}
	xs := in.Xs
	if in.X != nil {
		xs = [][]float64{in.X}
	}

	p := r.core.Current().Pipeline
	D := p.Model().D()
	bm := p.BinaryModel()
	if bm == nil {
		bm = r.offPath
	}
	served := make([]int, len(xs))
	var all []int
	pipeline := func() error {
		for k, x := range xs {
			s := tr.begin(id, rid, "pipeline.predict")
			lab, _, err := p.PredictMargin(x)
			tr.end(s)
			if err != nil {
				return err
			}
			served[k] = lab
		}
		s := tr.begin(id, rid, "pipeline.predict_all")
		var err error
		all, err = p.PredictAll(xs, generic.WithWorkers(r.workers))
		tr.end(s)
		return err
	}
	kernels := make([]int, len(xs))
	layers := func() {
		for k, x := range xs {
			s := tr.begin(id, rid, "encoding.encode")
			r.enc.Encode(x, r.vec)
			tr.end(s)
			s = tr.begin(id, rid, "classifier.score")
			exact, _, _ := p.Model().PredictDimsMargin(r.vec, D, true)
			tr.end(s)
			s = tr.begin(id, rid, "encoding.encode_bin")
			r.benc.EncodeBin(x, r.bv)
			tr.end(s)
			s = tr.begin(id, rid, "classifier.score_bin")
			bin, _, _ := bm.PredictDimsMargin(r.bv, D)
			tr.end(s)
			// The non-observing scorer on the served path's query: the
			// difference to the observing call above is the observation.
			s = tr.begin(id, rid, "classifier.margin")
			if r.w.binary {
				bm.MarginDims(r.bv, D)
				kernels[k] = bin
			} else {
				p.Model().MarginDims(r.vec, D)
				kernels[k] = exact
			}
			tr.end(s)
		}
	}
	// Alternate which calls see the input first, so neither side is always
	// the one running on caches the other warmed.
	if id%2 == 0 {
		err = pipeline()
		layers()
	} else {
		layers()
		err = pipeline()
	}
	if err != nil {
		return fmt.Errorf("replay request %d: %w", id, err)
	}

	s = tr.begin(id, rid, "http.encode")
	var resp servedPredictResponse
	if in.X != nil {
		resp.Label = &served[0]
	} else {
		resp.Labels = all
	}
	var buf bytes.Buffer
	err = json.NewEncoder(&buf).Encode(resp)
	tr.end(s)
	tr.end(root)
	if err != nil {
		return err
	}

	for k := range xs {
		switch {
		case kernels[k] != served[k]:
			r.mismatch("replay request %d sample %d: encode+score label %d, PredictMargin label %d", id, k, kernels[k], served[k])
		case all[k] != served[k]:
			r.mismatch("replay request %d sample %d: PredictAll label %d, PredictMargin label %d", id, k, all[k], served[k])
		case r.chk.oracle != nil && served[k] != r.chk.oracle[req.samples[k]]:
			r.mismatch("replay request %d sample %d: label %d, model file says %d", id, k, served[k], r.chk.oracle[req.samples[k]])
		}
	}
	return nil
}

func (r *replayer) adapt(req request) error {
	tr, id := r.tr, req.id
	root := tr.begin(id, -1, "replay.request")
	rid := tr.spans[root].id

	s := tr.begin(id, rid, "http.decode_adapt")
	var in servedAdaptRequest
	dec := json.NewDecoder(bytes.NewReader(body(req.wire)))
	dec.DisallowUnknownFields()
	err := dec.Decode(&in)
	tr.end(s)
	if err != nil {
		return fmt.Errorf("replay request %d: %w", id, err)
	}

	s = tr.begin(id, rid, "pipeline.clone")
	_ = r.core.Current().Pipeline.Clone()
	tr.end(s)

	s = tr.begin(id, rid, "serve.adapt")
	pred, updated, err := r.core.Adapt(in.X, in.Label)
	tr.end(s)
	if err != nil {
		return fmt.Errorf("replay request %d: %w", id, err)
	}

	r.walSeq++
	s = tr.begin(id, rid, "serve.wal_append")
	err = r.wal.Append(serve.Record{Seq: r.walSeq, Label: in.Label, X: in.X})
	tr.end(s)
	if err != nil {
		return fmt.Errorf("replay request %d: %w", id, err)
	}

	s = tr.begin(id, rid, "http.encode_adapt")
	var buf bytes.Buffer
	err = json.NewEncoder(&buf).Encode(servedAdaptResponse{Pred: pred, Updated: updated})
	tr.end(s)
	tr.end(root)
	if err != nil {
		return err
	}
	if pred < 0 || pred >= r.chk.classes {
		r.mismatch("replay request %d: adapt pred %d out of range", id, pred)
	}
	r.adapts++
	if updated {
		r.updated++
	}
	return nil
}
