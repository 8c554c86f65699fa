package generic_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	generic "github.com/edge-hdc/generic"
)

// fitWorkers trains the same separable problem as trainXor with an
// explicit worker count.
func fitWorkers(t *testing.T, workers int) (*generic.Pipeline, [][]float64, []int) {
	t.Helper()
	var X [][]float64
	var Y []int
	for i := 0; i < 200; i++ {
		x := make([]float64, 32)
		c := i % 2
		base := 0
		if c == 1 {
			base = 16
		}
		for j := 0; j < 8; j++ {
			x[base+j] = 0.9
		}
		x[(i*7)%32] += 0.05
		X = append(X, x)
		Y = append(Y, c)
	}
	enc, err := generic.NewEncoder(generic.Generic, generic.EncoderConfig{
		D: 512, Features: 32, Lo: 0, Hi: 1, UseID: true, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := generic.NewPipeline(enc, 2)
	if _, err := p.Fit(X, Y, generic.TrainOptions{Epochs: 5, Seed: 1, Workers: workers}); err != nil {
		t.Fatal(err)
	}
	return p, X, Y
}

// The public determinism guarantee: Fit with any worker count yields a
// model bit-identical to the serial one.
func TestFitParallelBitIdentical(t *testing.T) {
	serial, _, _ := fitWorkers(t, 1)
	for _, workers := range []int{2, 4} {
		par, _, _ := fitWorkers(t, workers)
		sm, pm := serial.Model(), par.Model()
		for c := 0; c < sm.Classes(); c++ {
			sv, pv := sm.Class(c), pm.Class(c)
			for i := range sv {
				if sv[i] != pv[i] {
					t.Fatalf("workers=%d: class %d element %d differs", workers, c, i)
				}
			}
		}
	}
}

// TestPredictConcurrentSafe is the race hammer of the batch-predict
// contract. For each inference mode, scored width, worker count and batch
// size (1 through 2·workers+1, and 256), 8 goroutines share one pipeline and
// run Predict, PredictAll, PredictAllInto and Accuracy on their own slices of
// the test set; every label must equal the serial per-sample Predict oracle.
// Run under -race for the safety half: no two goroutines may ever share an
// encoder.
func TestPredictConcurrentSafe(t *testing.T) {
	p, ds := trainedEEG(t)
	if err := p.Binarize(); err != nil {
		t.Fatal(err)
	}
	X, Y := ds.TestX[:256], ds.TestY[:256]
	const goroutines = 8
	for _, mode := range []generic.Mode{generic.Exact, generic.Binary} {
		for _, dims := range []int{0, 256} {
			want := make([]int, len(X))
			for i, x := range X {
				want[i] = must(p.Predict(x, generic.WithMode(mode), generic.WithDims(dims)))
			}
			for _, workers := range []int{1, 2, 4} {
				opts := []generic.Option{generic.WithMode(mode), generic.WithDims(dims), generic.WithWorkers(workers)}
				sizes := []int{len(X)}
				for n := 1; n <= 2*workers+1; n++ {
					sizes = append(sizes, n)
				}
				for _, n := range sizes {
					errs := make(chan error, goroutines)
					var wg sync.WaitGroup
					for g := 0; g < goroutines; g++ {
						lo := (g * n) % (len(X) - n + 1)
						wg.Add(1)
						go func() {
							defer wg.Done()
							errs <- hammerBatch(p, X[lo:lo+n], Y[lo:lo+n], want[lo:lo+n], opts)
						}()
					}
					wg.Wait()
					close(errs)
					for err := range errs {
						if err != nil {
							t.Fatalf("%v dims=%d workers=%d batch=%d: %v", mode, dims, workers, n, err)
						}
					}
				}
			}
		}
	}
	// Without options a batch runs serially in the pipeline's current mode
	// (Binary after Binarize) over every dimension.
	def := must(p.PredictAll(X))
	for i, x := range X {
		if want := must(p.Predict(x, generic.WithMode(generic.Binary))); def[i] != want {
			t.Fatalf("default PredictAll[%d] = %d, binary Predict %d", i, def[i], want)
		}
	}
}

// hammerBatch runs every inference entry point on one batch and checks each
// against the serial oracle want.
func hammerBatch(p *generic.Pipeline, X [][]float64, Y, want []int, opts []generic.Option) error {
	all, err := p.PredictAll(X, opts...)
	if err != nil {
		return err
	}
	into := make([]int, len(X))
	if err := p.PredictAllInto(into, X, opts...); err != nil {
		return err
	}
	correct := 0
	for i, x := range X {
		one, err := p.Predict(x, opts...)
		if err != nil {
			return err
		}
		if all[i] != want[i] || into[i] != want[i] || one != want[i] {
			return fmt.Errorf("sample %d: PredictAll %d, PredictAllInto %d, Predict %d, serial oracle %d",
				i, all[i], into[i], one, want[i])
		}
		if want[i] == Y[i] {
			correct++
		}
	}
	acc, err := p.Accuracy(X, Y, opts...)
	if err != nil {
		return err
	}
	if wantAcc := float64(correct) / float64(len(X)); acc != wantAcc {
		return fmt.Errorf("Accuracy %v, oracle %v", acc, wantAcc)
	}
	return nil
}

func TestEncodeWorkersMatchesSerial(t *testing.T) {
	_, X, _ := fitWorkers(t, 1)
	enc, err := generic.NewEncoder(generic.Generic, generic.EncoderConfig{
		D: 512, Features: 32, Lo: 0, Hi: 1, UseID: true, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := generic.Encode(enc, X)
	got := generic.EncodeWorkers(enc, X, 4)
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("encoded sample %d element %d differs", i, j)
			}
		}
	}
}

func TestClusterWorkersBitIdentical(t *testing.T) {
	cs, err := generic.LoadClusterSet("Iris", 1)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := generic.NewEncoder(generic.Generic, generic.EncoderConfig{
		D: 1024, Features: cs.Features, Bins: 32, Lo: cs.Lo, Hi: cs.Hi,
		N: cs.Features, UseID: true, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	serial := generic.Cluster(enc, cs.X, cs.K, 5)
	par := generic.ClusterWorkers(enc, cs.X, cs.K, 5, 4)
	for i := range serial.Assignments {
		if par.Assignments[i] != serial.Assignments[i] {
			t.Fatalf("assignment %d differs: %d vs %d", i, par.Assignments[i], serial.Assignments[i])
		}
	}
}

// TestSupersededCloneIsCollectable pins that a clone nothing references is
// freed by the next GC. sync.Pool keeps a pool that has been Put to
// reachable for two GCs, so the clone's state pool must not reference the
// pipeline: serving clones it on every adapt, and clones pinned that way
// inflate the heap under an adapt stream.
func TestSupersededCloneIsCollectable(t *testing.T) {
	p, X, _ := fitWorkers(t, 1)
	c := p.Clone()
	if _, err := c.Predict(X[0]); err != nil {
		t.Fatal(err)
	}
	freed := make(chan struct{})
	runtime.SetFinalizer(c, func(*generic.Pipeline) { close(freed) })
	c = nil
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(5 * time.Second):
		t.Fatal("an unreferenced clone survived a GC: its state pool pins it")
	}
}
