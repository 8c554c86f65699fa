package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"syscall"
	"time"

	generic "github.com/edge-hdc/generic"
)

// buildModel trains and saves the workload's model through the public calls
// generic-train makes, returning how long Fit took.
func buildModel(w workload, seed uint64, path string) (time.Duration, error) {
	ds, err := generic.LoadDataset(w.dataset, datasetSeed)
	if err != nil {
		return 0, err
	}
	enc, err := generic.EncoderForDataset(generic.Generic, ds, w.d, seed)
	if err != nil {
		return 0, err
	}
	p := generic.NewPipeline(enc, ds.Classes)
	start := time.Now()
	if _, err := p.Fit(ds.TrainX, ds.TrainY, generic.TrainOptions{Epochs: 20, Seed: seed}); err != nil {
		return 0, err
	}
	fit := time.Since(start)
	if w.binary {
		if err := p.Binarize(); err != nil {
			return 0, err
		}
	}
	return fit, p.SaveFile(path)
}

// daemon is a running generic-serve process.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	log  *os.File
	done chan error // receives the process's exit once
}

// startDaemon launches generic-serve on the model file with a fresh durable
// state directory and waits until /readyz answers 200.
//
// The WAL runs with -wal-sync none and the daemon checkpoints only at
// shutdown (-checkpoint-every 0): fsync on a shared host measures the disk,
// not the program, and a checkpoint fsyncs while every adapt waits on it.
// The scrub loop is off because it publishes model snapshots on a timer,
// which would break the snapshot-count oracle.
//
// The daemon runs at nice 5 so that, sharing the CPUs with the load
// generator, it does not delay the generator's sends and response reads:
// with clients on other machines those would not wait for the server's CPU.
func startDaemon(bin, model, stateDir, logPath string) (*daemon, error) {
	if err := os.RemoveAll(stateDir); err != nil {
		return nil, err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command("nice", "-n", "5", bin,
		"-addr", addr, "-model", model,
		"-state-dir", stateDir, "-wal-sync", "none", "-checkpoint-every", "0",
		"-scrub-every", "0")
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon must not outlive the benchmark, however the benchmark ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	d := &daemon{cmd: cmd, addr: addr, log: logf, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()
	if err := d.waitReady(30 * time.Second); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

func (d *daemon) waitReady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	c := newConn(d.addr, time.Second)
	defer c.close()
	wire := []byte("GET /readyz HTTP/1.1\r\nHost: servebench\r\n\r\n")
	for time.Now().Before(deadline) {
		select {
		case err := <-d.done:
			d.done <- err
			return fmt.Errorf("generic-serve exited before becoming ready: %v (log: %s)", err, d.log.Name())
		default:
		}
		if status, _, err := c.do(wire); err == nil && status == 200 {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return errors.New("generic-serve not ready after " + limit.String())
}

// stop sends SIGTERM (the daemon drains and checkpoints), waits for the
// exit, and kills the process if it has not exited after 15 s.
func (d *daemon) stop() error {
	defer d.log.Close()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.done:
		return err
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
		return errors.New("generic-serve did not drain within 15s; killed")
	}
}

// get fetches a small JSON endpoint.
func (d *daemon) get(path string, v any) error {
	c := newConn(d.addr, 5*time.Second)
	defer c.close()
	status, body, err := c.do([]byte("GET " + path + " HTTP/1.1\r\nHost: servebench\r\n\r\n"))
	if err != nil {
		return err
	}
	if status != 200 {
		return fmt.Errorf("GET %s: status %d: %s", path, status, body)
	}
	return json.Unmarshal(body, v)
}

type health struct {
	SnapshotVersion uint64 `json:"snapshot_version"`
	WALSeq          uint64 `json:"wal_seq"`
}

// counters is the part of the daemon's /metrics snapshot the benchmark uses.
type counters struct {
	predictCount, predictSumNS int64
	shed                       int64
}

func (d *daemon) counters() (counters, error) {
	var m map[string]json.RawMessage
	if err := d.get("/metrics", &m); err != nil {
		return counters{}, err
	}
	var h struct {
		Count int64 `json:"count"`
		Sum   int64 `json:"sum_ns"`
	}
	if err := json.Unmarshal(m["serve_predict_ns"], &h); err != nil {
		return counters{}, fmt.Errorf("/metrics serve_predict_ns: %w", err)
	}
	c := counters{predictCount: h.Count, predictSumNS: h.Sum}
	if err := json.Unmarshal(m["serve_shed_total"], &c.shed); err != nil {
		return counters{}, fmt.Errorf("/metrics serve_shed_total: %w", err)
	}
	return c, nil
}
