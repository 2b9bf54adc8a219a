package main

import (
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"kvcc/server"
)

// outcome is what one operation reports back to the load generator.
type outcome struct {
	edit     bool // an edit batch rather than a query
	class    int  // op class: latency percentiles are taken per class
	err      error
	wrong    bool // the response disagreed with the expected output
	degraded bool // a read served from a previous graph version
	rung     string
	bytes    int
	// reused and recomputed count the k-core components a computed read
	// served from its incremental seed and enumerated afresh.
	reused, recomputed int64
	// check, when set, compares the output with the expected one. The
	// loop calls it after the op's latency is taken, so checking costs
	// the op nothing; false marks the op wrong.
	check func() bool
}

// finish turns an outcome into a record, running its output check.
func finish(out outcome, latencyMS, lagMS float64) record {
	if out.err == nil && out.check != nil && !out.check() {
		out.wrong = true
	}
	out.check = nil
	return record{outcome: out, latencyMS: latencyMS, lagMS: lagMS}
}

// record is one timed operation: latency counts from the moment the op
// was due (open loop) or started (closed loop); lag is how late the
// generator sent it.
type record struct {
	outcome
	latencyMS float64
	lagMS     float64
}

// failureKind classifies a failed op for the error breakdown: shed by
// admission control (429/503), timed out, or any other failure.
func failureKind(err error) string {
	var ae *server.APIError
	if errors.As(err, &ae) {
		switch ae.Status {
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			return "shed"
		case http.StatusGatewayTimeout:
			return "timeout"
		}
	}
	if errors.Is(err, server.ErrOverloaded) {
		return "shed"
	}
	return "failed"
}

// loopResult is one timed phase: every record plus its wall time.
type loopResult struct {
	records []record
	wall    time.Duration
}

// closedLoop runs op back to back from one caller until d has elapsed,
// at least minPasses passes of pass ops have run, and the op count is a
// whole number of passes, so a slow system receives less load and every
// op of a pass is equally often in the sample. before, when set, runs
// ahead of each op outside its latency and outside the wall time: the
// benchmark's own preparation, such as evicting files from the page
// cache.
func closedLoop(d time.Duration, pass, minPasses int, before func(i int) error, op func(i int) outcome) (loopResult, error) {
	var recs []record
	var wall time.Duration
	for i := 0; wall < d || i < minPasses*pass || i%pass != 0; i++ {
		if before != nil {
			if err := before(i); err != nil {
				return loopResult{}, err
			}
		}
		t0 := time.Now()
		out := op(i)
		wall += time.Since(t0)
		recs = append(recs, finish(out, msSince(t0), 0))
	}
	return loopResult{records: recs, wall: wall}, nil
}

// saturate runs op back to back from workers goroutines, each taking the
// next op index as soon as its previous op returns, until d has elapsed:
// the closed loop at full load that measures a serving workload's
// capacity.
func saturate(d time.Duration, workers int, op func(worker, i int) outcome) loopResult {
	var mu sync.Mutex
	var recs []record
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				i := int(next.Add(1) - 1)
				t0 := time.Now()
				out := op(w, i)
				rec := finish(out, msSince(t0), 0)
				mu.Lock()
				recs = append(recs, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return loopResult{records: recs, wall: time.Since(start)}
}

// openLoop sends n ops on a fixed schedule, one every interval, from
// workers goroutines, whatever the system's state: a stall delays the
// ops behind it, and each op is timed from when it was due, so the
// stall's cost is counted. worker identifies the calling goroutine, so
// ops can keep per-worker connections.
func openLoop(n int, interval time.Duration, workers int, op func(worker, i int) outcome) loopResult {
	recs := make([]record, n)
	start := time.Now().Add(5 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				lag := msSince(due)
				out := op(w, i)
				recs[i] = finish(out, msSince(due), lag)
			}
		}()
	}
	wg.Wait()
	return loopResult{records: recs, wall: time.Since(start)}
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t)) / float64(time.Millisecond)
}
