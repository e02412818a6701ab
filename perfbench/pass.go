package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"dtmsvs"
)

// pass is one session of a workload, from Open to Close.
type pass struct {
	w     workload
	setup time.Duration // Open plus the prologue inside the first Step
	wall  time.Duration // Open start to Close end
	// steps holds each Step's wall time, without the prologue.
	steps     []time.Duration
	intervals int
	alloc     uint64  // runtime TotalAlloc over the session
	peakRSS   float64 // VmHWM over the session, MB
	records   []dtmsvs.TraceRecord
	digest    string // of records, once checked
	stream    []byte // what the BinarySink wrote
	accuracy  float64
	// attempted counts Steps issued; failed counts Steps that failed
	// or never ran because an earlier one failed.
	attempted, failed int
	err               error

	// Last hourly checkpoint (day-mono) and the interval it resumes
	// at, with the count and total size of the pass's checkpoints.
	ckpt             []byte
	ckptAt           int
	ckpts, ckptBytes int

	handovers       int // cumulative, at the last Step
	restarts, hbMis int // distributed recovery counters

	// Traced passes only: the interval/abstract stage total after every
	// Step, and the registry at Close.
	abstractByStep []float64
	reg            registryView
}

// runPass drives one session of w as a closed loop: Step after Step
// on this goroutine, back to back. With tr non-nil the session gets a
// metrics registry and every call into a layer is recorded as a span.
func runPass(w workload, tr *tracer, prevRecords int) *pass {
	p := &pass{w: w, records: make([]dtmsvs.TraceRecord, 0, prevRecords)}
	abort := func(err error) *pass {
		p.err = err
		p.failed = w.cfg.NumIntervals - p.intervals
		p.attempted = w.cfg.NumIntervals
		return p
	}
	var stream bytes.Buffer
	bin, err := dtmsvs.NewBinarySink(&stream)
	if err != nil {
		return abort(fmt.Errorf("binary sink: %w", err))
	}
	opts := []dtmsvs.SessionOption{dtmsvs.WithSink(bin)}
	var reg *dtmsvs.MetricsRegistry
	if tr != nil {
		reg = dtmsvs.NewMetricsRegistry()
		opts = []dtmsvs.SessionOption{dtmsvs.WithSink(&timedSink{inner: bin, tr: tr}), dtmsvs.WithMetrics(reg)}
	}
	var acc dtmsvs.AccuracyTracker
	var ckpt bytes.Buffer

	// Every pass starts from a collected heap returned to the OS, with
	// the resident high-water mark reset, so its peak is its own.
	debug.FreeOSMemory()
	resetPeakRSS()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	root := tr.begin("session")
	defer tr.end(root)
	t0 := time.Now()
	span := tr.begin("session.open")
	s, dist, err := w.open(opts...)
	openTime := time.Since(t0)
	tr.end(span)
	if err != nil {
		bin.Close()
		return abort(fmt.Errorf("open: %w", err))
	}
	p.steps = make([]time.Duration, 0, w.cfg.NumIntervals)
	for !s.Done() {
		span = tr.begin("session.step")
		ts := time.Now()
		rep, err := s.Step(context.Background())
		d := time.Since(ts)
		p.attempted++
		if err != nil {
			tr.end(span)
			abort(fmt.Errorf("step %d: %w", s.Interval(), err))
			break
		}
		if rep.PrologueDuration > 0 {
			p.setup = openTime + rep.PrologueDuration
			d -= rep.PrologueDuration
			tr.add("session.prologue", ts, rep.PrologueDuration)
		}
		tr.end(span)
		p.steps = append(p.steps, d)
		p.intervals++
		p.records = append(p.records, rep.Records...)
		p.handovers = rep.Handovers
		acc.Observe(rep)
		if reg != nil {
			p.abstractByStep = append(p.abstractByStep, stageSum(reg, "interval/abstract"))
		}
		if w.checkpointEvery > 0 && s.Interval()%w.checkpointEvery == 0 && !s.Done() {
			ckpt.Reset()
			span = tr.begin("checkpoint.encode")
			err := s.Checkpoint(&ckpt)
			tr.end(span)
			if err != nil {
				abort(fmt.Errorf("checkpoint at interval %d: %w", s.Interval(), err))
				break
			}
			p.ckptAt = s.Interval()
			p.ckptBytes += ckpt.Len()
			p.ckpts++
		}
	}
	if dist != nil {
		p.restarts = dist.WorkerRestarts()
		p.hbMis = dist.HeartbeatMisses()
	}
	span = tr.begin("session.close")
	cerr := s.Close()
	if berr := bin.Close(); cerr == nil {
		cerr = berr
	}
	tr.end(span)
	p.wall = time.Since(t0)
	p.peakRSS = peakRSSMB()
	runtime.ReadMemStats(&ms)
	p.alloc = ms.TotalAlloc - alloc0
	if reg != nil {
		p.reg = readRegistry(reg)
	}
	if p.err == nil && cerr != nil {
		p.err = fmt.Errorf("close: %w", cerr)
	}
	p.stream = stream.Bytes()
	p.ckpt = ckpt.Bytes()
	if a, err := acc.RadioAccuracy(); err == nil {
		p.accuracy = a
	} else if p.err == nil {
		p.err = fmt.Errorf("radio accuracy: %w", err)
	}
	return p
}

// userIntervalsPerS is the pass's work rate outside set-up.
func (p *pass) userIntervalsPerS() float64 {
	return ratio(float64(p.w.cfg.NumUsers*p.intervals), (p.wall - p.setup).Seconds())
}

// release drops the pass's trace, stream and checkpoint.
func (p *pass) release() {
	p.records, p.stream, p.ckpt = nil, nil, nil
}

// check runs the per-pass output checks: the streamed bin trace
// decodes to the records the Steps returned, and those records pass
// checkRecords.
func (p *pass) check() error {
	if p.err != nil {
		return p.err
	}
	if err := checkStream(p.stream, p.records); err != nil {
		return err
	}
	return checkRecords(p.records, p.w.cfg.NumIntervals, p.w.cfg.NumUsers)
}

// checkResume resumes the pass's last checkpoint, steps the remaining
// intervals and requires their records to be byte-identical to the
// suffix the uninterrupted session streamed. It returns the number of
// Steps it issued.
func (p *pass) checkResume() (int, error) {
	w := p.w
	if w.checkpointEvery == 0 {
		return 0, nil
	}
	if p.ckptAt == 0 {
		return 0, fmt.Errorf("no checkpoint was taken")
	}
	var stream bytes.Buffer
	bin, err := dtmsvs.NewBinarySink(&stream)
	if err != nil {
		return 0, err
	}
	s, err := dtmsvs.Resume(w.cfg, bytes.NewReader(p.ckpt), dtmsvs.WithSink(bin))
	if err != nil {
		bin.Close()
		return 0, fmt.Errorf("resume at interval %d: %w", p.ckptAt, err)
	}
	steps := 0
	var got []dtmsvs.TraceRecord
	for !s.Done() {
		rep, err := s.Step(context.Background())
		steps++
		if err != nil {
			s.Close()
			bin.Close()
			return steps, fmt.Errorf("resumed step %d: %w", s.Interval(), err)
		}
		got = append(got, rep.Records...)
	}
	cerr := s.Close()
	if berr := bin.Close(); cerr == nil {
		cerr = berr
	}
	if cerr != nil {
		return steps, fmt.Errorf("close resumed session: %w", cerr)
	}
	if err := checkStream(stream.Bytes(), got); err != nil {
		return steps, fmt.Errorf("resumed session: %w", err)
	}
	first := len(p.records)
	for i, r := range p.records {
		if r.Interval >= p.ckptAt {
			first = i
			break
		}
	}
	if !bytes.Equal(encodeRecords(got), encodeRecords(p.records[first:])) {
		return steps, fmt.Errorf("records resumed from interval %d differ from the streamed suffix", p.ckptAt)
	}
	return steps, nil
}

// probeSetup opens a session, runs the first Step (which carries the
// prologue) and closes it, returning the set-up time: the Open call
// plus the prologue the Step reports.
func probeSetup(w workload) (time.Duration, error) {
	t0 := time.Now()
	s, _, err := w.open(dtmsvs.WithSink(dtmsvs.DiscardSink{}))
	if err != nil {
		return 0, fmt.Errorf("open: %w", err)
	}
	open := time.Since(t0)
	rep, err := s.Step(context.Background())
	if cerr := s.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	return open + rep.PrologueDuration, nil
}
