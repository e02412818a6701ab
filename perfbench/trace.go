package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dtmsvs"
)

// span is one timed call the benchmark made into a layer of the
// program. Spans are recorded only from the benchmark's own code,
// around public calls; the program itself carries no span.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the tracer's spans; -1 for a root
	Pass   int    `json:"pass"`   // which session of the run
}

// tracer keeps the spans of one traced run in memory. All spans are
// opened and closed on the stepping goroutine, so the open spans form
// a stack and each new span's parent is the innermost open one. A nil
// tracer records nothing, which is how untraced passes run.
type tracer struct {
	workload string
	seed     int64
	epoch    time.Time
	pass     int
	spans    []span
	open     []int
}

func newTracer(workload string, seed int64) *tracer {
	return &tracer{workload: workload, seed: seed, epoch: time.Now()}
}

// parent is the innermost open span, or -1.
func (t *tracer) parent() int {
	if n := len(t.open); n > 0 {
		return t.open[n-1]
	}
	return -1
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.epoch)), Parent: t.parent(), Pass: t.pass})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
}

// add records an already-measured child of the innermost open span,
// for durations the public API reports rather than the benchmark
// times itself (the prologue inside the first Step).
func (t *tracer) add(name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	s := int64(start.Sub(t.epoch))
	t.spans = append(t.spans, span{Name: name, Start: s, End: s + int64(d), Parent: t.parent(), Pass: t.pass})
}

// selfTimes sums, per span name, the self time of the given pass's
// spans: a span's duration minus the time its children cover. Spans
// of one goroutine never overlap their siblings, so the children's
// durations add up.
func (t *tracer) selfTimes(pass int) map[string]time.Duration {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Pass == pass && s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range t.spans {
		if s.Pass == pass {
			out[s.Name] += time.Duration(s.End - s.Start - child[i])
		}
	}
	return out
}

// write dumps the spans as JSON lines, each tagged with the workload
// and seed of the run.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		line := struct {
			Workload string `json:"workload"`
			Seed     int64  `json:"seed"`
			span
		}{t.workload, t.seed, s}
		if err := enc.Encode(line); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedSink wraps the session's BinarySink and records a span around
// every WriteRecord and Flush the session makes, so the trace sink's
// share of each Step shows as the step span's children.
type timedSink struct {
	inner dtmsvs.TraceSink
	tr    *tracer
}

func (s *timedSink) WriteRecord(r dtmsvs.TraceRecord) error {
	id := s.tr.begin("tracebin.write")
	err := s.inner.WriteRecord(r)
	s.tr.end(id)
	return err
}

func (s *timedSink) Flush() error {
	id := s.tr.begin("tracebin.flush")
	err := s.inner.Flush()
	s.tr.end(id)
	return err
}

// stageFamily is the registry's histogram family for stage timers.
const stageFamily = "dtmsvs_stage_duration_seconds"

// registryView is what the traced run reads from a session's metrics
// registry: stage seconds and counter values, each summed over every
// label set (cells, workers), plus the observation count of the
// coord_boundary stage on one worker.
type registryView struct {
	stages     map[string]float64
	counters   map[string]float64
	boundaries uint64
}

func readRegistry(reg *dtmsvs.MetricsRegistry) registryView {
	v := registryView{stages: make(map[string]float64), counters: make(map[string]float64)}
	snap := reg.Snapshot()
	for _, f := range snap.Families {
		for i := range f.Series {
			ser := &f.Series[i]
			if f.Name != stageFamily {
				v.counters[f.Name] += ser.Value
				continue
			}
			stage := ser.Label("stage")
			v.stages[stage] += ser.Sum
			if stage == "coord_boundary" && ser.Label("worker") == "0" {
				v.boundaries = ser.Count
			}
		}
	}
	return v
}

// stageSum returns the summed seconds of one stage over every label
// set, reading only that stage's series.
func stageSum(reg *dtmsvs.MetricsRegistry, stage string) float64 {
	f := reg.Snapshot().Family(stageFamily)
	if f == nil {
		return 0
	}
	sum := 0.0
	for i := range f.Series {
		if f.Series[i].Label("stage") == stage {
			sum += f.Series[i].Sum
		}
	}
	return sum
}

// spanPath is where a traced run leaves its spans, inside the
// benchmark's build directory.
func spanPath(workload string, seed int64) string {
	return filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
}
