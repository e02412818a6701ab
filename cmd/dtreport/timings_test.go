package main

import (
	"bytes"
	"testing"
	"time"

	"dtmsvs/internal/obs"
)

// A distributed run times coord_boundary once per worker; the stage
// table must keep those rows apart with a worker column, ordered
// numerically like cells (10 after 2).
func TestTimingsStageTableWorkerColumn(t *testing.T) {
	reg := obs.New()
	for _, w := range []string{"10", "2", "0"} {
		st := reg.Stage("coord_boundary", obs.Label{Name: "worker", Value: w})
		st.Observe(3 * time.Millisecond)
		st.Observe(5 * time.Millisecond)
	}
	for _, c := range []string{"11", "1"} {
		reg.Stage("interval/stream", obs.Label{Name: "cell", Value: c}).Observe(2 * time.Millisecond)
	}
	reg.Stage("step").Observe(40 * time.Millisecond)
	reg.Stage("prologue/train").Observe(1500 * time.Millisecond)

	var buf bytes.Buffer
	if err := timingsStageTable(&buf, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	const want = `## Stage timings

| stage | cell | worker | count | total | mean |
| --- | --- | --- | --- | --- | --- |
| step | - | - | 1 | 40ms | 40ms |
| prologue/train | - | - | 1 | 1.5s | 1.5s |
| interval/stream | 1 | - | 1 | 2ms | 2ms |
| interval/stream | 11 | - | 1 | 2ms | 2ms |
| coord_boundary | - | 0 | 2 | 8ms | 4ms |
| coord_boundary | - | 2 | 2 | 8ms | 4ms |
| coord_boundary | - | 10 | 2 | 8ms | 4ms |

`
	if got := buf.String(); got != want {
		t.Fatalf("stage table:\n%s\nwant:\n%s", got, want)
	}
}

// Without any worker label the table keeps its five columns.
func TestTimingsStageTableNoWorker(t *testing.T) {
	reg := obs.New()
	reg.Stage("interval/abstract", obs.Label{Name: "cell", Value: "0"}).Observe(time.Millisecond)
	var buf bytes.Buffer
	if err := timingsStageTable(&buf, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	const want = `## Stage timings

| stage | cell | count | total | mean |
| --- | --- | --- | --- | --- |
| interval/abstract | 0 | 1 | 1ms | 1ms |

`
	if got := buf.String(); got != want {
		t.Fatalf("stage table:\n%s\nwant:\n%s", got, want)
	}
}
