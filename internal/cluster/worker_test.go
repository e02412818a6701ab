package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dtmsvs/internal/checkpoint"
)

// runPartitioned drives a set of Workers through the full scenario by
// hand — the supervisor's exchange loop without the wire — and
// returns the merged trace.
func runPartitioned(t *testing.T, cfg Config, count int) *Trace {
	t.Helper()
	ws := make([]*Engine, count)
	for i := range ws {
		w, err := NewWorker(cfg, i, count)
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		defer w.Close()
		ws[i] = w
	}
	ctx := context.Background()
	exchange := func() {
		t.Helper()
		apply := make([][]Handover, count)
		for i, w := range ws {
			plan, err := w.PlanHandovers()
			if err != nil {
				t.Fatalf("worker %d plan: %v", i, err)
			}
			apply[i] = append(apply[i], plan...)
			for _, h := range plan {
				if dst := WorkerForCell(h.To, cfg.Defaulted().Sim.NumBS, count); dst != i {
					apply[dst] = append(apply[dst], h)
				}
			}
		}
		for i, w := range ws {
			if err := w.ApplyHandovers(apply[i]); err != nil {
				t.Fatalf("worker %d apply: %v", i, err)
			}
		}
	}
	d := cfg.Defaulted()
	for wi := 0; wi < d.Sim.WarmupIntervals; wi++ {
		for i, w := range ws {
			if err := w.WarmupStep(ctx); err != nil {
				t.Fatalf("worker %d warmup: %v", i, err)
			}
		}
		exchange()
	}
	for i, w := range ws {
		if err := w.TrainAndBuild(ctx); err != nil {
			t.Fatalf("worker %d train: %v", i, err)
		}
	}
	tr := &Trace{}
	for interval := 0; interval < d.Sim.NumIntervals; interval++ {
		for i, w := range ws {
			recs, err := w.StepInterval(ctx, interval)
			if err != nil {
				t.Fatalf("worker %d interval %d: %v", i, interval, err)
			}
			tr.Records = append(tr.Records, recs...)
		}
		exchange()
	}
	var hits, misses int
	for _, w := range ws {
		cells, h, m := w.FinishStats()
		tr.Cells = append(tr.Cells, cells...)
		hits += h
		misses += m
		tr.Handovers += w.Handovers()
		tr.ChurnedUsers += w.Churned()
	}
	if total := hits + misses; total > 0 {
		tr.CacheHitRate = float64(hits) / float64(total)
	}
	return tr
}

// TestWorkerPartitionBitIdentical is the distributed engine's core
// guarantee at the partition layer: stepping disjoint cell blocks in
// separate Workers and exchanging boundary handovers (twins crossing
// workers as wire bytes) reproduces the single-process merged trace
// bit for bit, for every worker count.
func TestWorkerPartitionBitIdentical(t *testing.T) {
	for _, seed := range []int64{3, 97} {
		cfg := Config{Sim: testSimConfig(seed, 2)}
		base, err := Run(cfg)
		if err != nil {
			t.Fatalf("seed %d: single-process run: %v", seed, err)
		}
		for _, count := range []int{1, 2, 4} {
			tr := runPartitioned(t, cfg, count)
			if !reflect.DeepEqual(tr.Records, base.Records) {
				t.Fatalf("seed %d workers %d: records diverged", seed, count)
			}
			if !reflect.DeepEqual(tr.Cells, base.Cells) {
				t.Fatalf("seed %d workers %d: cell stats diverged:\n got %+v\nwant %+v",
					seed, count, tr.Cells, base.Cells)
			}
			if tr.Handovers != base.Handovers || tr.ChurnedUsers != base.ChurnedUsers ||
				tr.CacheHitRate != base.CacheHitRate {
				t.Fatalf("seed %d workers %d: run stats diverged: got %+v want %+v",
					seed, count, tr, base)
			}
		}
	}
}

// TestWorkerCheckpointRoundTrip checkpoints one worker mid-run,
// restores it into a fresh worker, and verifies the restored state
// re-encodes to identical bytes — the property worker crash recovery
// rests on.
func TestWorkerCheckpointRoundTrip(t *testing.T) {
	cfg := Config{Sim: testSimConfig(7, 1)}
	const count = 2
	ws := make([]*Engine, count)
	for i := range ws {
		w, err := NewWorker(cfg, i, count)
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		defer w.Close()
		ws[i] = w
	}
	ctx := context.Background()
	step := func() {
		t.Helper()
		apply := make([][]Handover, count)
		for i, w := range ws {
			plan, err := w.PlanHandovers()
			if err != nil {
				t.Fatalf("plan %d: %v", i, err)
			}
			apply[i] = append(apply[i], plan...)
			for _, h := range plan {
				if dst := WorkerForCell(h.To, cfg.Defaulted().Sim.NumBS, count); dst != i {
					apply[dst] = append(apply[dst], h)
				}
			}
		}
		for i, w := range ws {
			if err := w.ApplyHandovers(apply[i]); err != nil {
				t.Fatalf("apply %d: %v", i, err)
			}
		}
	}
	for wi := 0; wi < cfg.Defaulted().Sim.WarmupIntervals; wi++ {
		for _, w := range ws {
			if err := w.WarmupStep(ctx); err != nil {
				t.Fatal(err)
			}
		}
		step()
	}
	for _, w := range ws {
		if err := w.TrainAndBuild(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for interval := 0; interval < 2; interval++ {
		for _, w := range ws {
			if _, err := w.StepInterval(ctx, interval); err != nil {
				t.Fatal(err)
			}
		}
		step()
	}

	encode := func(w *Engine) []byte {
		t.Helper()
		var buf bytes.Buffer
		cw := checkpoint.NewWriter(&buf, "dtworker", 0)
		if err := w.WriteState(cw); err != nil {
			t.Fatalf("write state: %v", err)
		}
		if err := cw.Finish(); err != nil {
			t.Fatalf("finish: %v", err)
		}
		return buf.Bytes()
	}
	blob := encode(ws[0])
	fresh, err := NewWorker(cfg, 0, count)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	cr, err := checkpoint.NewReader(bytes.NewReader(blob), "dtworker", 0)
	if err != nil {
		t.Fatalf("reader: %v", err)
	}
	if err := fresh.ReadState(cr); err != nil {
		t.Fatalf("read state: %v", err)
	}
	if err := cr.Finish(); err != nil {
		t.Fatalf("reader finish: %v", err)
	}
	if fresh.NumUsers() != ws[0].NumUsers() {
		t.Fatalf("restored worker has %d users, want %d", fresh.NumUsers(), ws[0].NumUsers())
	}
	if got := encode(fresh); !bytes.Equal(got, blob) {
		t.Fatalf("restored worker re-encodes to different bytes (%d vs %d)", len(got), len(blob))
	}
}

// sameTrace fails the test unless got reproduces want's records, cell
// statistics and run-level counters exactly.
func sameTrace(t *testing.T, label string, got, want *Trace) {
	t.Helper()
	if !reflect.DeepEqual(got.Records, want.Records) {
		t.Fatalf("%s: records diverged", label)
	}
	if !reflect.DeepEqual(got.Cells, want.Cells) {
		t.Fatalf("%s: cell stats diverged:\n got %+v\nwant %+v", label, got.Cells, want.Cells)
	}
	if got.Handovers != want.Handovers || got.ChurnedUsers != want.ChurnedUsers ||
		got.CacheHitRate != want.CacheHitRate {
		t.Fatalf("%s: run stats diverged: got %+v want %+v", label, got, want)
	}
}

// TestLateTrainPartitionBitIdentical drives sparse scenarios — more
// cells than the warm-up population fills — in which some cell is
// still empty when the cluster trains and is trained late, by the
// handover pass that brings its first twins. The single-process run
// must reproduce the 2- and 4-worker partition traces bit for bit.
func TestLateTrainPartitionBitIdentical(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		sc := testSimConfig(seed, 1)
		sc.NumBS, sc.NumIntervals, sc.NumUsers = 8, 12, 8
		cfg := Config{Sim: sc}
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		ctx := context.Background()
		for w := 0; w < sc.WarmupIntervals; w++ {
			if err := e.WarmupStep(ctx); err != nil {
				t.Fatal(err)
			}
			if err := e.HandoverPass(); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.TrainAndBuild(ctx); err != nil {
			t.Fatal(err)
		}
		var unbuilt []*cellState
		for _, c := range e.cells {
			if !c.built {
				unbuilt = append(unbuilt, c)
			}
		}
		for interval := 0; interval < sc.NumIntervals; interval++ {
			if _, err := e.StepInterval(ctx, interval); err != nil {
				t.Fatal(err)
			}
			if err := e.HandoverPass(); err != nil {
				t.Fatal(err)
			}
		}
		late := 0
		for _, c := range unbuilt {
			if c.built {
				late++
			}
		}
		if late == 0 {
			t.Fatalf("seed %d: no cell trained late (%d unbuilt after TrainAndBuild)", seed, len(unbuilt))
		}
		base := e.Finish()
		for _, count := range []int{2, 4} {
			sameTrace(t, fmt.Sprintf("seed %d workers %d", seed, count), runPartitioned(t, cfg, count), base)
		}
	}
}

// TestApplyHandoversRejectsMalformed feeds a worker moves no
// well-formed boundary exchange produces — ApplyHandovers decodes
// frame input — and requires a typed ErrConfig for each, never a
// panic.
func TestApplyHandoversRejectsMalformed(t *testing.T) {
	cfg := Config{Sim: testSimConfig(7, 1)}
	const count = 2
	probe, err := NewWorker(cfg, 0, count)
	if err != nil {
		t.Fatal(err)
	}
	// A resident user of an owned cell and its twin bytes, and a user
	// living on the other worker.
	resident, elsewhere := -1, -1
	for id, c := range probe.owner {
		if probe.mask[c] && resident < 0 {
			resident = id
		}
		if !probe.mask[c] && elsewhere < 0 {
			elsewhere = id
		}
	}
	if resident < 0 || elsewhere < 0 {
		t.Fatalf("worker 0 partition degenerate: resident %d elsewhere %d", resident, elsewhere)
	}
	var enc checkpoint.Enc
	if err := probe.cells[probe.owner[resident]].eng.EncodeUser(&enc, resident); err != nil {
		t.Fatal(err)
	}
	twin := append([]byte(nil), enc.Bytes()...)
	probe.Close()

	numUsers, numCells := cfg.Sim.NumUsers, cfg.Defaulted().Sim.NumBS
	for _, tc := range []struct {
		name string
		h    Handover
		want string // identifies the rejecting check
	}{
		{"unknown user", Handover{ID: numUsers, From: 0, To: 1}, "unknown user"},
		{"negative user", Handover{ID: -1, From: 0, To: 1}, "unknown user"},
		{"out-of-range cell", Handover{ID: resident, From: 0, To: numCells}, "between cells"},
		{"negative cell", Handover{ID: elsewhere, From: -1, To: 0}, "between cells"},
		{"import without twin", Handover{ID: elsewhere, From: numCells - 1, To: 0}, "carries no twin"},
		{"twin of another user", Handover{ID: elsewhere, From: numCells - 1, To: 0, Twin: twin}, "decoded twin"},
		{"neither endpoint owned", Handover{ID: elsewhere, From: numCells - 2, To: numCells - 1}, "owning neither endpoint"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := NewWorker(cfg, 0, count)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			err = w.ApplyHandovers([]Handover{tc.h})
			if !errors.Is(err, ErrConfig) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ApplyHandovers(%+v) = %v, want ErrConfig naming %q", tc.h, err, tc.want)
			}
		})
	}
}
