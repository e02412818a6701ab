package dtmsvs

import (
	"context"
	"runtime"
	"testing"
)

// TestStepCostStationary guards the per-interval cost against growing
// with elapsed time: over a one-day (288-interval) single-threaded
// session, the bytes allocated per Step late in the day (intervals
// 250–287) must stay within 1.25× of those early on (20–57). Both
// windows hold the same number of regroup intervals. Abstraction once
// cost O(intervals elapsed) here — one swipe observation per
// cumulative view — which put the ratio near 7.
func TestStepCostStationary(t *testing.T) {
	const (
		horizon        = 288
		early0, early1 = 20, 58
		late0, late1   = 250, 288
		maxRatio       = 1.25
	)
	for _, seed := range []int64{1, 42} {
		cfg := benchConfig(seed)
		cfg.NumIntervals = horizon
		cfg.Parallelism = 1
		s, err := Open(cfg, WithSink(DiscardSink{}))
		if err != nil {
			t.Fatal(err)
		}
		alloc := make([]uint64, horizon)
		var ms runtime.MemStats
		for i := range alloc {
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			if _, err := s.Step(context.Background()); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&ms)
			alloc[i] = ms.TotalAlloc - before
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		mean := func(lo, hi int) float64 {
			var sum uint64
			for _, a := range alloc[lo:hi] {
				sum += a
			}
			return float64(sum) / float64(hi-lo)
		}
		early, late := mean(early0, early1), mean(late0, late1)
		t.Logf("seed %d: %.0f B/step early, %.0f B/step late (%.2fx)", seed, early, late, late/early)
		if late > maxRatio*early {
			t.Errorf("seed %d: late-day Step allocates %.0f B, %.2fx the early %.0f B (limit %.2fx)",
				seed, late, late/early, early, maxRatio)
		}
	}
}
