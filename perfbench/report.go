package main

import (
	"fmt"
	"time"
)

// layerSpec is one per-layer metric of the traced run. Names carry
// the module whose work they measure.
type layerSpec struct {
	name, unit string
}

var layerSpecs = []layerSpec{
	{"session.open_s", "s"},
	{"session.prologue_s", "s"},
	{"sim.warmup_s", "s"},
	{"sim.train_s", "s"},
	{"sim.group_build_s", "s"},
	{"vecmath.gemm_fanout_ratio", "1"},
	{"sim.tick_collect_s", "s"},
	{"sim.schedule_s", "s"},
	{"sim.stream_s", "s"},
	{"sim.churn_s", "s"},
	{"sim.abstract_s", "s"},
	{"sim.abstract_growth", "1"},
	{"sim.regroup_s", "s"},
	{"cluster.handover_s", "s"},
	{"cluster.handovers_per_interval", "count"},
	{"coord.boundary_s", "s"},
	{"coord.rx_bytes_per_boundary", "B"},
	{"coord.tx_bytes_per_boundary", "B"},
	{"coord.worker_restarts", "count"},
	{"coord.heartbeat_misses", "count"},
	{"checkpoint.encode_s", "s"},
	{"checkpoint.bytes_per_user", "B"},
	{"tracebin.write_s", "s"},
	{"tracebin.flush_s", "s"},
	{"tracebin.bytes_per_record", "B"},
	{"bench.untraced_user_intervals_per_s", "1/s"},
	{"bench.traced_user_intervals_per_s", "1/s"},
	{"bench.tracing_overhead_pct", "%"},
}

// layerMetrics turns one traced pass — its spans and its registry —
// into the per-layer metrics. Times are seconds per pass.
func layerMetrics(p *pass, tr *tracer, idx int) map[string]float64 {
	self := tr.selfTimes(idx)
	st, c := p.reg.stages, p.reg.counters
	m := map[string]float64{
		"session.open_s":     self["session.open"].Seconds(),
		"session.prologue_s": self["session.prologue"].Seconds(),
		"sim.warmup_s":       st["prologue/warmup"],
		"sim.train_s":        st["prologue/train"],
		"sim.group_build_s":  st["prologue/group_build"],
		"vecmath.gemm_fanout_ratio": ratio(c["dtmsvs_gemm_fanouts_total"],
			c["dtmsvs_gemm_fanouts_total"]+c["dtmsvs_gemm_sequential_total"]),
		"sim.tick_collect_s":             st["interval/tick_collect"],
		"sim.schedule_s":                 st["interval/schedule"],
		"sim.stream_s":                   st["interval/stream"],
		"sim.churn_s":                    st["interval/churn"],
		"sim.abstract_s":                 st["interval/abstract"],
		"sim.abstract_growth":            growth(p.abstractByStep),
		"sim.regroup_s":                  st["interval/regroup"],
		"cluster.handover_s":             st["interval/handover"],
		"cluster.handovers_per_interval": ratio(float64(p.handovers), float64(p.intervals)),
		"coord.boundary_s":               st["coord_boundary"],
		"coord.rx_bytes_per_boundary":    ratio(c["dtmsvs_coord_rx_bytes_total"], float64(p.reg.boundaries)),
		"coord.tx_bytes_per_boundary":    ratio(c["dtmsvs_coord_tx_bytes_total"], float64(p.reg.boundaries)),
		"coord.worker_restarts":          float64(p.restarts),
		"coord.heartbeat_misses":         float64(p.hbMis),
		"checkpoint.encode_s":            self["checkpoint.encode"].Seconds(),
		"checkpoint.bytes_per_user":      ratio(float64(p.ckptBytes), float64(p.ckpts*p.w.cfg.NumUsers)),
		"tracebin.write_s":               self["tracebin.write"].Seconds(),
		"tracebin.flush_s":               self["tracebin.flush"].Seconds(),
		"tracebin.bytes_per_record":      ratio(float64(len(p.stream)), float64(len(p.records))),
	}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// growth compares the mean per-interval abstract time over the last
// quarter of a pass with the first quarter, from the cumulative stage
// sums read after every Step.
func growth(cum []float64) float64 {
	n := len(cum) / 4
	if n == 0 {
		return 0
	}
	delta := func(i int) float64 {
		if i == 0 {
			return cum[0]
		}
		return cum[i] - cum[i-1]
	}
	var first, last float64
	for i := 0; i < n; i++ {
		first += delta(i)
		last += delta(len(cum) - 1 - i)
	}
	return ratio(last, first)
}

// runTraced is the --trace 1 run: pairs of an untraced and a traced
// pass of the same scenario, in alternating order, while another pair
// fits the budget (at least one). The per-layer metrics are medians
// over the traced passes; the tracing overhead compares
// user_intervals_per_s between the two kinds.
func runTraced(w workload, seed int64, budget time.Duration) result {
	r := newRunner(w, seed)
	tr := newTracer(w.name, seed)
	vals := make(map[string][]float64)
	var nPlain, nTraced int
	var plainWork, plainBusy, tracedWork, tracedBusy float64
	var last *pass
	var sw workload
	start := time.Now()
	for i := 0; i%2 == 1 || i == 0 || fits(start, 2*last.wall, budget); i++ {
		if i%2 == 0 {
			sw = r.nextScenario()
		}
		var p *pass
		if traced := i%2 != (i/2)%2; traced {
			tr.pass = i
			p = r.run(sw, tr)
			for name, v := range layerMetrics(p, tr, i) {
				vals[name] = append(vals[name], v)
			}
			nTraced++
			tracedWork += float64(w.cfg.NumUsers * p.intervals)
			tracedBusy += (p.wall - p.setup).Seconds()
		} else {
			p = r.run(sw, nil)
			nPlain++
			plainWork += float64(w.cfg.NumUsers * p.intervals)
			plainBusy += (p.wall - p.setup).Seconds()
		}
		if i%2 == 1 && p.digest != last.digest {
			r.res.fail(fmt.Errorf("%s seed %d: traced and untraced passes differ: digest %q vs %q",
				sw.name, sw.cfg.Seed, p.digest, last.digest))
		}
		last = p
		if p.err != nil {
			break
		}
	}
	r.finish(last)
	if err := tr.write(spanPath(w.name, seed)); err != nil {
		r.res.fail(fmt.Errorf("write spans: %w", err))
	}
	for _, s := range layerSpecs {
		if v, ok := vals[s.name]; ok {
			r.res.set(s.name, median(v), s.unit, len(v))
		}
	}
	plain, withTrace := ratio(plainWork, plainBusy), ratio(tracedWork, tracedBusy)
	r.res.set("bench.untraced_user_intervals_per_s", plain, "1/s", nPlain)
	r.res.set("bench.traced_user_intervals_per_s", withTrace, "1/s", nTraced)
	r.res.set("bench.tracing_overhead_pct", 100*(ratio(plain, withTrace)-1), "%", nTraced)
	return r.res
}
