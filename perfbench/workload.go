package main

import (
	"fmt"
	"runtime"

	"dtmsvs"
)

type engineKind int

const (
	engineMono engineKind = iota
	engineCluster
	engineDist
)

// workload is one named scenario the benchmark drives. Every workload
// is a closed loop with a single caller: one goroutine issues Step
// after Step, back to back, and engine threads never exceed nproc.
type workload struct {
	name   string
	engine engineKind
	cfg    dtmsvs.Config
	// workers is the in-process worker count of a distributed run.
	workers int
	// checkpointEvery takes a session Checkpoint after every that many
	// intervals (0: never).
	checkpointEvery int
}

var workloadNames = []string{"day-mono", "city-cluster", "city-dist"}

// newWorkload returns the named workload. Its scenario seed is set per
// pass (see scenario); the seed is the only input the generator sees,
// everything else is fixed per workload.
//
//   - day-mono: the paper's scenario (100 users, 4 BS) on the
//     monolithic engine for one day of 288 five-minute intervals, no
//     churn, streaming to a BinarySink with an hourly Checkpoint. Twin
//     history grows all day, so interval/abstract and regroup dominate
//     and set-up is light.
//   - city-cluster: 1000 users on 8 cells under OpenCluster for 120
//     intervals with 10% churn per interval. Training eight cells makes
//     set-up heavy; churn caps twin age, so steps stay flat and
//     tick_collect, regroup, handover and stream carry the interval.
//   - city-dist: the city-cluster scenario under OpenDistributed with
//     nproc in-process workers at Parallelism 1 each. Engine work and
//     trace digest match city-cluster, so the difference is the coord
//     layer: boundary frames plus a full worker checkpoint per ack.
func newWorkload(name string) (workload, error) {
	nproc := runtime.NumCPU()
	cfg := dtmsvs.DefaultConfig(0)
	cfg.Parallelism = nproc
	switch name {
	case "day-mono":
		cfg.NumIntervals = 288
		return workload{name: name, engine: engineMono, cfg: cfg, checkpointEvery: 12}, nil
	case "city-cluster", "city-dist":
		cfg.NumUsers = 1000
		cfg.NumBS = 8
		cfg.NumIntervals = 120
		cfg.ChurnPerInterval = 0.1
		if name == "city-cluster" {
			return workload{name: name, engine: engineCluster, cfg: cfg}, nil
		}
		cfg.Parallelism = 1
		workers := min(nproc, cfg.NumBS)
		return workload{name: name, engine: engineDist, cfg: cfg, workers: workers}, nil
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// scenario returns the workload on the given scenario seed.
func (w workload) scenario(seed int64) workload {
	w.cfg.Seed = seed
	return w
}

// open starts a session of the workload. dist is non-nil for the
// distributed engine, whose recovery counters the traced run reads.
func (w workload) open(opts ...dtmsvs.SessionOption) (s dtmsvs.Session, dist *dtmsvs.DistSession, err error) {
	switch w.engine {
	case engineMono:
		ms, err := dtmsvs.Open(w.cfg, opts...)
		if err != nil {
			return nil, nil, err
		}
		return ms, nil, nil
	case engineCluster:
		cs, err := dtmsvs.OpenCluster(dtmsvs.ClusterConfig{Sim: w.cfg}, opts...)
		if err != nil {
			return nil, nil, err
		}
		return cs, nil, nil
	default:
		ds, err := dtmsvs.OpenDistributed(dtmsvs.ClusterConfig{Sim: w.cfg}, w.workers, opts...)
		if err != nil {
			return nil, nil, err
		}
		return ds, ds, nil
	}
}
