// Command perfbench is the repository benchmark. It drives one named
// workload through the public session API (Open, OpenCluster or
// OpenDistributed, then Step until Done, then Close) and prints one
// JSON result line.
//
// Run it from the repository root through its build wrapper:
//
//	bash perfbench/run.sh --workload day-mono --seed 1 --seconds 40 --trace 0
//	bash perfbench/run.sh --workload city-dist --seed 1 --seconds 40 --trace 1
//	bash perfbench/run.sh --selftest --seed 1
//
// Load is a closed loop from a single caller: one goroutine issues
// Step after Step, back to back. A run repeats whole sessions of the
// workload (passes) while another one fits in --seconds, so every pass
// covers the same intervals and pooled figures do not drift with run
// length. Pass j runs the scenario seeded --seed×1000+j, so a run
// averages over several inputs and the same --seed always gives the
// same inputs. Engine threads never exceed runtime.NumCPU.
//
// With --trace 0 no metrics registry is mounted and the run reports
// the end-to-end metrics:
//
//	setup_s               median over passes (at least five set-ups) of
//	                      Open plus the prologue the first Step reports
//	                      (IntervalReport.PrologueDuration)
//	user_intervals_per_s  users × intervals ÷ (pass wall − setup),
//	                      summed over passes; includes checkpoint calls
//	step_p50_ms           median Step wall time without the prologue,
//	step_p90_ms           and its p90, pooled over passes
//	alloc_mb_per_interval runtime TotalAlloc over the passes ÷ intervals
//	peak_rss_mb           median over passes of this process's VmHWM,
//	                      reset at the start of each pass
//	radio_accuracy_pct    100 × (1 − MAPE) of predicted vs actual RBs,
//	                      averaged over passes
//	step_success_ratio    Steps completed ÷ Steps attempted
//
// MB is 2^20 bytes. The failure ratio is reported as its complement
// so that it is never zero; failed Steps are also in "failed".
//
// With --trace 1 the run alternates untraced and traced passes. A
// traced pass mounts a metrics registry (WithMetrics) and records a
// span around every public call the benchmark makes: Open, each Step
// (with the prologue the first Step reports, and each WriteRecord and
// Flush of the trace sink), each Checkpoint, and Close. Spans stay in
// memory and are written to .bench_build/spans when the run ends. The
// per-layer metrics come from the span self times and the registry's
// existing stage timers and counters, as medians over traced passes;
// times are seconds per pass, summed over cells where the engine
// labels them per cell. Layers a workload does not run read 0. The
// distributed engine does not mount the registry on its workers, so in
// city-dist the per-layer view stops at the coord layer.
//
// Every pass checks its output: the streamed binary trace, decoded
// with ReadTraceRecords, equals the records the Steps returned;
// interval ids run from 0 to N−1; group sizes sum to the population
// in every interval; RB, cycle and bit fields are finite and
// non-negative. In a traced run each traced pass must reproduce the
// trace digest of the untraced pass of the same scenario. day-mono
// additionally resumes its last hourly checkpoint and
// requires the resumed records to be byte-identical to the streamed
// suffix. --selftest checks determinism across runs, seeds and the two
// cluster engines.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	var (
		name     = flag.String("workload", "", "workload: day-mono, city-cluster or city-dist")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 40, "measure for this many seconds (whole passes)")
		trace    = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		selftest = flag.Bool("selftest", false, "run the determinism self-test instead")
	)
	flag.Parse()
	if *selftest {
		if err := runSelftest(*seed); err != nil {
			fmt.Fprintln(os.Stderr, "selftest:", err)
			os.Exit(1)
		}
		fmt.Println("selftest ok")
		return
	}
	w, err := newWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "--trace must be 0 or 1")
		os.Exit(2)
	}
	budget := time.Duration(*seconds) * time.Second
	var res result
	if *trace == 1 {
		res = runTraced(w, *seed, budget)
	} else {
		res = runPlain(w, *seed, budget)
	}
	res.print()
	if !res.Correct {
		os.Exit(1)
	}
}

type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	samples int
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	order     []string
	errs      []string
}

func (r *result) set(name string, v float64, unit string, samples int) {
	if _, ok := r.Metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit, samples: samples}
}

func (r *result) fail(err error) {
	r.Correct = false
	r.errs = append(r.errs, err.Error())
}

// print writes one human-readable line per metric with its sample
// count, then the JSON result as the last line of standard output.
func (r *result) print() {
	for _, e := range r.errs {
		fmt.Fprintln(os.Stderr, "check failed:", e)
	}
	for _, n := range r.order {
		m := r.Metrics[n]
		fmt.Printf("%-34s %16s %-6s n=%d\n", n, strconv.FormatFloat(m.Value, 'g', 8, 64), m.Unit, m.samples)
	}
	b, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// runner repeats passes of one workload and runs the checks every
// pass must meet. Each pass runs its own scenario, seeded from the
// run's seed and the pass's index.
type runner struct {
	w    workload
	seed int64
	next int
	res  result
	accs []float64
	recs int
	prev *pass
}

func newRunner(w workload, seed int64) *runner {
	return &runner{w: w, seed: seed, res: result{Correct: true, Metrics: map[string]metric{}}}
}

// scenarioSeed derives the seed of a run's j-th scenario. A run covers
// several scenarios so that its figures average over inputs and not
// only over time: one day-mono scenario's step time and allocation
// move by about ±10% with its seed, mostly with the group count the
// DDQN picks, which is more than a run-to-run bound can absorb.
func scenarioSeed(seed int64, j int) int64 { return seed*1000 + int64(j) }

// nextScenario returns the workload on the run's next scenario seed.
func (r *runner) nextScenario() workload {
	w := r.w.scenario(scenarioSeed(r.seed, r.next))
	r.next++
	return w
}

// run drives one pass of w and checks its output.
func (r *runner) run(w workload, tr *tracer) *pass {
	p := runPass(w, tr, r.recs)
	r.recs = len(p.records)
	r.res.Attempted += p.attempted
	r.res.Failed += p.failed
	if err := p.check(); err != nil {
		r.res.fail(fmt.Errorf("%s seed %d: %w", w.name, w.cfg.Seed, err))
		return p
	}
	r.accs = append(r.accs, p.accuracy)
	p.digest = digest(p.records)
	fmt.Fprintf(os.Stderr, "pass %s seed %d traced=%v: setup %.4fs wall %.3fs user_intervals_per_s %.1f alloc %.1fMB rss %.1fMB digest %s\n",
		w.name, w.cfg.Seed, tr != nil, p.setup.Seconds(), p.wall.Seconds(), p.userIntervalsPerS(), float64(p.alloc)/(1<<20), p.peakRSS, p.digest)
	// Only the last pass's trace is needed again (for the resume
	// check); dropping the others keeps the benchmark's own heap out
	// of peak_rss_mb.
	if r.prev != nil {
		r.prev.release()
	}
	r.prev = p
	return p
}

// finish runs the checkpoint read-side check on the last pass.
func (r *runner) finish(last *pass) {
	if last.err != nil {
		return
	}
	steps, err := last.checkResume()
	r.res.Attempted += steps
	if err != nil {
		r.res.fail(fmt.Errorf("%s seed %d checkpoint: %w", last.w.name, last.w.cfg.Seed, err))
	}
}

// setupSamples is the least number of set-ups a plain run times. A
// run that fits fewer whole passes tops up with set-up probes on
// further scenarios, so setup_s is always a median of several.
const setupSamples = 5

// fits reports whether another pass, predicted to take as long as the
// last one, still ends within the budget.
func fits(start time.Time, last time.Duration, budget time.Duration) bool {
	return time.Since(start)+last <= budget
}

// runPlain is the --trace 0 run: untraced passes while another one
// fits the budget (at least one), then the end-to-end metrics.
func runPlain(w workload, seed int64, budget time.Duration) result {
	r := newRunner(w, seed)
	var passes []*pass
	var setups []float64
	start := time.Now()
	for len(passes) == 0 || fits(start, passes[len(passes)-1].wall, budget) {
		p := r.run(r.nextScenario(), nil)
		passes = append(passes, p)
		setups = append(setups, p.setup.Seconds())
		if p.err != nil {
			break
		}
	}
	for r.res.Correct && len(setups) < setupSamples {
		d, err := probeSetup(r.nextScenario())
		r.res.Attempted++
		if err != nil {
			r.res.Failed++
			r.res.fail(fmt.Errorf("%s set-up probe: %w", w.name, err))
			break
		}
		setups = append(setups, d.Seconds())
	}
	r.finish(passes[len(passes)-1])

	var steps, rss []float64
	var work, busy, alloc, intervals float64
	for _, p := range passes {
		rss = append(rss, p.peakRSS)
		for _, d := range p.steps {
			steps = append(steps, float64(d)/float64(time.Millisecond))
		}
		work += float64(w.cfg.NumUsers * p.intervals)
		busy += (p.wall - p.setup).Seconds()
		alloc += float64(p.alloc)
		intervals += float64(p.intervals)
	}
	res := &r.res
	res.set("setup_s", median(setups), "s", len(setups))
	res.set("user_intervals_per_s", ratio(work, busy), "1/s", len(passes))
	res.set("step_p50_ms", quantile(steps, 0.5), "ms", len(steps))
	res.set("step_p90_ms", quantile(steps, 0.9), "ms", len(steps))
	res.set("alloc_mb_per_interval", ratio(alloc, intervals)/(1<<20), "MB", int(intervals))
	res.set("peak_rss_mb", median(rss), "MB", len(rss))
	res.set("radio_accuracy_pct", 100*mean(r.accs), "%", len(r.accs))
	res.set("step_success_ratio", ratio(float64(res.Attempted-res.Failed), float64(res.Attempted)), "1", res.Attempted)
	return *res
}

func mean(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return ratio(sum, float64(len(v)))
}

// median returns the middle value (the mean of the two middle values
// for an even count).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile of v.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// resetPeakRSS resets the process's resident-set high-water mark to
// its current resident set. Where the kernel refuses, pass peaks stay
// cumulative over the run, which the message on standard error notes.
func resetPeakRSS() {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintln(os.Stderr, "peak RSS not reset, pass peaks are cumulative:", err)
	}
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
