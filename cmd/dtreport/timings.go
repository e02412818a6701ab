// dtreport -timings: render a metrics snapshot written by
// `dtsim -metrics-out` (or any obs.Registry WriteJSON dump) as
// markdown tables — per-stage/per-cell wall-clock timings, edge
// cache effectiveness, and the remaining counters and gauges.
package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"dtmsvs/internal/cli"
	"dtmsvs/internal/obs"
)

// reportTimings reads the snapshot at path and writes the timing
// report to w.
func reportTimings(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	snap, err := obs.ReadSnapshot(f)
	if err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	fmt.Fprintf(w, "# dtmsvs timing report\n\nSnapshot: %s.\n\n", path)
	if err := timingsStageTable(w, snap); err != nil {
		return err
	}
	if err := timingsCacheTable(w, snap); err != nil {
		return err
	}
	if err := timingsFailureTable(w, snap); err != nil {
		return err
	}
	return timingsCounterTable(w, snap)
}

// timingsFailureTable renders the cluster failure-model counters as
// their own section when the run saw injected cell failures; healthy
// snapshots skip it (the zero-valued families still appear in the
// generic counter table).
func timingsFailureTable(w io.Writer, snap *obs.Snapshot) error {
	failures := snap.Family("dtmsvs_cell_failures_total")
	if failures == nil || len(failures.Series) == 0 || failures.Series[0].Value == 0 {
		return nil
	}
	fmt.Fprintf(w, "## Failure and degradation\n\n")
	t, err := cli.NewTable("metric", "value")
	if err != nil {
		return err
	}
	for _, name := range []string{
		"dtmsvs_cell_failures_total",
		"dtmsvs_cell_revivals_total",
		"dtmsvs_evacuated_twins_total",
		"dtmsvs_degraded_intervals_total",
		"dtmsvs_cells_down",
	} {
		fam := snap.Family(name)
		if fam == nil || len(fam.Series) == 0 {
			continue
		}
		if err := t.AddRow(name, strconv.FormatFloat(fam.Series[0].Value, 'g', -1, 64)); err != nil {
			return err
		}
	}
	if err := t.WriteMarkdown(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return nil
}

// timingsStageTable renders the stage-duration histogram family:
// one row per (stage, cell) series with count, total and mean, plus a
// worker column when any series carries a worker label (distributed
// runs time coord_boundary per worker).
func timingsStageTable(w io.Writer, snap *obs.Snapshot) error {
	fam := snap.Family(obs.StageFamily)
	if fam == nil || len(fam.Series) == 0 {
		fmt.Fprintf(w, "No stage timings in snapshot (was the registry mounted?).\n\n")
		return nil
	}
	fmt.Fprintf(w, "## Stage timings\n\n")
	withWorker := false
	for i := range fam.Series {
		withWorker = withWorker || fam.Series[i].Label("worker") != ""
	}
	cols := []string{"stage", "cell", "count", "total", "mean"}
	if withWorker {
		cols = []string{"stage", "cell", "worker", "count", "total", "mean"}
	}
	t, err := cli.NewTable(cols...)
	if err != nil {
		return err
	}
	// Group by stage (prologue first, then interval phases, then the
	// rest alphabetically), cells then workers numerically within a
	// stage.
	series := append([]obs.Series(nil), fam.Series...)
	sort.SliceStable(series, func(i, j int) bool {
		si, sj := series[i].Label("stage"), series[j].Label("stage")
		if si != sj {
			return stageRank(si) < stageRank(sj) || (stageRank(si) == stageRank(sj) && si < sj)
		}
		ci, _ := strconv.Atoi(series[i].Label("cell"))
		cj, _ := strconv.Atoi(series[j].Label("cell"))
		if ci != cj {
			return ci < cj
		}
		wi, _ := strconv.Atoi(series[i].Label("worker"))
		wj, _ := strconv.Atoi(series[j].Label("worker"))
		return wi < wj
	})
	for _, s := range series {
		total := time.Duration(s.Sum * float64(time.Second))
		mean := time.Duration(0)
		if s.Count > 0 {
			mean = total / time.Duration(s.Count)
		}
		row := []any{s.Label("stage"), labelOrDash(s.Label("cell"))}
		if withWorker {
			row = append(row, labelOrDash(s.Label("worker")))
		}
		row = append(row, s.Count, formatDur(total), formatDur(mean))
		if err := t.AddRow(row...); err != nil {
			return err
		}
	}
	if err := t.WriteMarkdown(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return nil
}

// labelOrDash renders an absent label as "-".
func labelOrDash(v string) string {
	if v == "" {
		return "-"
	}
	return v
}

// stageRank orders stage names for display: the step envelope, the
// prologue phases, then per-interval phases, then everything else.
func stageRank(stage string) int {
	switch {
	case stage == "step":
		return 0
	case strings.HasPrefix(stage, "prologue/"):
		return 1
	case strings.HasPrefix(stage, "interval/"):
		return 2
	}
	return 3
}

// timingsCacheTable renders per-cell edge cache effectiveness.
func timingsCacheTable(w io.Writer, snap *obs.Snapshot) error {
	hits := snap.Family("dtmsvs_edge_cache_hits_total")
	if hits == nil || len(hits.Series) == 0 {
		return nil
	}
	misses := snap.Family("dtmsvs_edge_cache_misses_total")
	evics := snap.Family("dtmsvs_edge_cache_evictions_total")
	fmt.Fprintf(w, "## Edge cache\n\n")
	t, err := cli.NewTable("cell", "hits", "misses", "evictions", "hit rate")
	if err != nil {
		return err
	}
	for _, s := range hits.Series {
		cell := s.Label("cell")
		h := s.Value
		m := seriesValue(misses, "cell", cell)
		e := seriesValue(evics, "cell", cell)
		rate := "n/a"
		if h+m > 0 {
			rate = cli.Percent(h / (h + m))
		}
		if err := t.AddRow(labelOrDash(cell), uint64(h), uint64(m), uint64(e), rate); err != nil {
			return err
		}
	}
	if err := t.WriteMarkdown(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return nil
}

// seriesValue finds the series in fam whose label `name` equals
// `value` and returns its value (0 when absent).
func seriesValue(fam *obs.Family, name, value string) float64 {
	if fam == nil {
		return 0
	}
	for _, s := range fam.Series {
		if s.Label(name) == value {
			return s.Value
		}
	}
	return 0
}

// timingsCounterTable renders the non-histogram families.
func timingsCounterTable(w io.Writer, snap *obs.Snapshot) error {
	fmt.Fprintf(w, "## Counters and gauges\n\n")
	t, err := cli.NewTable("metric", "labels", "value")
	if err != nil {
		return err
	}
	for _, fam := range snap.Families {
		if fam.Kind == "histogram" || strings.HasPrefix(fam.Name, "dtmsvs_edge_cache_") {
			continue
		}
		for _, s := range fam.Series {
			labels := make([]string, 0, len(s.Labels))
			for _, l := range s.Labels {
				labels = append(labels, l.Name+"="+l.Value)
			}
			lab := strings.Join(labels, ",")
			if lab == "" {
				lab = "-"
			}
			if err := t.AddRow(fam.Name, lab, strconv.FormatFloat(s.Value, 'g', -1, 64)); err != nil {
				return err
			}
		}
	}
	return t.WriteMarkdown(w)
}

// formatDur renders a duration rounded for table display.
func formatDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	}
	return d.Round(100 * time.Nanosecond).String()
}
