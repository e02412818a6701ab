package udt

import (
	"encoding/json"
	"fmt"
	"io"

	"dtmsvs/internal/behavior"
	"dtmsvs/internal/video"
)

// Snapshot is the serializable state of a twin: the edge server
// persists snapshots across restarts and ships them between edge
// sites when users move (the "UDT migration" use case of the DT
// literature the paper builds on).
type Snapshot struct {
	UserID int    `json:"userId"`
	Ticks  int    `json:"ticks"`
	Config Config `json:"config"`

	CQI        []float64 `json:"cqi"`
	LocX       []float64 `json:"locX"`
	LocY       []float64 `json:"locY"`
	Watch      []float64 `json:"watch"`
	Engage     []float64 `json:"engage"`
	Preference []float64 `json:"preference"`

	WatchByCat  []float64 `json:"watchByCat"`
	EngageByCat []float64 `json:"engageByCat"`
	ViewsByCat  []int     `json:"viewsByCat"`
	Swipes      int       `json:"swipes"`
	Views       int       `json:"views"`

	Staleness map[string]int `json:"staleness"`
}

// chronological returns the ring's stored values oldest-first.
func (r *ring) chronological() []float64 {
	n := r.len()
	out := make([]float64, n)
	if n == 0 {
		return out
	}
	start := r.next - n
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < n; i++ {
		out[i] = r.buf[(start+i)%len(r.buf)]
	}
	return out
}

// restore refills the ring from a chronological series, keeping at
// most the ring capacity of the newest values.
func (r *ring) restore(vals []float64) {
	r.next = 0
	r.full = false
	start := 0
	if len(vals) > len(r.buf) {
		start = len(vals) - len(r.buf)
	}
	for _, v := range vals[start:] {
		r.add(v)
	}
}

// Snapshot captures the twin's full state.
func (t *Twin) Snapshot() *Snapshot {
	t.mu.RLock()
	defer t.mu.RUnlock()
	s := &Snapshot{
		UserID:      t.UserID,
		Ticks:       t.ticks,
		Config:      t.cfg,
		CQI:         t.cqi.chronological(),
		LocX:        t.locX.chronological(),
		LocY:        t.locY.chronological(),
		Watch:       t.watch.chronological(),
		Engage:      t.engage.chronological(),
		Preference:  append([]float64(nil), t.pref...),
		WatchByCat:  t.watchByCat[:],
		EngageByCat: t.engageByCat[:],
		ViewsByCat:  t.viewsByCat[:],
		Swipes:      t.swipes,
		Views:       t.views,
		Staleness:   make(map[string]int, len(attributes)),
	}
	// Copy the array-backed slices so the snapshot does not alias the
	// twin's state.
	s.WatchByCat = append([]float64(nil), s.WatchByCat...)
	s.EngageByCat = append([]float64(nil), s.EngageByCat...)
	s.ViewsByCat = append([]int(nil), s.ViewsByCat...)
	for _, a := range attributes {
		s.Staleness[a.String()] = t.staleness[a]
	}
	return s
}

// Restore builds a twin from a snapshot.
func Restore(s *Snapshot) (*Twin, error) {
	if s == nil {
		return nil, fmt.Errorf("nil snapshot: %w", ErrParam)
	}
	t, err := NewTwin(s.UserID, s.Config)
	if err != nil {
		return nil, err
	}
	if len(s.Preference) != video.NumCategories {
		return nil, fmt.Errorf("snapshot preference len %d: %w", len(s.Preference), ErrParam)
	}
	pref := behavior.Preference(append([]float64(nil), s.Preference...))
	if err := pref.Validate(); err != nil {
		return nil, fmt.Errorf("snapshot preference: %w", err)
	}
	if len(s.WatchByCat) != video.NumCategories ||
		len(s.EngageByCat) != video.NumCategories ||
		len(s.ViewsByCat) != video.NumCategories {
		return nil, fmt.Errorf("snapshot counters wrong arity: %w", ErrParam)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ticks = s.Ticks
	t.cqi.restore(s.CQI)
	t.locX.restore(s.LocX)
	t.locY.restore(s.LocY)
	t.watch.restore(s.Watch)
	t.engage.restore(s.Engage)
	t.pref = pref
	copy(t.watchByCat[:], s.WatchByCat)
	copy(t.engageByCat[:], s.EngageByCat)
	copy(t.viewsByCat[:], s.ViewsByCat)
	t.swipes = s.Swipes
	t.views = s.Views
	for _, a := range attributes {
		if v, ok := s.Staleness[a.String()]; ok {
			t.staleness[a] = v
		}
	}
	return t, nil
}

// WriteJSON serializes the snapshot.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadSnapshot decodes a snapshot.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("decode snapshot: %w", err)
	}
	return &s, nil
}
