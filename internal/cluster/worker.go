// This file is the cluster engine's handover pass and its partition
// into distributed workers. A worker is an Engine owning a contiguous
// block of coverage cells: it steps only those, and exchanges boundary
// handovers with its peers through the internal/coord supervisor. A
// single-process Engine is the same thing owning every cell, so its
// plan never leaves the process.
//
// Determinism contract: a worker constructs the full engine exactly
// like the single-process path (construction draws only touch shared
// substrate and per-user streams), then drops the populations of the
// cells it does not own. Because sim keeps each cell's population
// sorted by global user id, and because ApplyHandovers applies every
// boundary move in ascending global user-id order, each owned cell
// sees exactly the attach/detach subsequence it would have seen in a
// single process — so per-cell state, and therefore the merged trace,
// is bit-identical for any worker count.
package cluster

import (
	"cmp"
	"fmt"
	"slices"

	"dtmsvs/internal/checkpoint"
)

// Handover is one boundary twin move. Twin carries the user's full
// mutable state (the sim per-user checkpoint encoding) when the move
// crosses workers; it is nil for moves both of whose endpoints live
// on the same engine, where the twin moves by pointer.
type Handover struct {
	ID   int
	From int
	To   int
	Twin []byte
}

// WorkerForCell maps a cell id to the worker owning it: contiguous
// blocks, the same arithmetic the engine uses to map cells to shards.
func WorkerForCell(cell, numCells, workers int) int {
	return cell * workers / numCells
}

// NewWorker constructs worker index of count over cfg: an Engine
// owning only that worker's contiguous block of cells. The full
// population is spawned (construction is cheap and keeps the replay
// deterministic) and the cells owned by other workers are emptied.
func NewWorker(cfg Config, index, count int) (*Engine, error) {
	d := cfg.withDefaults()
	if len(d.Faults) > 0 {
		return nil, fmt.Errorf("cell fault injection inside distributed workers is not supported (inject process faults instead): %w", ErrConfig)
	}
	if count < 1 || count > d.Sim.NumBS {
		return nil, fmt.Errorf("%d workers for %d base stations: %w", count, d.Sim.NumBS, ErrConfig)
	}
	if index < 0 || index >= count {
		return nil, fmt.Errorf("worker index %d of %d: %w", index, count, ErrConfig)
	}
	e, err := New(cfg)
	if err != nil {
		return nil, err
	}
	e.SetRetainRecords(false)
	e.index = index
	e.owned = e.owned[:0]
	e.local = 0
	for c, cell := range e.cells {
		e.mask[c] = WorkerForCell(c, len(e.cells), count) == index
		if e.mask[c] {
			e.owned = append(e.owned, c)
			e.local += cell.eng.NumUsers()
			continue
		}
		for _, id := range cell.eng.UserIDs() {
			if _, ok := cell.eng.DetachUser(id); !ok {
				return nil, fmt.Errorf("worker %d: drop user %d from cell %d: %w", index, id, c, ErrConfig)
			}
		}
	}
	var shards [][]int
	for _, shard := range e.shards {
		var keep []int
		for _, c := range shard {
			if e.mask[c] {
				keep = append(keep, c)
			}
		}
		if len(keep) > 0 {
			shards = append(shards, keep)
		}
	}
	e.shards = shards
	return e, nil
}

// PlanHandovers scans the users of owned cells in global id order and
// returns every pending move out of an owned cell. Moves leaving the
// engine carry the twin's wire encoding, captured before any
// mutation; the engine's state is untouched until ApplyHandovers. The
// returned slice is reused by the next call.
func (e *Engine) PlanHandovers() ([]Handover, error) {
	e.plan = e.plan[:0]
	var enc checkpoint.Enc
	for id, from := range e.owner {
		if !e.mask[from] {
			continue
		}
		bs := e.cells[from].eng.ServingBSOf(id)
		if bs < 0 {
			return nil, fmt.Errorf("user %d missing from cell %d: %w", id, from, ErrConfig)
		}
		if bs == from {
			continue
		}
		if e.cells[bs].down {
			// Links route around quarantined stations at every tick, so
			// a handover into a dark cell means the quarantine mask and
			// the link layer disagree — stop before the twin is lost.
			return nil, fmt.Errorf("user %d handed over to quarantined cell %d: %w", id, bs, ErrCellFailure)
		}
		h := Handover{ID: id, From: from, To: bs}
		if !e.mask[bs] {
			enc.Reset()
			if err := e.cells[from].eng.EncodeUser(&enc, id); err != nil {
				return nil, err
			}
			h.Twin = append([]byte(nil), enc.Bytes()...)
		}
		e.plan = append(e.plan, h)
	}
	return e.plan, nil
}

// ApplyHandovers applies one boundary's moves touching this engine —
// its own plan plus, on a worker, the imports routed from its peers —
// in ascending global user-id order. It then verifies twin
// conservation and late-trains owned cells that just gained their
// first users. Malformed moves fail with an error wrapping ErrConfig.
func (e *Engine) ApplyHandovers(moves []Handover) error {
	e.moves = append(e.moves[:0], moves...)
	slices.SortFunc(e.moves, func(a, b Handover) int { return cmp.Compare(a.ID, b.ID) })
	for _, h := range e.moves {
		if h.ID < 0 || h.ID >= len(e.owner) {
			return fmt.Errorf("handover of unknown user %d: %w", h.ID, ErrConfig)
		}
		if h.To < 0 || h.To >= len(e.cells) || h.From < 0 || h.From >= len(e.cells) {
			return fmt.Errorf("handover of user %d between cells %d and %d: %w", h.ID, h.From, h.To, ErrConfig)
		}
		fromOwned, toOwned := e.mask[h.From], e.mask[h.To]
		switch {
		case fromOwned:
			mu, ok := e.cells[h.From].eng.DetachUser(h.ID)
			if !ok {
				return fmt.Errorf("user %d not detachable from cell %d: %w", h.ID, h.From, ErrConfig)
			}
			e.handovers++
			e.metHandovers.Inc()
			if !toOwned {
				e.local--
				break
			}
			if err := e.cells[h.To].eng.AttachUser(mu); err != nil {
				return err
			}
			e.cells[h.To].migratedIn++
		case toOwned:
			if len(h.Twin) == 0 {
				return fmt.Errorf("import of user %d into cell %d carries no twin: %w", h.ID, h.To, ErrConfig)
			}
			d := checkpoint.NewDec(h.Twin)
			mu, err := e.cells[h.To].eng.DecodeUser(d)
			if err != nil {
				return fmt.Errorf("import user %d: %w", h.ID, err)
			}
			if err := d.Close(); err != nil {
				return fmt.Errorf("import user %d: %w", h.ID, err)
			}
			if mu.ID() != h.ID {
				return fmt.Errorf("import of user %d decoded twin %d: %w", h.ID, mu.ID(), ErrConfig)
			}
			if err := e.cells[h.To].eng.AttachUser(mu); err != nil {
				return err
			}
			e.cells[h.To].migratedIn++
			e.local++
		default:
			return fmt.Errorf("handover of user %d (%d→%d) routed to worker %d owning neither endpoint: %w",
				h.ID, h.From, h.To, e.index, ErrConfig)
		}
		e.owner[h.ID] = h.To
	}
	if err := e.checkConservation("handover"); err != nil {
		return err
	}
	return e.lateTrain()
}
