package scenario

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"tanoq/internal/runner"
	"tanoq/internal/sim"
	"tanoq/internal/store"
)

// This file makes sweep grids durable: every cell gets a content address
// derived from its complete semantic description, and RunDurable runs a
// grid through the result cache — serving previously-computed rows as
// hits, executing only the misses, checkpointing each row the moment it
// exists, and surviving cancellation with partial results.
//
// What goes into a key is decided by the field table (fields.go): a
// cell's key is the SHA-256 of its canonical bytes — the encoding
// format, network.ModelVersion, the cell's kind (open, flows, closed,
// replay, victim-ref), then one line for every table row whose reads set
// holds that kind, in table order. A row names the cells that read it,
// so what a kind reads is in its key by construction, and
// TestCacheKeySound checks each row's claim against simulation. The rows
// that read nothing are exactly what cannot change a result: the display
// name, the [run] table (deadlines, retry budgets) and the [telemetry]
// table (probes are display-only — a probed cell's row is bit-identical
// to an unprobed one's, so cache-served rows simply carry no timeline).
// Worker count is not a scenario key at all; results are bit-identical
// for every value (a tested engine invariant).
// Because the simulator is deterministic, a cache hit is
// indistinguishable from a re-run; the float64 metric fields round-trip
// JSON exactly, so a resumed sweep renders its table bit-identically to
// an uninterrupted one.

// canonOf appends the canonical bytes of visible grid cell i. digests
// maps each trace file the grid replays to its content digest (see
// traceDigests); canonOf only reads it.
func (g *Grid) canonOf(b []byte, i int, digests map[string]string) []byte {
	sc, m := g.Scenario, &g.meta[i]
	r := rec{sc: sc, p: &g.Points[i], kind: kOpen}
	switch {
	case m.trace != "":
		r.kind, r.digest = kReplay, digests[m.trace]
	case m.closed:
		r.kind = kClosed
	case len(sc.Flows) > 0:
		r.kind = kFlows
	}
	return appendCanon(b, &r)
}

// refCanonOf appends the canonical bytes of hidden victim-only reference
// cell ref, whose topology, mode and seed come from its runner cell.
func (g *Grid) refCanonOf(b []byte, ref int) []byte {
	cfg := &g.refCells[ref].Config
	p := Point{Topology: cfg.Kind, Mode: cfg.QoS.Mode, Seed: cfg.Seed}
	return appendCanon(b, &rec{sc: g.Scenario, p: &p, kind: kVictimRef})
}

// traceDigests hashes every trace file the grid replays, once each, in
// grid order — the serial pre-pass that lets per-cell key jobs share the
// memo read-only.
func (g *Grid) traceDigests() (map[string]string, error) {
	digests := map[string]string{}
	for i := range g.meta {
		path := g.meta[i].trace
		if path == "" {
			continue
		}
		if _, ok := digests[path]; ok {
			continue
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: digest trace: %w", g.Scenario.Name, err)
		}
		sum := sha256.Sum256(blob)
		digests[path] = hex.EncodeToString(sum[:])
	}
	return digests, nil
}

// Keys returns the content-address of every visible grid cell, in grid
// order. Two grids whose cells describe the same simulations — same
// scenario semantics under any file-key ordering, spelling, or display
// name — produce identical keys; any semantic difference produces
// different ones. The cells are hashed across one worker per CPU.
func (g *Grid) Keys() ([]string, error) {
	keys := make([]string, len(g.cells))
	err := g.eachKey(0, func(i int, key string) { keys[i] = key })
	if err != nil {
		return nil, err
	}
	return keys, nil
}

// eachKey computes every visible cell's key across workers (0 = one per
// CPU), jobCells cells per job, and hands it to fn(i, key) on the job's
// goroutine, so fn may do the cell's own keyed work in the same job; fn
// must touch only cell i's state. It fails only when a replayed trace
// cannot be read, before any key is handed out.
func (g *Grid) eachKey(workers int, fn func(i int, key string)) error {
	digests, err := g.traceDigests()
	if err != nil {
		return err
	}
	n := len(g.cells)
	runner.Do((n+jobCells-1)/jobCells, workers, func(job int) {
		var buf []byte
		for i := job * jobCells; i < min((job+1)*jobCells, n); i++ {
			buf = g.canonOf(buf[:0], i, digests)
			fn(i, store.KeyOf(buf))
		}
	})
	return nil
}

// jobCells is how many grid cells (or CSV rows) one host-side job
// covers when keying, loading or rendering fans out: coarse enough that
// claiming a job, and the cache lines neighbouring jobs share, cost
// nothing next to the job itself.
const jobCells = 32

// refKeys returns the content-address of every hidden victim-reference
// cell.
func (g *Grid) refKeys() []string {
	keys := make([]string, len(g.refCells))
	var buf []byte
	for r := range g.refCells {
		buf = g.refCanonOf(buf[:0], r)
		keys[r] = store.KeyOf(buf)
	}
	return keys
}

// cachedRow is a visible cell's cache payload: every measured column of
// its Result plus the attempts that produced it. The Point is not
// stored — it is re-derived from the grid on every read, so a cached
// row can never carry a stale label.
type cachedRow struct {
	MeanLatency       float64 `json:"mean_latency"`
	P99Latency        float64 `json:"p99_latency"`
	Accepted          float64 `json:"accepted"`
	PreemptionPct     float64 `json:"preemption_pct"`
	Delivered         int64   `json:"delivered"`
	End               int64   `json:"end"`
	TputMinPct        float64 `json:"tput_min_pct"`
	TputMaxPct        float64 `json:"tput_max_pct"`
	TputStdDevPct     float64 `json:"tput_stddev_pct"`
	Completed         int64   `json:"completed"`
	MeanRTT           float64 `json:"mean_rtt"`
	P99RTT            float64 `json:"p99_rtt"`
	DeliveredFraction float64 `json:"delivered_fraction"`
	Retries           int64   `json:"retries"`
	Drops             int64   `json:"drops"`
	MeanRecovery      float64 `json:"mean_recovery"`
	VictimSlowdown    float64 `json:"victim_slowdown"`
	Attempts          int     `json:"attempts"`
	// WallNS is the wall-clock of the run that produced the row —
	// informational provenance, never compared (cache verification
	// excludes it; see verifyHits).
	WallNS int64 `json:"wall_ns"`
}

// refPayload is a victim-reference cell's cache payload: the baseline
// the slowdown column divides by.
type refPayload struct {
	VictimMean float64 `json:"victim_mean"`
}

func rowToPayload(r *Result) cachedRow {
	return cachedRow{
		MeanLatency: r.MeanLatency, P99Latency: r.P99Latency,
		Accepted: r.Accepted, PreemptionPct: r.PreemptionPct,
		Delivered: r.Delivered, End: int64(r.End),
		TputMinPct: r.TputMinPct, TputMaxPct: r.TputMaxPct, TputStdDevPct: r.TputStdDevPct,
		Completed: r.Completed, MeanRTT: r.MeanRTT, P99RTT: r.P99RTT,
		DeliveredFraction: r.DeliveredFraction, Retries: r.Retries,
		Drops: r.Drops, MeanRecovery: r.MeanRecovery,
		VictimSlowdown: r.VictimSlowdown, Attempts: r.Attempts,
		WallNS: int64(r.Wall),
	}
}

func payloadToRow(p Point, c *cachedRow) Result {
	cps := 0.0
	if c.WallNS > 0 {
		cps = float64(c.End) / (float64(c.WallNS) / 1e9)
	}
	return Result{
		Point:       p,
		MeanLatency: c.MeanLatency, P99Latency: c.P99Latency,
		Accepted: c.Accepted, PreemptionPct: c.PreemptionPct,
		Delivered: c.Delivered, End: sim.Cycle(c.End),
		TputMinPct: c.TputMinPct, TputMaxPct: c.TputMaxPct, TputStdDevPct: c.TputStdDevPct,
		Completed: c.Completed, MeanRTT: c.MeanRTT, P99RTT: c.P99RTT,
		DeliveredFraction: c.DeliveredFraction, Retries: c.Retries,
		Drops: c.Drops, MeanRecovery: c.MeanRecovery,
		VictimSlowdown: c.VictimSlowdown, Attempts: c.Attempts,
		Wall: time.Duration(c.WallNS), CyclesPerSec: cps,
	}
}

// DurableOpts tunes RunDurable. The zero value runs every cell with no
// cache, no deadline and a one-retry budget.
type DurableOpts struct {
	RunOpts
	// Store, when non-nil, memoizes result rows: hits are served without
	// simulating, misses are executed and written back. Failed cells are
	// never cached — a transient failure re-runs on the next attempt.
	Store *store.Store
	// Journal, when non-nil, records each completed cell's key as its
	// row is checkpointed (after the cache write, so every journaled key
	// is backed by a durable entry).
	Journal *store.Journal
	// Deadline, Retries and Backoff are passed through to the runner for
	// every executed cell (Retries: 0 = a single retry, negative = none).
	Deadline time.Duration
	Retries  int
	Backoff  time.Duration
	// VerifySample, when positive, re-executes up to that many evenly-
	// spaced cache hits and compares the recomputed rows against the
	// cached ones; mismatches are reported on DurableReport.VerifyBad.
	VerifySample int
}

// DurableReport is RunDurable's outcome: the rows in grid order plus
// the execution accounting a resumable sweep needs to report.
type DurableReport struct {
	Results []Result
	// Hits counts rows served from the cache; Executed counts visible
	// cells actually simulated (0 on a fully-cached re-run); Failed
	// counts executed cells whose every attempt died (their rows carry
	// Error); Skipped counts cells abandoned by cancellation.
	Hits     int
	Executed int
	Failed   int
	Skipped  int
	// Interrupted is set when cancellation cut the sweep short.
	Interrupted bool
	// Verified counts re-executed hits that matched their cached rows;
	// VerifyBad describes the ones that did not.
	Verified  int
	VerifyBad []string
}

// skippedError marks rows of cells a cancelled sweep never ran.
const skippedError = "skipped: sweep cancelled"

// RunDurable executes the grid through the result cache. Rows whose
// content address hits the store are served without simulating; the
// misses run on the parallel runner with the configured deadlines and
// retry budgets, and each finished row is written back and journaled
// the moment it exists, so an interrupted process loses at most its
// in-flight cells. Hidden victim-reference cells are themselves cached
// and only executed when a missed cell needs their baseline — a fully
// cached sweep executes zero simulations. Without a Store nothing is
// keyed and every cell runs: RunDurable is the one grid executor, cached
// or not. Once ctx is cancelled no new cells are issued; in-flight cells
// drain and checkpoint, and the never-issued ones come back as rows
// marked skipped.
func (g *Grid) RunDurable(ctx context.Context, opts DurableOpts) (*DurableReport, error) {
	rep := &DurableReport{Results: make([]Result, len(g.cells))}

	// Phase 1: with a store, key every cell and load its row, across the
	// workers; then serve hits and collect misses serially, in grid order.
	var keys []string
	hit := make([]bool, len(g.cells))
	if opts.Store != nil {
		keys = make([]string, len(g.cells))
		err := g.eachKey(opts.Workers, func(i int, key string) {
			keys[i] = key
			if row, ok := store.Load[cachedRow](opts.Store, key); ok {
				rep.Results[i] = payloadToRow(g.Points[i], &row)
				hit[i] = true
			}
		})
		if err != nil {
			return nil, err
		}
	}
	missed := make([]int, 0, len(g.cells))
	hitIdx := make([]int, 0, len(g.cells))
	for i := range g.cells {
		if !hit[i] {
			missed = append(missed, i)
			continue
		}
		rep.Hits++
		hitIdx = append(hitIdx, i)
		if opts.OnCell != nil {
			r := &rep.Results[i]
			opts.OnCell(CellEvent{Cell: i, Cached: true, Worker: -1,
				Attempts: r.Attempts, Wall: r.Wall, Cycles: int64(r.End)})
		}
	}

	// Phase 2: baselines. A missed cell with victims needs its reference
	// cell's mean latency; references resolve through the cache first and
	// only the unresolved ones simulate.
	refBase := make(map[int]float64)
	if err := g.resolveRefs(ctx, &opts, missed, refBase); err != nil {
		return nil, err
	}

	// Phase 3: run the misses, checkpointing each row as it lands.
	var (
		ckMu          sync.Mutex
		checkpointErr error
	)
	res := opts.run(ctx, g.cells, missed, func(mi int, r *runner.Result) {
		i := missed[mi]
		row := g.row(i, r, refBase[g.meta[i].ref])
		// The row is all the sweep keeps of a cell: free its collector
		// and driver now rather than when the whole grid ends.
		r.Stats, r.Aux = nil, nil
		rep.Results[i] = row
		if opts.OnCell != nil {
			opts.OnCell(cellEventOf(i, r))
		}
		if row.Error != "" || opts.Store == nil {
			return // failures re-run next time; never cache them
		}
		blob, _ := json.Marshal(rowToPayload(&row))
		err := opts.Store.Put(keys[i], blob)
		if err == nil && opts.Journal != nil {
			err = opts.Journal.Record(keys[i])
		}
		if err != nil {
			ckMu.Lock()
			if checkpointErr == nil {
				checkpointErr = err
			}
			ckMu.Unlock()
		}
	})
	for mi, i := range missed {
		if res[mi].Err == runner.ErrSkipped {
			rep.Results[i] = Result{Point: g.Points[i], Error: skippedError}
			rep.Skipped++
			if opts.OnCell != nil {
				opts.OnCell(CellEvent{Cell: i, Skipped: true, Worker: -1})
			}
			continue
		}
		rep.Executed++
		if rep.Results[i].Error != "" {
			rep.Failed++
		}
	}
	rep.Interrupted = rep.Skipped > 0 || ctx.Err() != nil
	if checkpointErr != nil {
		return rep, fmt.Errorf("scenario %s: checkpoint: %w", g.Scenario.Name, checkpointErr)
	}

	// Phase 4: optional hit verification — re-run a sample of served
	// rows and fail loudly on any divergence (a corrupted store, a
	// model change that kept its ModelVersion).
	if opts.VerifySample > 0 && len(hitIdx) > 0 && !rep.Interrupted {
		if err := g.verifyHits(ctx, &opts, hitIdx, refBase, rep); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// run executes the cells src[idx[0]], src[idx[1]], ... on the runner. It
// is the one place a sweep's cells meet runner.Options, so the misses,
// their reference baselines and verification re-runs share one worker
// count and failure budget. onResult, when non-nil, observes each
// finished cell by its position in idx.
func (opts *DurableOpts) run(ctx context.Context, src []runner.Cell, idx []int, onResult func(j int, r *runner.Result)) []runner.Result {
	cells := src
	if !isPrefix(idx) {
		cells = make([]runner.Cell, len(idx))
		for j, i := range idx {
			cells[j] = src[i]
		}
	}
	retries := opts.Retries
	if retries == 0 {
		retries = 1 // the default single retry; negative means none
	}
	return runner.RunCellsCtx(ctx, cells[:len(idx)], runner.Options{Workers: opts.Workers,
		Retries: retries, Backoff: opts.Backoff, Deadline: opts.Deadline, OnResult: onResult})
}

// isPrefix reports whether idx is 0, 1, ..., len(idx)-1: the cells it
// names are already a prefix of the source slice, so run passes them as
// they are — a sweep with no cache runs every cell without a second copy
// of the grid.
func isPrefix(idx []int) bool {
	for j, i := range idx {
		if i != j {
			return false
		}
	}
	return true
}

// resolveRefs fills refBase for every reference cell some missed cell
// depends on: from the cache when there is one, by simulation otherwise
// (writing the baseline back). A failed reference leaves its baseline
// at zero, so its dependents report no slowdown.
func (g *Grid) resolveRefs(ctx context.Context, opts *DurableOpts, missed []int, refBase map[int]float64) error {
	needed := map[int]bool{}
	for _, i := range missed {
		if m := &g.meta[i]; len(m.victims) > 0 {
			needed[m.ref] = true
		}
	}
	if len(needed) == 0 {
		return nil
	}
	var rkeys []string
	if opts.Store != nil {
		rkeys = g.refKeys()
	}
	var torun []int
	for r := range needed {
		if opts.Store != nil {
			if p, ok := store.Load[refPayload](opts.Store, rkeys[r]); ok {
				refBase[r] = p.VictimMean
				continue
			}
		}
		torun = append(torun, r)
	}
	if len(torun) == 0 {
		return nil
	}
	res := opts.run(ctx, g.refCells, torun, nil)
	for ti, r := range torun {
		if res[ti].Failed() {
			continue
		}
		// The victim set is shared by every reference cell (it is the
		// scenario's victim-role flows), so any dependent's meta works.
		base := 0.0
		for _, i := range missed {
			if m := &g.meta[i]; m.ref == r && len(m.victims) > 0 {
				base = victimMeanLatency(res[ti].Stats, m.victims)
				break
			}
		}
		refBase[r] = base
		if opts.Store != nil && base > 0 {
			blob, _ := json.Marshal(refPayload{VictimMean: base})
			if err := opts.Store.Put(rkeys[r], blob); err != nil {
				return fmt.Errorf("scenario %s: checkpoint reference: %w", g.Scenario.Name, err)
			}
		}
	}
	return nil
}

// verifyHits re-executes up to opts.VerifySample evenly-spaced cache
// hits and compares the recomputed rows to the served ones.
func (g *Grid) verifyHits(ctx context.Context, opts *DurableOpts, hitIdx []int, refBase map[int]float64, rep *DurableReport) error {
	sample := hitIdx
	if opts.VerifySample < len(sample) {
		step := len(hitIdx) / opts.VerifySample
		sample = make([]int, 0, opts.VerifySample)
		for k := 0; k < opts.VerifySample; k++ {
			sample = append(sample, hitIdx[k*step])
		}
	}
	// Verification may need baselines the miss path never resolved.
	if err := g.resolveRefs(ctx, opts, sample, refBase); err != nil {
		return err
	}
	res := opts.run(ctx, g.cells, sample, nil)
	for si, i := range sample {
		if res[si].Err == runner.ErrSkipped {
			continue
		}
		fresh := g.row(i, &res[si], refBase[g.meta[i].ref])
		served := rep.Results[i]
		// Attempts and wall-clock legitimately differ between the original
		// run and the verification re-run, and only the re-run carries a
		// timeline (cached rows never do); everything measured must match
		// exactly.
		fresh.Attempts, served.Attempts = 0, 0
		fresh.Wall, served.Wall = 0, 0
		fresh.CyclesPerSec, served.CyclesPerSec = 0, 0
		fresh.Timeline, served.Timeline = nil, nil
		if fresh != served {
			rep.VerifyBad = append(rep.VerifyBad,
				fmt.Sprintf("cell %d (%s/%s/%s seed %d): cached row diverges from re-execution",
					i, g.Points[i].Pattern, g.Points[i].Topology, g.Points[i].Mode, g.Points[i].Seed))
			continue
		}
		rep.Verified++
	}
	return nil
}
