package scenario

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/bits"
	"os"
	"sync"
	"time"

	"tanoq/internal/runner"
	"tanoq/internal/store"
)

// This file makes sweep grids durable: every cell gets a content address
// derived from its complete semantic description, and Stream runs a grid
// through the result cache a chunk at a time — serving previously-computed
// rows as hits, executing only the misses, checkpointing each row the
// moment it exists, handing each chunk's rows on as it finishes, and
// surviving cancellation with partial results.
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
// An entry is a row's metrics — what the cell measured, a deterministic
// function of its key — plus the attempts and wall-clock of the run that
// produced it (payload, written and read by payloadCodec in entry.go;
// testdata/payload.golden pins its bytes). An entry is a hit only if its
// bytes are exactly what this build writes for some row; anything else
// re-runs the cell and overwrites the entry. The float64 metrics
// round-trip exactly, so a hit renders the row a re-run would, wall-clock
// columns aside, and -cache-verify compares a re-run's metrics with the
// entry's whole.

// canonOf appends the canonical bytes of grid cell i, visible or hidden
// victim reference: the scenario, the point and the meta, the same inputs
// Cell builds it from. digests maps each trace file the grid replays to
// its content digest (see traceDigests); canonOf only reads it.
func (g *Grid) canonOf(b []byte, i int, digests map[string]string) []byte {
	m := &g.meta[i]
	return appendCanon(b, &rec{sc: g.Scenario, p: &g.pts[i], kind: m.kind, digest: digests[g.loads[m.load].trace]})
}

// traceDigests hashes every trace file the grid replays, once each, in
// grid order — the serial pre-pass that lets per-cell key jobs share the
// memo read-only.
func (g *Grid) traceDigests() (map[string]string, error) {
	digests := map[string]string{}
	for _, ld := range g.loads {
		path := ld.trace
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
	digests, err := g.traceDigests()
	if err != nil {
		return nil, err
	}
	keys := make([]string, len(g.Points))
	g.eachKey(0, 0, len(keys), digests, func(i int, key string) { keys[i] = key })
	return keys, nil
}

// eachKey computes the keys of visible cells [first, end) across workers
// (0 = one per CPU), jobCells cells per job, and hands each to fn(i, key)
// on the job's goroutine, so fn may do the cell's own keyed work in the
// same job; fn must touch only cell i's state. digests is the grid's
// traceDigests.
func (g *Grid) eachKey(workers, first, end int, digests map[string]string, fn func(i int, key string)) {
	runner.Do((end-first+jobCells-1)/jobCells, workers, func(job int) {
		var buf []byte
		for i := first + job*jobCells; i < min(first+(job+1)*jobCells, end); i++ {
			buf = g.canonOf(buf[:0], i, digests)
			fn(i, store.KeyOf(buf))
		}
	})
}

// jobCells is how many grid cells (or CSV rows) one host-side job
// covers when keying, loading or rendering fans out: coarse enough that
// claiming a job, and the cache lines neighbouring jobs share, cost
// nothing next to the job itself.
const jobCells = 32

// streamChunk is how many grid cells Stream keys, serves, runs and hands
// to its sink at a time, and so all a sweep holds of its rows, keys and
// runner results at once, whatever the grid's size. It is a multiple of
// jobCells, so a chunk's key and CSV jobs split as a whole grid's would.
const streamChunk = 1024

// DurableOpts tunes Stream and RunDurable. The zero value runs every
// cell with no cache, no deadline and a one-retry budget.
type DurableOpts struct {
	RunOpts
	// Store, when non-nil, memoizes result rows: hits are served without
	// simulating, misses are executed and written back. Failed cells are
	// never cached — a transient failure re-runs on the next attempt.
	Store *store.Store
	// Journal, when non-nil, records each completed cell's key after its
	// row has been written to the cache. Nothing reads it back: a resumed
	// sweep is served by cache hits.
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

	// engines carries each worker's engine across a sweep's runner calls
	// (its chunks, their baselines, verification); Stream sets it.
	engines *runner.Engines
}

// DurableReport is a sweep's outcome: the execution accounting a
// resumable sweep needs to report, plus — from RunDurable only — the rows.
type DurableReport struct {
	// Results holds every row in grid order when RunDurable collected
	// them; Stream hands its rows to a sink instead and leaves it nil.
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

// RunDurable is Stream with a sink that collects every row into the
// report's Results, for callers that need the whole grid at once (degrade
// joins two grids per point, timeline and the benchmark render after the
// run). It returns what Stream returns, with the rows streamed so far on
// any report.
func (g *Grid) RunDurable(ctx context.Context, opts DurableOpts) (*DurableReport, error) {
	results := make([]Result, 0, len(g.Points))
	rep, err := g.Stream(ctx, opts, func(_ int, rows []Result) error {
		results = append(results, rows...)
		return nil
	})
	if rep != nil {
		rep.Results = results
	}
	return rep, err
}

// Stream executes the grid through the result cache and hands its rows
// to sink in grid order, streamChunk cells at a time: for each chunk it
// keys the cells and serves the rows whose content address hits the
// store, resolves the victim-reference baselines the chunk's misses
// need, runs the misses on the parallel runner with the configured
// deadlines and retry budgets, and calls sink(first, rows) with rows[j]
// the row of cell first+j. rows is reused for the next chunk once sink
// returns, so a sweep holds one chunk of rows, keys and runner results
// whatever its size; a sink error stops the sweep and is returned.
//
// Each finished row is written back and journaled the moment it exists,
// so an interrupted process loses at most its in-flight cells. Hidden
// victim-reference cells are themselves cached and only executed when a
// missed cell needs their baseline — a fully cached sweep executes zero
// simulations. Without a Store nothing is keyed and every cell runs:
// Stream is the one grid executor, cached or not. Once ctx is cancelled,
// or a checkpoint fails, no new cells are issued: in-flight cells drain
// and checkpoint, every hit is still served, and each never-issued miss
// comes back in place as a row marked skipped. A checkpoint failure is
// returned with the report once every row has reached sink. Hits sampled
// for verification (DurableOpts.VerifySample) re-run after the last row.
func (g *Grid) Stream(ctx context.Context, opts DurableOpts, sink func(first int, rows []Result) error) (*DurableReport, error) {
	var digests map[string]string
	if opts.Store != nil {
		var err error
		if digests, err = g.traceDigests(); err != nil {
			return nil, err
		}
	}
	n := len(g.Points)
	rep := &DurableReport{}
	opts.engines = new(runner.Engines)
	run, stop := context.WithCancel(ctx)
	defer stop()
	var (
		ckMu          sync.Mutex
		checkpointErr error
	)
	fail := func(err error) {
		ckMu.Lock()
		if checkpointErr == nil {
			checkpointErr = err
		}
		ckMu.Unlock()
		stop()
	}
	refBase := make(map[int]float64)
	hits := make([]uint64, (n+63)/64) // the served cells, for verification
	buf := make([]Result, min(n, streamChunk))
	hit := make([]bool, len(buf))
	keys := make([]string, len(buf))
	missed := make([]int, 0, len(buf))
	for first := 0; first < n; first += streamChunk {
		rows := buf[:min(streamChunk, n-first)]
		clear(rows)
		clear(hit)

		// Key the chunk's cells and load their rows across the workers,
		// then serve the hits and collect the misses serially, in order.
		if opts.Store != nil {
			g.eachKey(opts.Workers, first, first+len(rows), digests, func(i int, key string) {
				keys[i-first] = key
				if p, ok := payloadCodec.load(opts.Store, key); ok {
					rows[i-first] = Result{Point: g.Points[i], metrics: p.metrics, Attempts: int(p.Attempts), Wall: p.Wall}
					hit[i-first] = true
				}
			})
		}
		missed = missed[:0]
		for j := range rows {
			i := first + j
			if !hit[j] {
				missed = append(missed, i)
				continue
			}
			rep.Hits++
			hits[i/64] |= 1 << (i % 64)
			if opts.OnCell != nil {
				r := &rows[j]
				opts.OnCell(CellEvent{Cell: i, Cached: true, Worker: -1,
					Attempts: r.Attempts, Wall: r.Wall, Cycles: int64(r.End)})
			}
		}

		// Baselines: a missed cell with victims needs its reference cell's
		// mean latency; references resolve through the cache first and only
		// the unresolved ones simulate.
		if err := g.resolveRefs(run, &opts, missed, refBase); err != nil {
			fail(err)
		}

		// Run the misses, checkpointing each row as it lands.
		res := opts.run(run, g.Cell, missed, func(mi int, r *runner.Result) {
			i := missed[mi]
			row := g.row(i, r, refBase[int(g.meta[i].ref)])
			// The row is all the sweep keeps of a cell: free its collector
			// and driver now rather than when the chunk ends.
			r.Stats, r.Aux = nil, nil
			rows[i-first] = row
			if opts.OnCell != nil {
				opts.OnCell(cellEventOf(i, r))
			}
			if row.Error != "" || opts.Store == nil {
				return // failures re-run next time; never cache them
			}
			err := payloadCodec.put(opts.Store, keys[i-first], &payload{row.metrics, int64(row.Attempts), row.Wall})
			if err == nil && opts.Journal != nil {
				err = opts.Journal.Record(keys[i-first])
			}
			if err != nil {
				fail(fmt.Errorf("scenario %s: checkpoint: %w", g.Scenario.Name, err))
			}
		})
		for mi, i := range missed {
			if res[mi].Err == runner.ErrSkipped {
				rows[i-first] = Result{Point: g.Points[i], Error: skippedError}
				rep.Skipped++
				if opts.OnCell != nil {
					opts.OnCell(CellEvent{Cell: i, Skipped: true, Worker: -1})
				}
				continue
			}
			rep.Executed++
			if rows[i-first].Error != "" {
				rep.Failed++
			}
		}
		if err := sink(first, rows); err != nil {
			return rep, err
		}
	}
	rep.Interrupted = rep.Skipped > 0 || ctx.Err() != nil
	if checkpointErr != nil {
		return rep, checkpointErr
	}

	// Optional hit verification — re-run a sample of served rows and fail
	// loudly on any divergence (a corrupted store, a model change that
	// kept its ModelVersion).
	if opts.VerifySample > 0 && rep.Hits > 0 && !rep.Interrupted {
		if err := g.verifyHits(ctx, &opts, sampleHits(hits, rep.Hits, opts.VerifySample), digests, refBase, rep); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// run executes the cells cell(idx[0]), cell(idx[1]), ... on the runner,
// each built when a worker claims it. It is the one place a sweep's
// cells meet runner.Options, so the misses, their reference baselines
// and verification re-runs share one worker count and failure budget.
// onResult, when non-nil, observes each finished cell by its position in
// idx.
func (opts *DurableOpts) run(ctx context.Context, cell func(int) runner.Cell, idx []int, onResult func(j int, r *runner.Result)) []runner.Result {
	retries := opts.Retries
	if retries == 0 {
		retries = 1 // the default single retry; negative means none
	}
	return runner.RunEachCtx(ctx, len(idx), func(j int) runner.Cell { return cell(idx[j]) },
		runner.Options{Workers: opts.Workers, Retries: retries, Backoff: opts.Backoff,
			Deadline: opts.Deadline, OnResult: onResult, Engines: opts.engines})
}

// resolveRefs fills refBase for every reference cell some cell of idx
// depends on and no earlier call resolved: from the cache when there is
// one, by simulation otherwise (writing the baseline back). A failed
// reference resolves to zero, so its dependents report no slowdown; a
// skipped one stays unresolved, as do the cells that need it.
func (g *Grid) resolveRefs(ctx context.Context, opts *DurableOpts, idx []int, refBase map[int]float64) error {
	needed := map[int]bool{}
	for _, i := range idx {
		if r := int(g.meta[i].ref); r >= 0 {
			if _, done := refBase[r]; !done {
				needed[r] = true
			}
		}
	}
	if len(needed) == 0 {
		return nil
	}
	rkey := func(r int) string { return store.KeyOf(g.canonOf(nil, r, nil)) }
	var torun []int
	for r := range needed {
		if opts.Store != nil {
			if p, ok := refCodec.load(opts.Store, rkey(r)); ok {
				refBase[r] = p.VictimMean
				continue
			}
		}
		torun = append(torun, r)
	}
	if len(torun) == 0 {
		return nil
	}
	res := opts.run(ctx, g.Cell, torun, nil)
	for ti, r := range torun {
		if res[ti].Err == runner.ErrSkipped {
			continue
		}
		var base float64
		if !res[ti].Failed() {
			base = victimMeanLatency(res[ti].Stats, g.loads[g.meta[r].load].victims)
		}
		refBase[r] = base
		if opts.Store != nil && base > 0 {
			if err := refCodec.put(opts.Store, rkey(r), &refPayload{VictimMean: base}); err != nil {
				return fmt.Errorf("scenario %s: checkpoint reference: %w", g.Scenario.Name, err)
			}
		}
	}
	return nil
}

// sampleHits picks up to want of the nhits cells set in the hits bitset,
// evenly spaced in grid order: every hit when want covers them all, else
// the ⌊k·nhits/want⌋-th hit for k < want, so the sample spans the hits.
func sampleHits(hits []uint64, nhits, want int) []int {
	want = min(want, nhits)
	sample := make([]int, 0, want)
	rank := 0
	for w, word := range hits {
		for ; word != 0 && len(sample) < want; word &= word - 1 {
			if rank == len(sample)*nhits/want {
				sample = append(sample, w*64+bits.TrailingZeros64(word))
			}
			rank++
		}
	}
	return sample
}

// verifyHits re-executes the sampled cache hits and compares each
// recomputed row to the one the store served, loaded from it again.
func (g *Grid) verifyHits(ctx context.Context, opts *DurableOpts, sample []int, digests map[string]string, refBase map[int]float64, rep *DurableReport) error {
	// Verification may need baselines the miss path never resolved.
	if err := g.resolveRefs(ctx, opts, sample, refBase); err != nil {
		return err
	}
	res := opts.run(ctx, g.Cell, sample, nil)
	for si, i := range sample {
		if res[si].Err == runner.ErrSkipped {
			continue
		}
		p := &g.Points[i]
		bad := func(why string) {
			rep.VerifyBad = append(rep.VerifyBad,
				fmt.Sprintf("cell %d (%s/%s/%s seed %d): %s", i, p.Pattern, p.Topology, p.Mode, p.Seed, why))
		}
		cached, ok := payloadCodec.load(opts.Store, store.KeyOf(g.canonOf(nil, i, digests)))
		if !ok {
			bad("cached row no longer loads")
			continue
		}
		// Attempts and wall-clock legitimately differ between the original
		// run and the verification re-run; everything measured must match
		// exactly.
		fresh := g.row(i, &res[si], refBase[int(g.meta[i].ref)])
		if fresh.Error != "" || fresh.metrics != cached.metrics {
			bad("cached row diverges from re-execution")
			continue
		}
		rep.Verified++
	}
	return nil
}
