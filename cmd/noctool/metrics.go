package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"sync"
	"time"

	"tanoq/internal/scenario"
)

// sweepMetrics aggregates the live accounting of one running sweep. It
// is fed from scenario.CellEvent callbacks (worker goroutines) and read
// by the /metrics handler and the -progress printer, so every access
// takes the mutex. The exposition set is fixed at construction — every
// family is always emitted, values start at zero — so the format is
// stable from the first scrape and golden-diffable modulo values.
type sweepMetrics struct {
	mu       sync.Mutex
	start    time.Time
	total    int // visible grid cells
	workers  int
	cached   int
	executed int
	failed   int
	skipped  int
	retries  int // attempts beyond the first, summed over executed cells

	execWall    time.Duration // wall-clock summed over executed cells
	workerWall  []time.Duration
	workerCycle []int64
}

func newSweepMetrics(total, workers int) *sweepMetrics {
	return &sweepMetrics{
		start: time.Now(), total: total, workers: workers,
		workerWall:  make([]time.Duration, workers),
		workerCycle: make([]int64, workers),
	}
}

// onCell folds one finished cell into the counters.
func (m *sweepMetrics) onCell(ev scenario.CellEvent) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch {
	case ev.Cached:
		m.cached++
	case ev.Skipped:
		m.skipped++
	default:
		m.executed++
		if ev.Failed {
			m.failed++
		}
		if ev.Attempts > 1 {
			m.retries += ev.Attempts - 1
		}
		m.execWall += ev.Wall
		if ev.Worker >= 0 && ev.Worker < len(m.workerWall) {
			m.workerWall[ev.Worker] += ev.Wall
			m.workerCycle[ev.Worker] += ev.Cycles
		}
	}
}

// render writes the Prometheus text exposition. Families and label sets
// are fixed, so two scrapes differ only in sample values.
func (m *sweepMetrics) render(w io.Writer) {
	m.mu.Lock()
	defer m.mu.Unlock()
	counter := func(name, help string, v any) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %v\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v any) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, v)
	}
	counter("tanoq_sweep_cells_total", "Visible grid cells in this sweep.", m.total)
	counter("tanoq_sweep_cells_completed_total", "Cells finished so far (cached + executed + skipped).", m.cached+m.executed+m.skipped)
	counter("tanoq_sweep_cells_cached_total", "Cells served from the result cache.", m.cached)
	counter("tanoq_sweep_cells_executed_total", "Cells actually simulated.", m.executed)
	counter("tanoq_sweep_cells_failed_total", "Executed cells whose every attempt died.", m.failed)
	counter("tanoq_sweep_cells_skipped_total", "Cells abandoned by cancellation.", m.skipped)
	counter("tanoq_sweep_cell_retries_total", "Attempts beyond the first, summed over executed cells.", m.retries)
	ratio := 0.0
	if done := m.cached + m.executed; done > 0 {
		ratio = float64(m.cached) / float64(done)
	}
	gauge("tanoq_sweep_cache_hit_ratio", "Cached fraction of completed cells.", fmt.Sprintf("%.6f", ratio))
	gauge("tanoq_sweep_workers", "Runner worker count.", m.workers)
	gauge("tanoq_sweep_elapsed_seconds", "Wall-clock seconds since the sweep started.", fmt.Sprintf("%.3f", time.Since(m.start).Seconds()))
	fmt.Fprintf(w, "# HELP tanoq_sweep_worker_cycles_per_second Simulated cycles per wall second, per worker slot.\n")
	fmt.Fprintf(w, "# TYPE tanoq_sweep_worker_cycles_per_second gauge\n")
	for i := range m.workerCycle {
		cps := 0.0
		if m.workerWall[i] > 0 {
			cps = float64(m.workerCycle[i]) / m.workerWall[i].Seconds()
		}
		fmt.Fprintf(w, "tanoq_sweep_worker_cycles_per_second{worker=\"%d\"} %.0f\n", i, cps)
	}
}

// progressLine formats the -progress stderr line: completed counts plus
// an ETA extrapolated from the mean wall-clock of executed cells,
// divided across the worker pool (cache hits are effectively free, so
// only the executed mean feeds the estimate).
func (m *sweepMetrics) progressLine() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	done := m.cached + m.executed + m.skipped
	var b strings.Builder
	fmt.Fprintf(&b, "progress: %d/%d cells (%d cached, %d failed)", done, m.total, m.cached, m.failed)
	fmt.Fprintf(&b, ", %s elapsed", time.Since(m.start).Round(100*time.Millisecond))
	if remaining := m.total - done; remaining > 0 && m.executed > 0 {
		mean := m.execWall / time.Duration(m.executed)
		workers := m.workers
		if workers < 1 {
			workers = 1
		}
		eta := mean * time.Duration(remaining) / time.Duration(workers)
		fmt.Fprintf(&b, ", ETA %s", eta.Round(100*time.Millisecond))
	}
	return b.String()
}

// serveMetrics starts the live metrics endpoint: Prometheus text at
// /metrics and the standard pprof handlers at /debug/pprof/* on a
// dedicated mux (the default mux stays untouched). The returned stop
// function closes the listener; linger keeps serving that long after
// stop is called, so a scrape can still observe a finished sweep.
func serveMetrics(m *sweepMetrics, addr string, linger time.Duration) (stop func(), err error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		m.render(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("metrics endpoint: %w", err)
	}
	fmt.Fprintf(os.Stderr, "sweep: serving /metrics and /debug/pprof on http://%s\n", ln.Addr())
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return func() {
		if linger > 0 {
			time.Sleep(linger)
		}
		srv.Close()
	}, nil
}

// progressPrinter rate-limits the -progress stderr line: one line per
// completed cell at most every 200ms, plus a final line from Close.
type progressPrinter struct {
	m    *sweepMetrics
	mu   sync.Mutex
	last time.Time
}

func (p *progressPrinter) onCell(scenario.CellEvent) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if time.Since(p.last) < 200*time.Millisecond {
		return
	}
	p.last = time.Now()
	fmt.Fprintln(os.Stderr, p.m.progressLine())
}

// Close prints the final accounting line unconditionally.
func (p *progressPrinter) Close() {
	fmt.Fprintln(os.Stderr, p.m.progressLine())
}
