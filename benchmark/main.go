// Command benchmark is the repository benchmark: it measures what a
// user of this repo pays — the host wall-clock, CPU and memory of
// regenerating results with the real noctool binary — on six workloads,
// and, in a separate traced run, attributes that cost to the layers
// under the CLI by timing calls into each package from out here.
//
//	go run ./benchmark                     all workloads, end to end
//	go run ./benchmark -trace 1            per-layer metrics + span file
//	go run ./benchmark -selfcheck          same-code noise floor vs the bounds
//	go run ./benchmark -workload steady_grid -seed 7 -seconds 10 -trace 0
//
// The last form is what BENCHMARK.json's command runs (through run.sh);
// with a single workload the last line of stdout is one JSON object for
// the driver. README.md defines every metric and workload.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tanoq/internal/network"
)

func main() {
	if len(os.Args) > 2 && os.Args[1] == launchArg {
		os.Exit(launch(os.Args[2:]))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// options is the parsed command line.
type options struct {
	workload  string
	seed      uint64
	seconds   int
	trace     bool
	smoke     bool
	selfcheck bool
	procs     int
	// outDir receives results.json, trace.json and bench.txt; workBase
	// holds the built noctool and the per-run temp tree. Both default to
	// ignored directories of the checkout; the test points them at a
	// temp dir so `go test` leaves the tree clean.
	outDir   string
	workBase string
}

// scale sizes a run. Full is what BENCHMARK.json's numbers mean; smoke
// divides every schedule by 20 and takes one sample of everything, for
// the tier-1 test (it proves the harness runs, not how fast).
type scale struct {
	smoke   bool
	seconds float64 // timed window per workload
	setups  int     // set-ups per workload; setup_s is their median
	minReps int     // timed repeats even when the window is already spent
}

// cycles scales a cycle count (schedule, fault window, probe interval).
func (s scale) cycles(n int) int {
	if !s.smoke {
		return n
	}
	return max(n/20, 50)
}

// count scales a population (seeds, invocations, iterations).
func (s scale) count(n int) int {
	if !s.smoke {
		return n
	}
	return max(n/20, 1)
}

// env is one harness run's fixed context.
type env struct {
	ctx      context.Context
	root     string // repository root (holds go.mod and cmd/noctool)
	work     string // this run's temp tree, removed on exit
	noctool  string // built binary under workBase/bin
	self     string // this binary, which children are launched through (see launch)
	buildS   float64
	procs    int // GOMAXPROCS exported to every child
	seed     uint64
	sc       scale
	childEnv []string
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "all", "workload name, or all")
	fs.Uint64Var(&o.seed, "seed", 42, "seed every generated input derives from")
	fs.IntVar(&o.seconds, "seconds", defaultSeconds, "timed window per workload, in seconds")
	fs.IntVar(&trace, "trace", 0, "0 = end-to-end metrics from noctool child processes; 1 = per-layer metrics from in-process calls, with spans")
	fs.BoolVar(&o.smoke, "smoke", false, "schedules /20 and one sample of everything (the tier-1 test's scale; numbers mean nothing)")
	fs.BoolVar(&o.selfcheck, "selfcheck", false, "run the end-to-end set twice on the same binary and compare against the bounds")
	fs.IntVar(&o.procs, "procs", 0, "GOMAXPROCS for children and in-process layers (0 = min(nproc, 4))")
	fs.StringVar(&o.outDir, "out", "", "output directory (default benchmark/out)")
	fs.StringVar(&o.workBase, "work", "", "build and temp directory (default .bench_build)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || trace < 0 || trace > 1 || o.seconds < 1 {
		fmt.Fprintln(stderr, "benchmark: want -trace 0|1, -seconds >= 1 and no positional arguments")
		return 2
	}
	o.trace = trace == 1
	if err := harness(ctx, o, stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	return 0
}

// defaultSeconds matches BENCHMARK.json's run_seconds.
const defaultSeconds = 10

// harness is one whole run: guard the host, build noctool, run the
// selected mode, write the outputs.
func harness(ctx context.Context, o options, stdout, stderr io.Writer) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	nproc := runtime.NumCPU()
	if o.procs == 0 {
		o.procs = min(nproc, 4)
	}
	if o.procs > nproc {
		return fmt.Errorf("refusing -procs %d on a %d-CPU host: oversubscribed workers measure the scheduler", o.procs, nproc)
	}
	runtime.GOMAXPROCS(o.procs)
	selected, err := selectWorkloads(o.workload)
	if err != nil {
		return err
	}
	if o.outDir == "" {
		o.outDir = filepath.Join(root, "benchmark", "out")
	}
	if o.workBase == "" {
		o.workBase = filepath.Join(root, ".bench_build")
	}
	if err := os.MkdirAll(filepath.Join(o.workBase, "bin"), 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(o.workBase, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	self, err := os.Executable()
	if err != nil {
		return err
	}

	e := &env{
		ctx: ctx, root: root, work: work, self: self, procs: o.procs, seed: o.seed,
		noctool: filepath.Join(o.workBase, "bin", "noctool"),
		sc:      scale{seconds: float64(o.seconds), setups: 3, minReps: 3},
	}
	if o.smoke {
		e.sc = scale{smoke: true, setups: 1, minReps: 1}
	}
	// Children see a fixed worker count, a temp dir inside the run's
	// tree, and none of the TANOQ_* variables the scenario resolver and
	// the auditor read from the environment.
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "TANOQ_") && !strings.HasPrefix(kv, "GOMAXPROCS=") && !strings.HasPrefix(kv, "TMPDIR=") {
			e.childEnv = append(e.childEnv, kv)
		}
	}
	e.childEnv = append(e.childEnv, "GOMAXPROCS="+strconv.Itoa(o.procs), "TMPDIR="+work)

	rep := &report{Provenance: provenance(root, o, nproc), Scale: "full", Mode: "end_to_end"}
	if o.smoke {
		rep.Scale = "smoke"
	}
	if o.trace {
		rep.Mode = "per_layer"
	}
	if busy, ok := busyCPUs(200 * time.Millisecond); ok && busy > 0.1*float64(nproc) {
		rep.Warnings = append(rep.Warnings, fmt.Sprintf(
			"contaminated: %.2f of %d CPUs were busy while the harness sat idle at start; timings include someone else's work", busy, nproc))
	}
	for _, w := range rep.Warnings {
		fmt.Fprintf(stderr, "benchmark: WARNING %s\n", w)
	}

	if err := e.build(); err != nil {
		return err
	}
	rep.BuildS = e.buildS

	switch {
	case o.selfcheck:
		return e.selfcheck(selected, rep, stdout, o.outDir)
	case o.trace:
		err = e.traced(selected, rep)
	default:
		// One discarded run absorbs the first-execution-after-idle
		// outlier (page cache, CPU clocks) before any set-up is timed.
		if _, err = e.child("version"); err == nil {
			err = e.endToEnd(selected, rep)
		}
	}
	if err != nil {
		return err
	}
	rep.print(stdout)
	if err := rep.write(o.outDir); err != nil {
		return err
	}
	if len(selected) == 1 {
		return rep.contractLine(stdout)
	}
	return nil
}

// findRoot walks up from the working directory to the module root: the
// driver starts the harness there, `go test` starts it in benchmark/.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		mod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(mod), "module tanoq\n") {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "noctool")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the tanoq module (no go.mod with cmd/noctool above the working directory)")
		}
		dir = parent
	}
}

// build compiles the program under test from the checkout's source. The
// output path is stable so an unchanged tree relinks nothing; build time
// depends on the build cache, not the code, so it is reported on its own
// and never counted as set-up.
func (e *env) build() error {
	cmd := exec.CommandContext(e.ctx, "go", "build", "-buildvcs=false", "-o", e.noctool, "./cmd/noctool")
	cmd.Dir = e.root
	start := time.Now()
	out, err := cmd.CombinedOutput()
	e.buildS = time.Since(start).Seconds()
	if err != nil {
		return fmt.Errorf("go build ./cmd/noctool: %v\n%s", err, out)
	}
	return nil
}

// prov is the provenance block every output file carries.
type prov struct {
	GitHead    string  `json:"git_head"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	Engine     string  `json:"engine_version"`
	Seed       uint64  `json:"seed"`
	Seconds    int     `json:"seconds"`
	LoadAvg1   float64 `json:"load_avg_1m"`
	Date       string  `json:"date"`
}

func provenance(root string, o options, nproc int) prov {
	return prov{
		GitHead: gitHead(root), GoVersion: runtime.Version(), GOMAXPROCS: o.procs, NProc: nproc,
		CPUModel: cpuModel(), Engine: network.EngineVersion(), Seed: o.seed, Seconds: o.seconds,
		LoadAvg1: loadAvg1(), Date: time.Now().UTC().Format(time.RFC3339),
	}
}

// gitHead names the commit ("-dirty" when tracked files are modified);
// empty where the checkout is not a repository, as under the driver.
func gitHead(root string) string {
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", args...)
		cmd.Dir = root
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	head, err := git("rev-parse", "HEAD")
	if err != nil {
		return ""
	}
	if diff, err := git("status", "--porcelain", "--untracked-files=no"); err == nil && diff != "" {
		head += "-dirty"
	}
	return head
}

func cpuModel() string {
	blob, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return ""
}

// loadAvg1 is the 1-minute load average, recorded as provenance. It is
// not the contamination guard: runs made back to back keep it near the
// worker count on a perfectly quiet host.
func loadAvg1() float64 {
	blob, _ := os.ReadFile("/proc/loadavg")
	fields := strings.Fields(string(blob))
	if len(fields) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(fields[0], 64)
	return v
}

// busyCPUs samples /proc/stat across window, during which the harness
// does nothing, and returns how many CPUs' worth of time the host spent
// neither idle nor waiting for I/O.
func busyCPUs(window time.Duration) (float64, bool) {
	read := func() (busy, total float64, ok bool) {
		blob, err := os.ReadFile("/proc/stat")
		if err != nil {
			return 0, 0, false
		}
		line, _, _ := strings.Cut(string(blob), "\n")
		fields := strings.Fields(line)
		if len(fields) < 6 || fields[0] != "cpu" {
			return 0, 0, false
		}
		for i, f := range fields[1:] {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return 0, 0, false
			}
			total += v
			if i != 3 && i != 4 { // idle, iowait
				busy += v
			}
		}
		return busy, total, true
	}
	b0, t0, ok0 := read()
	time.Sleep(window)
	b1, t1, ok1 := read()
	if !ok0 || !ok1 || t1 <= t0 {
		return 0, false
	}
	return (b1 - b0) / (t1 - t0) * float64(runtime.NumCPU()), true
}

// contractLine prints the driver's result object as the last line of
// stdout: every end-to-end metric of the one selected workload on an
// untraced run, every per-layer metric on a traced one.
func (r *report) contractLine(w io.Writer) error {
	wl := r.Workloads[0]
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	for _, m := range wl.Metrics {
		metrics[m.Name] = mv{m.Value, m.Unit}
	}
	blob, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{wl.Failed == 0, wl.Attempted, wl.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", blob)
	return err
}
