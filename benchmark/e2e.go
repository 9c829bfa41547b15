package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childResult is one finished noctool process.
type childResult struct {
	usage
	stdout []byte
	stderr []byte
}

// usage is what the launcher reports about the one process it ran.
type usage struct {
	WallS float64 `json:"wall_s"` // start -> exit
	CPUS  float64 `json:"cpu_s"`  // user + system, from the kernel's rusage
	RSSMB float64 `json:"rss_mb"` // ru_maxrss
}

// launchArg, as the first argument, turns this binary into the launcher.
const launchArg = "-launch"

// launch runs argv as a child of this process, waits for it, writes its
// wall-clock and rusage to fd 3 and returns its exit code. The harness
// starts noctool through a launcher because Linux seeds a new process's
// ru_maxrss with the resident size of the process that spawned it: started
// from the harness itself, a 12 MB noctool reads as whatever the harness
// holds at that moment. A launcher holds 2.4 MB, below anything noctool
// does. Standard output and error pass straight through.
func launch(argv []string) int {
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	start := time.Now()
	err := cmd.Run()
	u := usage{WallS: time.Since(start).Seconds()}
	if cmd.ProcessState == nil {
		fmt.Fprintf(os.Stderr, "launch: %v\n", err)
		return 127
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		u.CPUS = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
		u.RSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if err := json.NewEncoder(os.NewFile(3, "usage")).Encode(u); err != nil {
		fmt.Fprintf(os.Stderr, "launch: reporting usage: %v\n", err)
		return 127
	}
	if code := cmd.ProcessState.ExitCode(); code >= 0 {
		return code
	}
	return 1 // killed by a signal
}

// child runs noctool to completion. The load is a closed loop with one
// client: this is the only place a child starts, it returns only after
// the child has exited, and nothing calls it concurrently. A child that
// ran and exited non-zero comes back with both its measurements and the
// error; one that never ran comes back nil.
func (e *env) child(args ...string) (*childResult, error) {
	usageR, usageW, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	defer usageR.Close()
	cmd := exec.CommandContext(e.ctx, e.self, append([]string{launchArg, e.noctool}, args...)...)
	cmd.Dir = e.work
	cmd.Env = e.childEnv
	cmd.ExtraFiles = []*os.File{usageW}
	// The launcher and noctool share a process group, so cancellation
	// stops both.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err = cmd.Run()
	usageW.Close()
	if err != nil {
		err = fmt.Errorf("noctool %s: %w\n%s", strings.Join(args, " "), err, tail(stderr.Bytes()))
	}
	res := &childResult{stdout: stdout.Bytes(), stderr: stderr.Bytes()}
	// The usage line is a hundred bytes, so the launcher never blocks on
	// the pipe; its absence means noctool never ran or the run was cancelled.
	if json.NewDecoder(usageR).Decode(&res.usage) != nil || e.ctx.Err() != nil {
		if err == nil {
			err = fmt.Errorf("noctool %s: the launcher reported no usage", strings.Join(args, " "))
		}
		return nil, err
	}
	return res, err
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

func tail(b []byte) string {
	if len(b) > 600 {
		b = b[len(b)-600:]
	}
	return string(b)
}

// normalizeCSV drops the wall_ms and cycles_per_sec columns by header
// name — the only columns that differ between two runs of the same
// cells — and returns the digest of what is left plus the parsed rows
// (header first) for the row checks.
func normalizeCSV(out []byte) (digest string, rows [][]string, err error) {
	rows, err = csv.NewReader(bytes.NewReader(out)).ReadAll()
	if err != nil {
		return "", nil, fmt.Errorf("sweep output is not CSV: %w", err)
	}
	if len(rows) == 0 {
		return "", nil, fmt.Errorf("sweep output is empty")
	}
	drop := map[int]bool{}
	for i, name := range rows[0] {
		if name == "wall_ms" || name == "cycles_per_sec" {
			drop[i] = true
		}
	}
	if len(drop) != 2 {
		return "", nil, fmt.Errorf("sweep CSV header lacks wall_ms/cycles_per_sec: %v", rows[0])
	}
	h := sha256.New()
	for _, row := range rows {
		for i, field := range row {
			if !drop[i] {
				io.WriteString(h, field)
				h.Write([]byte{0})
			}
		}
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)), rows, nil
}

// execution is one run of a plan's invocations, back to back.
type execution struct {
	wallS, cpuS, rssMB float64
	digest             string
}

// execute runs the plan once and checks every output, recording each
// grid cell (or experiment) and each check as an op on rep.
func (e *env) execute(p *plan, rep *workloadReport) (execution, error) {
	if p.next != nil {
		p.next()
	}
	var ex execution
	all := sha256.New()
	for _, inv := range p.invs {
		res, err := e.child(inv.args...)
		if res == nil {
			return ex, err
		}
		ex.wallS += res.WallS
		ex.cpuS += res.CPUS
		ex.rssMB = max(ex.rssMB, res.RSSMB)
		if err != nil {
			rep.op(err.Error())
			continue
		}
		rep.op("")
		fmt.Fprintf(all, "%s\n", inv.label)
		switch {
		case inv.csv:
			digest, rows, err := normalizeCSV(res.stdout)
			if err != nil {
				rep.op(inv.label + ": " + err.Error())
				continue
			}
			io.WriteString(all, digest)
			checkRows(inv, rows, rep)
			if p.wantRows != "" {
				rep.op(mismatch(inv.label+": warm rows differ from the cold sweep's", digest, p.wantRows))
			}
		default:
			all.Write(res.stdout)
			// One op per experiment: a section is a title line with an
			// underline of dashes beneath it.
			found := strings.Count(string(res.stdout), "\n---")
			for i := 0; i < inv.sections; i++ {
				why := ""
				if i >= found {
					why = fmt.Sprintf("%s: experiment section %d of %d missing from the output", inv.label, i+1, inv.sections)
				}
				rep.op(why)
			}
		}
		if inv.wantStderr != "" {
			why := ""
			if !bytes.Contains(res.stderr, []byte(inv.wantStderr)) {
				why = fmt.Sprintf("%s: stderr lacks %q: %s", inv.label, inv.wantStderr, tail(res.stderr))
			}
			rep.op(why)
		}
	}
	ex.digest = hex.EncodeToString(all.Sum(nil))
	return ex, nil
}

func mismatch(what, got, want string) string {
	if got == want {
		return ""
	}
	return fmt.Sprintf("%s (%.12s != %.12s)", what, got, want)
}

// checkRows records one op per sweep row: no error, exactly one attempt,
// and — unless the scenario injects faults — everything delivered.
func checkRows(inv invocation, rows [][]string, rep *workloadReport) {
	col := map[string]int{}
	for i, name := range rows[0] {
		col[name] = i
	}
	for _, name := range []string{"error", "attempts", "delivered_fraction"} {
		if _, ok := col[name]; !ok {
			rep.op(fmt.Sprintf("%s: CSV header lacks %q", inv.label, name))
			return
		}
	}
	for n, row := range rows[1:] {
		why := ""
		frac, err := strconv.ParseFloat(row[col["delivered_fraction"]], 64)
		switch {
		case row[col["error"]] != "":
			why = "error " + row[col["error"]]
		case row[col["attempts"]] != "1":
			why = "attempts = " + row[col["attempts"]]
		case err != nil || (!inv.faulted && frac != 1):
			why = "delivered_fraction = " + row[col["delivered_fraction"]]
		}
		if why != "" {
			why = fmt.Sprintf("%s row %d: %s", inv.label, n+1, why)
		}
		rep.op(why)
	}
}

// endToEnd measures every selected workload with tracing off.
func (e *env) endToEnd(selected []workload, rep *report) error {
	for _, w := range selected {
		wr, err := e.measure(w)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		rep.Workloads = append(rep.Workloads, *wr)
	}
	return nil
}

// measure sets a workload up scale.setups times (each: generate the
// inputs, then one discarded warm-up execution), then repeats the
// execution until the timed window is spent. Every metric is the median
// over its samples.
func (e *env) measure(w workload) (*workloadReport, error) {
	wr := &workloadReport{Name: w.name, Why: w.why}
	var p *plan
	var setups []float64
	for i := 0; i < e.sc.setups; i++ {
		// A fresh tree per set-up (selfcheck sets a workload up twice over,
		// and a cache the first set filled would turn the second set's fill
		// into a warm sweep). Every tree stays until the run ends: on this
		// host's ext4, deleted files tax the file operations of the next
		// minute (README.md, "What the filesystem does to these numbers").
		dir, err := os.MkdirTemp(e.work, w.name+"-")
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if p, err = w.gen(e, dir); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		var discard workloadReport
		if _, err := e.execute(p, &discard); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		if discard.Failed > 0 {
			return nil, fmt.Errorf("warm-up: %s", strings.Join(discard.Failures, "; "))
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	var wall, cpu, rss []float64
	for start := time.Now(); len(wall) < e.sc.minReps || time.Since(start).Seconds() < e.sc.seconds; {
		ex, err := e.execute(p, wr)
		if err != nil {
			return nil, err
		}
		wall, cpu, rss = append(wall, ex.wallS), append(cpu, ex.cpuS), append(rss, ex.rssMB)
		if wr.OutputDigest == "" {
			wr.OutputDigest = ex.digest
		}
		wr.op(mismatch(fmt.Sprintf("repeat %d output differs from repeat 1", len(wall)), ex.digest, wr.OutputDigest))
	}
	wr.Metrics = []metric{
		summarize("wall_s", "s", wall),
		summarize("cpu_s", "s", cpu),
		summarize("peak_rss_mb", "MB", rss),
		summarize("setup_s", "s", setups),
	}
	wr.FailedOpsFrac = float64(wr.Failed) / float64(wr.Attempted)
	return wr, nil
}

// selfcheck runs the end-to-end set twice back to back on the same
// binary and holds each pair of medians to the metric's own bound: the
// host's noise floor, stated against the bounds a later PR is judged by.
// Output digests must be identical.
func (e *env) selfcheck(selected []workload, rep *report, stdout io.Writer, outDir string) error {
	sets := [2]*report{}
	for i := range sets {
		sets[i] = &report{Provenance: rep.Provenance, Mode: rep.Mode, Scale: rep.Scale, Warnings: rep.Warnings, BuildS: rep.BuildS}
		if err := e.endToEnd(selected, sets[i]); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "selfcheck: two sets of the same binary, seed %d\n", e.seed)
	fmt.Fprintf(stdout, "%-22s %-12s %12s %12s %9s %7s\n", "workload", "metric", "set 1", "set 2", "diff", "bound")
	bad := 0
	for wi := range sets[0].Workloads {
		a, b := &sets[0].Workloads[wi], &sets[1].Workloads[wi]
		for _, def := range endToEndMetrics {
			ma, _ := a.metric(def.Name)
			mb, _ := b.metric(def.Name)
			diff := (mb.Value - ma.Value) / ma.Value
			verdict := ""
			if diff > def.Bound || -diff > def.Bound {
				verdict = "  BEYOND BOUND"
				bad++
			}
			fmt.Fprintf(stdout, "%-22s %-12s %12.4f %12.4f %+8.1f%% %6.0f%%%s\n", a.Name, def.Name, ma.Value, mb.Value, 100*diff, 100*def.Bound, verdict)
		}
		if a.OutputDigest != b.OutputDigest {
			fmt.Fprintf(stdout, "%-22s output digests differ: %s vs %s\n", a.Name, a.OutputDigest, b.OutputDigest)
			bad++
		}
		if a.Failed+b.Failed > 0 {
			fmt.Fprintf(stdout, "%-22s failed ops: %d and %d\n", a.Name, a.Failed, b.Failed)
			bad++
		}
	}
	if err := sets[1].write(outDir); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d pairs disagree beyond their bound", bad)
	}
	fmt.Fprintln(stdout, "selfcheck: every pair within its bound, digests identical")
	return nil
}
