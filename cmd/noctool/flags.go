package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"tanoq/internal/experiments"
	"tanoq/internal/scenario"
)

// newFlagSet builds one subcommand's flag set with its own usage text:
// synopsis is the one-line invocation form, body the subcommand's help
// paragraphs (printed above the flag defaults).
func newFlagSet(name, synopsis, body string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: %s\n", synopsis)
		if body != "" {
			fmt.Fprintln(fs.Output(), body)
		}
		fmt.Fprintln(fs.Output(), "flags:")
		fs.PrintDefaults()
	}
	return fs
}

// simFlags are the simulation knobs shared by every cell-running
// subcommand (sweep, degrade, timeline, trace, and the experiment drivers):
// the RNG seed, the warmup/measure schedule, worker fan-out and the quick
// scale.
type simFlags struct {
	seed     uint64
	warmup   int
	measure  int
	parallel int
	quick    bool
}

// addSimFlags registers the shared simulation flags on a subcommand's
// flag set.
func addSimFlags(fs *flag.FlagSet) *simFlags {
	s := &simFlags{}
	fs.Uint64Var(&s.seed, "seed", 42, "RNG seed")
	fs.IntVar(&s.warmup, "warmup", 20_000, "warmup cycles before measurement")
	fs.IntVar(&s.measure, "measure", 100_000, "measurement window in cycles")
	fs.IntVar(&s.parallel, "parallel", 0, "simulation workers (0 = one per CPU, 1 = sequential; results identical)")
	fs.BoolVar(&s.quick, "quick", false, "scale runs down for a fast smoke pass")
	return s
}

// check refuses a shared flag value no run can honour. The runner reads
// a negative worker count as "one per CPU", which -parallel spells 0.
func (s *simFlags) check() error {
	if s.parallel < 0 {
		return fmt.Errorf("-parallel %d: want 0 (one worker per CPU) or a positive worker count", s.parallel)
	}
	return nil
}

// explicitFlags reports which flags the user actually passed (by name);
// parse the set first.
func explicitFlags(fs *flag.FlagSet) map[string]bool {
	m := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { m[f.Name] = true })
	return m
}

// params assembles the experiment drivers' parameters from the shared
// flags, with -quick's scale below any explicitly-set schedule flag.
func (s *simFlags) params(explicit map[string]bool) experiments.Params {
	p := experiments.Params{Seed: s.seed, Warmup: s.warmup, Measure: s.measure}
	if s.quick {
		p = experiments.QuickParams()
		p.Seed = s.seed
		if explicit["warmup"] {
			p.Warmup = s.warmup
		}
		if explicit["measure"] {
			p.Measure = s.measure
		}
	}
	p.Workers = s.parallel
	return p
}

// multiFlag collects a repeatable string flag (-set key=value).
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ", ") }

func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

// layerOpts names the CLI-side layers of the scenario resolver pipeline,
// shared by sweep, degrade, timeline and trace record. Precedence, lowest
// first: include chain < file < profile < TANOQ_SET_* env < -quick <
// explicit -seed/-warmup/-measure < -set. A profile is named by the
// scenario argument's #profile suffix.
type layerOpts struct {
	sim      *simFlags
	explicit map[string]bool
	set      []string
}

// addLayerFlags registers the resolver flags of a scenario-running
// subcommand — the shared simulation flags and -set, whose help text
// starts with helpPrefix — and returns the function that assembles their
// layerOpts once fs is parsed.
func addLayerFlags(fs *flag.FlagSet, helpPrefix string) func() layerOpts {
	sim := addSimFlags(fs)
	var set multiFlag
	fs.Var(&set, "set", helpPrefix+"top-layer override `key=value` (dotted paths; repeatable)")
	return func() layerOpts {
		return layerOpts{sim: sim, explicit: explicitFlags(fs), set: set}
	}
}

// runOpts is how sweep, degrade and timeline execute a grid: the worker
// count from -parallel, and the per-cell deadline, retry budget and
// backoff from the scenario's [run] table.
func (lo layerOpts) runOpts(sc *scenario.Scenario) scenario.DurableOpts {
	return scenario.DurableOpts{
		RunOpts:  scenario.RunOpts{Workers: lo.sim.parallel},
		Deadline: sc.Deadline,
		Retries:  sc.Retries,
		Backoff:  sc.Backoff,
	}
}

// loadLayered resolves a scenario argument ("file" or "file#profile")
// through the layered resolver. It is the first thing every
// scenario-running subcommand does, so it also refuses the flag values
// the decoder never sees.
func loadLayered(arg string, lo layerOpts) (*scenario.Scenario, *scenario.Resolution, error) {
	if err := lo.sim.check(); err != nil {
		return nil, nil, err
	}
	path, prof := scenario.SplitProfile(arg)
	layers := []scenario.Layer{scenario.FileLayer(path)}
	if prof != "" {
		layers = append(layers, scenario.ProfileLayer(prof))
	}
	layers = append(layers, scenario.EnvLayer(os.Environ()))
	if lo.sim.quick {
		q := experiments.QuickParams()
		layers = append(layers, scenario.OverrideLayer("-quick",
			fmt.Sprintf("warmup=%d", q.Warmup), fmt.Sprintf("measure=%d", q.Measure)))
	}
	if lo.explicit["seed"] {
		layers = append(layers, scenario.OverrideLayer("-seed", fmt.Sprintf("seed=%d", lo.sim.seed)))
	}
	if lo.explicit["warmup"] {
		layers = append(layers, scenario.OverrideLayer("-warmup", fmt.Sprintf("warmup=%d", lo.sim.warmup)))
	}
	if lo.explicit["measure"] {
		layers = append(layers, scenario.OverrideLayer("-measure", fmt.Sprintf("measure=%d", lo.sim.measure)))
	}
	if len(lo.set) > 0 {
		layers = append(layers, scenario.SetLayer(lo.set...))
	}
	return scenario.Resolve(layers...)
}
