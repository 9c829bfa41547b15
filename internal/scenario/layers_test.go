package scenario

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// writeTree writes a map of relative path -> contents under a temp dir
// and returns the dir.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, body := range files {
		p := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestLayerPrecedence pins the resolver's ordering contract: every later
// layer overrides the same key set by any earlier one, one layer at a
// time across the whole pipeline.
func TestLayerPrecedence(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"base.toml": "rate = 0.01\nwarmup = 100\nmeasure = 1000\n",
		"child.toml": "include = [\"base.toml\"]\nrate = 0.02\n\n" +
			"[profiles.p]\nrate = 0.03\n",
	})
	file := filepath.Join(dir, "child.toml")

	steps := []struct {
		name   string
		layers []Layer
		want   float64
	}{
		{"include", []Layer{FileLayer(filepath.Join(dir, "base.toml"))}, 0.01},
		{"file over include", []Layer{FileLayer(file)}, 0.02},
		{"profile over file", []Layer{FileLayer(file), ProfileLayer("p")}, 0.03},
		{"env over profile", []Layer{FileLayer(file), ProfileLayer("p"),
			EnvLayer([]string{"TANOQ_SET_RATE=0.04"})}, 0.04},
		{"flag over env", []Layer{FileLayer(file), ProfileLayer("p"),
			EnvLayer([]string{"TANOQ_SET_RATE=0.04"}), OverrideLayer("-rate", "rate=0.05")}, 0.05},
		{"set over flag", []Layer{FileLayer(file), ProfileLayer("p"),
			EnvLayer([]string{"TANOQ_SET_RATE=0.04"}), OverrideLayer("-rate", "rate=0.05"),
			SetLayer("rate=0.06")}, 0.06},
	}
	for _, st := range steps {
		sc, _, err := Resolve(st.layers...)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if !reflect.DeepEqual(sc.Rates, []float64{st.want}) {
			t.Errorf("%s: rates = %v, want [%v]", st.name, sc.Rates, st.want)
		}
	}
}

// TestIncludeChain checks a two-deep include chain merges deepest-first
// and that the resolution records the load order.
func TestIncludeChain(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"grand.toml":  "rate = 0.01\nseed = 7\nwarmup = 50\n",
		"parent.toml": "include = [\"grand.toml\"]\nwarmup = 99\n",
		"child.toml":  "include = [\"parent.toml\"]\nmeasure = 777\n",
	})
	sc, res, err := Resolve(FileLayer(filepath.Join(dir, "child.toml")))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Warmup != 99 || sc.Measure != 777 || !reflect.DeepEqual(sc.Seeds, []uint64{7}) {
		t.Errorf("merged chain: warmup=%d measure=%d seeds=%v", sc.Warmup, sc.Measure, sc.Seeds)
	}
	files := res.files
	if len(files) != 3 || !strings.HasSuffix(files[0], "grand.toml") || !strings.HasSuffix(files[2], "child.toml") {
		t.Errorf("files order: %v", files)
	}
	if org, ok := res.prov["warmup"]; !ok || org.Layer != LayerInclude || !strings.HasSuffix(org.File, "parent.toml") {
		t.Errorf("warmup origin: %+v %v", org, ok)
	}
	if org, ok := res.prov["measure"]; !ok || org.Layer != LayerFile {
		t.Errorf("measure origin: %+v %v", org, ok)
	}
}

// TestIncludeCycle requires the resolver to reject a cyclic include
// chain with ErrIncludeCycle instead of recursing forever.
func TestIncludeCycle(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"a.toml": "include = [\"b.toml\"]\n",
		"b.toml": "include = [\"a.toml\"]\n",
	})
	_, _, err := Resolve(FileLayer(filepath.Join(dir, "a.toml")))
	if !errors.Is(err, ErrIncludeCycle) {
		t.Fatalf("want ErrIncludeCycle, got %v", err)
	}
	var pe *ParseError
	if !errors.As(err, &pe) || !strings.HasSuffix(pe.File, "a.toml") {
		t.Errorf("cycle ParseError: %v", err)
	}
}

// TestUnknownKeyEveryLayer pins the contract that typo rejection holds
// at every layer of the pipeline, and that the resulting ParseError
// names the layer that introduced the bad key.
func TestUnknownKeyEveryLayer(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"badinc.toml":  "bogus = 1\n",
		"useinc.toml":  "include = [\"badinc.toml\"]\nrate = 0.05\n",
		"badfile.toml": "rate = 0.05\nbogus = 1\n",
		"badprof.toml": "rate = 0.05\n\n[profiles.p]\nbogus = 1\n",
		"ok.toml":      "rate = 0.05\n",
	})
	cases := []struct {
		name   string
		layers []Layer
		layer  string
	}{
		{"include", []Layer{FileLayer(filepath.Join(dir, "useinc.toml"))}, LayerInclude},
		{"file", []Layer{FileLayer(filepath.Join(dir, "badfile.toml"))}, LayerFile},
		{"profile", []Layer{FileLayer(filepath.Join(dir, "badprof.toml"))}, LayerFile},
		{"env", []Layer{FileLayer(filepath.Join(dir, "ok.toml")),
			EnvLayer([]string{"TANOQ_SET_BOGUS=1"})}, LayerEnv},
		{"set", []Layer{FileLayer(filepath.Join(dir, "ok.toml")),
			SetLayer("bogus=1")}, LayerCLI},
	}
	for _, c := range cases {
		_, _, err := Resolve(c.layers...)
		if !errors.Is(err, ErrUnknownKey) {
			t.Errorf("%s: want ErrUnknownKey, got %v", c.name, err)
			continue
		}
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Errorf("%s: not a ParseError: %v", c.name, err)
			continue
		}
		if pe.Layer != c.layer {
			t.Errorf("%s: layer %q, want %q (err: %v)", c.name, pe.Layer, c.layer, err)
		}
	}
}

// TestUnknownProfile checks profile selection fails loudly and lists
// what is available.
func TestUnknownProfile(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"s.toml": "rate = 0.05\n\n[profiles.quick]\nwarmup = 1\n\n[profiles.full]\nwarmup = 2\n",
	})
	_, _, err := Resolve(FileLayer(filepath.Join(dir, "s.toml")), ProfileLayer("nope"))
	if !errors.Is(err, ErrUnknownProfile) {
		t.Fatalf("want ErrUnknownProfile, got %v", err)
	}
	if !strings.Contains(err.Error(), "full, quick") {
		t.Errorf("available profiles not listed: %v", err)
	}
}

// TestProfileThroughInclude checks profiles defined in an included base
// are selectable from the including scenario, and that the includer can
// extend them.
func TestProfileThroughInclude(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"base.toml": "rate = 0.05\nwarmup = 1000\n\n[profiles.quick]\nwarmup = 10\n",
		"child.toml": "include = [\"base.toml\"]\nmeasure = 500\n\n" +
			"[profiles.quick]\nmeasure = 20\n",
	})
	sc, res, err := Resolve(FileLayer(filepath.Join(dir, "child.toml")), ProfileLayer("quick"))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Warmup != 10 || sc.Measure != 20 {
		t.Errorf("inherited+extended profile: warmup=%d measure=%d", sc.Warmup, sc.Measure)
	}
	if res.profile != "quick" {
		t.Errorf("profile = %q", res.profile)
	}
	if org, ok := res.prov["warmup"]; !ok || org.Layer != "profile:quick" || !strings.HasSuffix(org.File, "base.toml") {
		t.Errorf("profile key origin: %+v %v", org, ok)
	}
}

// TestAliasRetirementAcrossLayers pins the singular/plural axis contract
// across layers: a later layer setting either spelling replaces the
// other spelling set below it, while a single source setting both is
// still the decoder's set-either-not-both error.
func TestAliasRetirementAcrossLayers(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"s.toml": "rates = [0.01, 0.02]\ntopology = \"mesh_x1\"\n",
	})
	sc, _, err := Resolve(FileLayer(filepath.Join(dir, "s.toml")),
		SetLayer("rate=0.07", `topologies=["mecs"]`))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sc.Rates, []float64{0.07}) {
		t.Errorf("singular -set should retire the file's plural: rates = %v", sc.Rates)
	}
	if len(sc.Topologies) != 1 || sc.Topologies[0].String() != "mecs" {
		t.Errorf("plural -set should retire the file's singular: topologies = %v", sc.Topologies)
	}

	// Both spellings in ONE source stay a decoder error.
	_, _, err = Resolve(BlobLayer("both", []byte("rate = 0.01\nrates = [0.02]\n"), ".toml"))
	if err == nil || !strings.Contains(err.Error(), "not both") {
		t.Errorf("single-source double spelling: %v", err)
	}
}

// TestDeepMergeTables checks nested tables merge key-by-key across
// layers (maps recurse; scalars replace).
func TestDeepMergeTables(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"base.toml":  "rate = 0.05\n\n[burst]\nmean_on = 40\nmean_off = 400\n",
		"child.toml": "include = [\"base.toml\"]\n\n[burst]\nmean_off = 120\n",
	})
	sc, _, err := Resolve(FileLayer(filepath.Join(dir, "child.toml")),
		EnvLayer([]string{"TANOQ_SET_BURST__MEAN_ON=60"}))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Burst.MeanOn != 60 || sc.Burst.MeanOff != 120 {
		t.Errorf("deep merge: burst = %+v", sc.Burst)
	}
}

// TestExplainProvenance spot-checks the -explain rendering: every
// resolved key is listed with the layer and file:line that set it.
func TestExplainProvenance(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"base.toml":  "warmup = 100\nmeasure = 1000\n",
		"child.toml": "include = [\"base.toml\"]\nrate = 0.05\n\n[profiles.q]\nwarmup = 5\n",
	})
	_, res, err := Resolve(FileLayer(filepath.Join(dir, "child.toml")), ProfileLayer("q"),
		SetLayer("measure=50"))
	if err != nil {
		t.Fatal(err)
	}
	out := res.Explain()
	for _, want := range []string{
		"# profile q",
		"rate = 0.05",
		"child.toml:2",
		"warmup = 5",
		"profile:q",
		"measure = 50",
		"-set measure=50",
		"# default",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain() missing %q:\n%s", want, out)
		}
	}
}

// TestSetValueParsing pins the override value grammar: TOML scalars and
// arrays parse as such, anything else is a bare string.
func TestSetValueParsing(t *testing.T) {
	dir := writeTree(t, map[string]string{"s.toml": "rate = 0.05\n"})
	sc, _, err := Resolve(FileLayer(filepath.Join(dir, "s.toml")),
		SetLayer("pattern=tornado", "seeds=[1, 2]"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sc.Patterns, []string{"tornado"}) {
		t.Errorf("bare string: %v", sc.Patterns)
	}
	if !reflect.DeepEqual(sc.Seeds, []uint64{1, 2}) {
		t.Errorf("array value: %v", sc.Seeds)
	}

	// Dotted paths reach nested tables (a closed-loop cell, so no rate
	// axis in the base file).
	closed := writeTree(t, map[string]string{"c.toml": "pattern = \"uniform\"\n"})
	sc, _, err = Resolve(FileLayer(filepath.Join(closed, "c.toml")),
		SetLayer("workload.mode=closed"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sc.WorkloadModes, []string{"closed"}) {
		t.Errorf("dotted path: %v", sc.WorkloadModes)
	}

	_, _, err = Resolve(FileLayer(filepath.Join(dir, "s.toml")), SetLayer("justakey"))
	if err == nil || !strings.Contains(err.Error(), "key=value") {
		t.Errorf("malformed -set: %v", err)
	}
}

// TestBlobLayerRejectsInclude pins that in-memory scenarios cannot
// include (no base directory to resolve against).
func TestBlobLayerRejectsInclude(t *testing.T) {
	_, err := Parse([]byte("include = [\"base.toml\"]\n"), ".toml")
	if err == nil || !strings.Contains(err.Error(), "include") {
		t.Fatalf("blob include: %v", err)
	}
}

// TestParseErrorShape checks the structured error carries file, line,
// key and layer, and renders the same line-numbered message style the
// flat loader always had.
func TestParseErrorShape(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"s.toml": "rate = 0.05\nwarmup = \"soon\"\n",
	})
	_, _, err := Resolve(FileLayer(filepath.Join(dir, "s.toml")))
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("not a ParseError: %v", err)
	}
	if !strings.HasSuffix(pe.File, "s.toml") || pe.Line != 2 || pe.Key != "warmup" {
		t.Errorf("ParseError fields: %+v", pe)
	}
	if !strings.Contains(err.Error(), "s.toml:2") {
		t.Errorf("message not line-numbered: %v", err)
	}
}

// TestSplitProfile pins the file#profile argument syntax.
func TestSplitProfile(t *testing.T) {
	for arg, want := range map[string][2]string{
		"a.toml":         {"a.toml", ""},
		"a.toml#quick":   {"a.toml", "quick"},
		"dir#x/a.toml#q": {"dir#x/a.toml", "q"},
	} {
		if p, prof := SplitProfile(arg); p != want[0] || prof != want[1] {
			t.Errorf("SplitProfile(%q) = %q, %q", arg, p, prof)
		}
	}
}

// TestProfileCacheTransparency is the PR's cache contract: selecting a
// profile changes the grid's cache keys exactly when it changes a
// result-affecting field. A profile patching only the [run] table leaves
// every key identical; one touching the rate axis changes them.
func TestProfileCacheTransparency(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"s.toml": "rate = 0.05\nwarmup = 100\nmeasure = 1000\n\n" +
			"[profiles.durable]\n[profiles.durable.run]\ndeadline_ms = 60000\nretries = 3\n\n" +
			"[profiles.hot]\nrate = 0.09\n",
	})
	keys := func(layers ...Layer) []string {
		t.Helper()
		sc, _, err := Resolve(layers...)
		if err != nil {
			t.Fatal(err)
		}
		g, err := sc.Grid()
		if err != nil {
			t.Fatal(err)
		}
		ks, err := g.Keys()
		if err != nil {
			t.Fatal(err)
		}
		return ks
	}
	file := filepath.Join(dir, "s.toml")
	plain := keys(FileLayer(file))
	durable := keys(FileLayer(file), ProfileLayer("durable"))
	hot := keys(FileLayer(file), ProfileLayer("hot"))
	if !reflect.DeepEqual(plain, durable) {
		t.Errorf("[run]-only profile changed cache keys:\n%v\nvs\n%v", plain, durable)
	}
	if reflect.DeepEqual(plain, hot) {
		t.Errorf("rate-changing profile left cache keys identical: %v", plain)
	}
}
