package scenario

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestHotspotWeightsNeedHotspot pins that hotspot weights fail loudly
// when no cell would read them: a pattern axis without "hotspot", an
// explicit flow list, or a trace. Weights with a hotspot anywhere on the
// pattern axis stay valid.
func TestHotspotWeightsNeedHotspot(t *testing.T) {
	const weights = "hotspot_weights = [1, 8, 1, 1, 1, 1, 1, 1]\n"
	for name, src := range map[string]string{
		"uniform pattern": "pattern = \"uniform\"\nrate = 0.05\n" + weights,
		"flows":           weights + "[[flows]]\nnode = 1\nrate = 0.1\n",
		"trace":           weights + "[workload]\ntrace = \"../../examples/traces/uniform-mesh_x1.trace\"\n",
	} {
		_, err := Parse([]byte(src), ".toml")
		if err == nil || !strings.Contains(err.Error(), "hotspot_weights only shape the hotspot pattern") {
			t.Errorf("%s: weights accepted or rejected for another reason: %v", name, err)
		}
	}
	for _, patterns := range []string{`"hotspot"`, `["tornado", "hotspot"]`} {
		if _, err := Parse([]byte("patterns = "+patterns+"\nrate = 0.05\n"+weights), ".toml"); err != nil {
			t.Errorf("patterns %s: %v", patterns, err)
		}
	}
}

// TestFieldTableDocumented requires every key of the field table — each
// segment of its dotted path — to appear in the package documentation's
// "File format" section.
func TestFieldTableDocumented(t *testing.T) {
	blob, err := os.ReadFile("doc.go")
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(blob), "# File format")
	section, _, _ = strings.Cut(section, "\n// # ")
	for _, f := range fields {
		for _, seg := range strings.Split(strings.ReplaceAll(f.key, "[]", ""), ".") {
			if !regexp.MustCompile(`\b` + regexp.QuoteMeta(seg) + `\b`).MatchString(section) {
				t.Errorf("key %s: %q is not in doc.go's File format section", f.key, seg)
			}
		}
	}
}

// TestSetIndexedElement pins the -set grammar's element paths: a segment
// indexing an existing array-of-tables element merges into it, through
// the CLI and the environment alike, with per-key provenance; a missing
// element, a whole-element assignment or a malformed index is an error.
func TestSetIndexedElement(t *testing.T) {
	const flows = "topology = \"mesh_x1\"\n[[flows]]\nnode = 1\nrate = 0.2\n[[flows]]\nnode = 2\nrate = 0.1\n"
	sc, res, err := Resolve(BlobLayer("f.toml", []byte(flows), ".toml"),
		EnvLayer([]string{"TANOQ_SET_FLOWS[0]__ROLE=victim"}), SetLayer("flows[1].rate=0.3"))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Flows[0].Rate != 0.2 || sc.Flows[0].Role != "victim" || sc.Flows[1].Rate != 0.3 || sc.Flows[1].Node != 2 {
		t.Errorf("indexed overrides decoded wrong: %+v", sc.Flows)
	}
	if o := res.prov["flows[1].rate"]; o.Layer != LayerCLI {
		t.Errorf("flows[1].rate origin %v, want the cli layer", o)
	}
	if o := res.prov["flows[1].node"]; o.Layer != LayerFile {
		t.Errorf("flows[1].node origin %v, want the file layer", o)
	}
	for _, expr := range []string{"flows[2].rate=0.1", "flows[1]=3", "flows[x].rate=0.1",
		"flows[01].rate=0.1", "flows[-1].rate=0.1", "topology[0].x=1", "flows[0.rate=1"} {
		if _, _, err := Resolve(BlobLayer("f.toml", []byte(flows), ".toml"), SetLayer(expr)); err == nil {
			t.Errorf("-set %s: accepted", expr)
		}
	}
}
