package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Origin records where one resolved key's value came from: the layer
// that set it (the Layer* constants; profiles are "profile:<name>") and,
// when the layer has a source, the file (or environment variable, or CLI
// flag expression) and 1-based line.
type Origin struct {
	Layer string
	File  string
	Line  int
}

func (o Origin) String() string {
	s := o.Layer
	if s == "" {
		s = "?"
	}
	if o.File != "" {
		s += " " + o.File
		if o.Line > 0 {
			s += ":" + strconv.Itoa(o.Line)
		}
	} else if o.Line > 0 {
		s += " line " + strconv.Itoa(o.Line)
	}
	return s
}

// Layer is one step of the resolver pipeline. Layers are applied in the
// order given to Resolve; a later layer's keys override an earlier
// layer's (deep-merge for tables, replace-wholesale for scalars and
// lists). Construct layers with FileLayer, BlobLayer, ProfileLayer,
// EnvLayer, SetLayer and OverrideLayer.
type Layer interface {
	apply(r *Resolution) error
}

// Resolution is the record of one Resolve call: the merged raw tree,
// per-key provenance, the profiles collected from the include chain, and
// the files loaded. Its Explain dump is what `noctool sweep -explain`
// prints.
type Resolution struct {
	merged   map[string]any
	prov     map[string]Origin
	profiles map[string]map[string]any
	profProv map[string]Origin // "<profile>.<path>" -> origin
	profile  string
	files    []string // load order: deepest include first
	stack    []string // absolute paths of the active include chain
	rootFile string
	baseDir  string
	defName  string
	sc       *Scenario // set once resolution succeeds
}

// Resolve runs the layered resolver pipeline: each layer's raw tree is
// deep-merged over the previous layers' (tables merge key by key;
// scalars and lists replace the old value wholesale), singular/plural
// axis spellings override each other across layers, and every key
// records which layer and file:line set it. The merged tree is then
// decoded, defaulted and validated exactly like a single-file scenario.
// Parse is a facade over this.
func Resolve(layers ...Layer) (*Scenario, *Resolution, error) {
	r := &Resolution{
		merged:   map[string]any{},
		prov:     map[string]Origin{},
		profiles: map[string]map[string]any{},
		profProv: map[string]Origin{},
	}
	for _, l := range layers {
		if err := l.apply(r); err != nil {
			return nil, nil, err
		}
	}
	sc, err := fromRaw(r.merged, r)
	if err != nil {
		return nil, nil, err
	}
	if sc.Name == "" {
		sc.Name = r.defName
	}
	sc.baseDir = r.baseDir
	if err := sc.Validate(); err != nil {
		return nil, nil, err
	}
	r.sc = sc
	return sc, r, nil
}

// FileLayer loads a scenario file (.json or .toml), first merging its
// include chain (`include = ["base.toml"]`, paths relative to the
// including file, cycles rejected), then the file's own keys over it.
// [profiles.<name>] tables are collected for ProfileLayer rather than
// merged. The first FileLayer anchors relative trace paths and the
// default scenario name.
func FileLayer(path string) Layer { return fileLayer{path} }

type fileLayer struct{ path string }

func (l fileLayer) apply(r *Resolution) error { return r.loadFile(l.path, LayerFile) }

// BlobLayer is FileLayer for in-memory bytes (Parse's path): no include
// chain (in-memory scenarios have no directory to resolve against, so
// `include` is rejected), profiles still collected. name labels errors.
func BlobLayer(name string, blob []byte, ext string) Layer { return blobLayer{name, blob, ext} }

type blobLayer struct {
	name string
	blob []byte
	ext  string
}

func (l blobLayer) apply(r *Resolution) error {
	raw, lines, err := decodeBlob(l.blob, l.ext)
	if err != nil {
		var pe *ParseError
		if errors.As(err, &pe) && pe.File == "" {
			pe.File, pe.Layer = l.name, LayerFile
		}
		return err
	}
	if _, ok := raw["include"]; ok {
		return &ParseError{File: l.name, Line: lines["include"], Layer: LayerFile, Key: "include",
			Err: errors.New("include needs a file-backed scenario (in-memory parse has no base directory)")}
	}
	if err := r.extractProfiles(raw, lines, l.name, LayerFile); err != nil {
		return err
	}
	r.mergeFileTree(raw, lines, l.name, LayerFile)
	return nil
}

func (r *Resolution) loadFile(path, layerName string) error {
	abs, err := filepath.Abs(path)
	if err != nil {
		abs = path
	}
	for _, p := range r.stack {
		if p == abs {
			return &ParseError{File: path, Layer: layerName,
				Err: fmt.Errorf("%w: %s already on the include chain", ErrIncludeCycle, path)}
		}
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		return &ParseError{File: path, Layer: layerName, Err: err}
	}
	raw, lines, err := decodeBlob(blob, strings.ToLower(filepath.Ext(path)))
	if err != nil {
		var pe *ParseError
		if errors.As(err, &pe) && pe.File == "" {
			pe.File, pe.Layer = path, layerName
		}
		return err
	}
	// Includes merge first: they are the layers below this file's own
	// keys, recursively (an include's includes sit below it in turn).
	if inc, ok := raw["include"]; ok {
		delete(raw, "include")
		paths, ok := stringListOf(inc)
		if !ok {
			return &ParseError{File: path, Line: lines["include"], Layer: layerName, Key: "include",
				Err: errors.New("include must be a list of file paths")}
		}
		r.stack = append(r.stack, abs)
		for _, p := range paths {
			child := p
			if !filepath.IsAbs(child) {
				child = filepath.Join(filepath.Dir(path), p)
			}
			if err := r.loadFile(child, LayerInclude); err != nil {
				r.stack = r.stack[:len(r.stack)-1]
				return err
			}
		}
		r.stack = r.stack[:len(r.stack)-1]
	}
	if err := r.extractProfiles(raw, lines, path, layerName); err != nil {
		return err
	}
	r.mergeFileTree(raw, lines, path, layerName)
	r.files = append(r.files, path)
	if layerName == LayerFile {
		r.rootFile = path
		r.baseDir = filepath.Dir(path)
		r.defName = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	}
	return nil
}

func (r *Resolution) mergeFileTree(raw map[string]any, lines map[string]int, file, layerName string) {
	r.mergeTree(r.merged, raw, "", r.prov, func(p string) Origin {
		return Origin{Layer: layerName, File: file, Line: lines[p]}
	}, "")
}

// extractProfiles pulls a file's [profiles.<name>] tables out of its raw
// tree into the resolution's profile store, deep-merging over the same
// profile from files lower in the include chain. Every patch is
// key-checked at its top level immediately — even profiles never
// selected — so a typo cannot hide in an unused profile.
func (r *Resolution) extractProfiles(raw map[string]any, lines map[string]int, file, layerName string) error {
	pv, ok := raw["profiles"]
	if !ok {
		return nil
	}
	delete(raw, "profiles")
	pm, ok := pv.(map[string]any)
	if !ok {
		return &ParseError{File: file, Line: lines["profiles"], Layer: layerName, Key: "profiles",
			Err: errors.New("profiles must be a table of tables ([profiles.<name>])")}
	}
	names := make([]string, 0, len(pm))
	for name := range pm {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ppath := "profiles." + name
		patch, ok := pm[name].(map[string]any)
		if !ok {
			return &ParseError{File: file, Line: lines[ppath], Layer: layerName, Key: ppath,
				Err: fmt.Errorf("profile %q must be a table ([profiles.%s])", name, name)}
		}
		for k := range patch {
			if !schema.keys[k] {
				return &ParseError{File: file, Line: lines[ppath+"."+k], Layer: layerName, Key: ppath + "." + k,
					Err: fmt.Errorf("%w %q in profile %q", ErrUnknownKey, k, name)}
			}
		}
		dst := r.profiles[name]
		if dst == nil {
			dst = map[string]any{}
			r.profiles[name] = dst
		}
		r.mergeTree(dst, patch, name, r.profProv, func(p string) Origin {
			return Origin{Layer: layerName, File: file, Line: lines[ppath+strings.TrimPrefix(p, name)]}
		}, name+".")
	}
	return nil
}

// ProfileLayer applies a named [profiles.<name>] patch collected from
// the file layers below it. Selecting a profile no file defines is an
// ErrUnknownProfile listing what is available.
func ProfileLayer(name string) Layer { return profileLayer{name} }

type profileLayer struct{ name string }

func (l profileLayer) apply(r *Resolution) error {
	patch, ok := r.profiles[l.name]
	if !ok {
		avail := make([]string, 0, len(r.profiles))
		for n := range r.profiles {
			avail = append(avail, n)
		}
		sort.Strings(avail)
		have := "none defined"
		if len(avail) > 0 {
			have = strings.Join(avail, ", ")
		}
		return &ParseError{File: r.rootFile, Layer: LayerProfile, Key: "profiles." + l.name,
			Err: fmt.Errorf("%w %q (available: %s)", ErrUnknownProfile, l.name, have)}
	}
	r.profile = l.name
	layer := LayerProfile + ":" + l.name
	r.mergeTree(r.merged, patch, "", r.prov, func(p string) Origin {
		o := r.profProv[l.name+"."+p]
		return Origin{Layer: layer, File: o.File, Line: o.Line}
	}, "")
	return nil
}

// envPrefix marks scenario-override environment variables: the variable
// name after the prefix is the lowercased dotted key path with "__" for
// the dots, so TANOQ_SET_WORKLOAD__MODE=closed sets workload.mode.
const envPrefix = "TANOQ_SET_"

// EnvLayer applies TANOQ_SET_* overrides from an environment list (pass
// os.Environ(); tests pass literals). Values parse like TOML values,
// falling back to a bare string.
func EnvLayer(environ []string) Layer { return envLayer{environ} }

type envLayer struct{ environ []string }

func (l envLayer) apply(r *Resolution) error {
	for _, kv := range l.environ {
		if !strings.HasPrefix(kv, envPrefix) {
			continue
		}
		name, val, _ := strings.Cut(kv, "=")
		path := strings.ReplaceAll(strings.ToLower(strings.TrimPrefix(name, envPrefix)), "__", ".")
		if err := r.setPath(path, val, Origin{Layer: LayerEnv, File: name}); err != nil {
			return err
		}
	}
	return nil
}

// SetLayer applies CLI `-set key=value` overrides — the top of the
// pipeline. Dotted paths reach nested tables (`-set workload.mode=closed`);
// values parse like TOML values, falling back to a bare string.
func SetLayer(exprs ...string) Layer { return kvLayer{"", exprs} }

// OverrideLayer applies key=value overrides on behalf of a dedicated CLI
// flag (noctool's -quick/-seed/-warmup/-measure), so every CLI knob
// rides the same precedence and provenance mechanism; origin labels the
// flag in -explain output and errors.
func OverrideLayer(origin string, exprs ...string) Layer { return kvLayer{origin, exprs} }

type kvLayer struct {
	origin string // "" = label each expression "-set <expr>"
	exprs  []string
}

func (l kvLayer) apply(r *Resolution) error {
	for _, e := range l.exprs {
		origin := l.origin
		if origin == "" {
			origin = "-set " + e
		}
		key, val, ok := strings.Cut(e, "=")
		key = strings.TrimSpace(key)
		if !ok || key == "" {
			return &ParseError{File: origin, Layer: LayerCLI,
				Err: fmt.Errorf("want key=value, got %q", e)}
		}
		if err := r.setPath(key, val, Origin{Layer: LayerCLI, File: origin}); err != nil {
			return err
		}
	}
	return nil
}

// setPath merges one dotted key path and pre-parsed value into the tree
// (env and CLI layers). A segment may index an existing element of an
// array of tables, spelled as -explain and errors print it
// ("flows[1].rate"); the value then merges into that element.
func (r *Resolution) setPath(path, rawVal string, org Origin) error {
	fail := func(format string, args ...any) error {
		return &ParseError{File: org.File, Layer: org.Layer, Key: path, Err: fmt.Errorf(format, args...)}
	}
	segs := strings.Split(path, ".")
	last := -1 // the deepest indexed segment
	for i, s := range segs {
		name, _, indexed, ok := cutIndex(s)
		if !ok || !validKey(name) {
			return fail("bad key path %q", path)
		}
		if indexed {
			last = i
		}
	}
	dst, prefix := r.merged, ""
	if last >= 0 {
		if last == len(segs)-1 {
			return fail("%q names a whole array element; set one of its keys", path)
		}
		for _, s := range segs[:last+1] {
			name, idx, indexed, _ := cutIndex(s)
			v := dst[name]
			if indexed {
				if list, ok := v.([]any); ok && idx < len(list) {
					v = list[idx]
				} else {
					v = nil
				}
			}
			m, ok := v.(map[string]any)
			if !ok {
				return fail("%q: no table %s to set a key in", path, joinPath(prefix, s))
			}
			dst, prefix = m, joinPath(prefix, s)
		}
		segs = segs[last+1:]
	}
	src := map[string]any{}
	node := src
	for _, s := range segs[:len(segs)-1] {
		child := map[string]any{}
		node[s] = child
		node = child
	}
	node[segs[len(segs)-1]] = parseSetValue(rawVal)
	r.mergeTree(dst, src, prefix, r.prov, func(string) Origin { return org }, "")
	return nil
}

// cutIndex splits a key-path segment into its name and an optional
// element index ("flows[2]"); ok is false for a malformed index.
func cutIndex(seg string) (name string, idx int, indexed, ok bool) {
	name, rest, indexed := strings.Cut(seg, "[")
	if !indexed {
		return name, 0, false, true
	}
	digits, closed := strings.CutSuffix(rest, "]")
	idx, err := strconv.Atoi(digits)
	return name, idx, true, closed && err == nil && idx >= 0 && digits == strconv.Itoa(idx)
}

// parseSetValue parses an env/CLI override value with TOML value syntax
// (numbers, booleans, quoted strings, single-line arrays); anything that
// does not parse is taken as a bare string, so -set pattern=uniform
// needs no quoting.
func parseSetValue(s string) any {
	t := strings.TrimSpace(s)
	if v, err := parseTOMLValue(t, 0); err == nil {
		return v
	}
	return t
}

// mergeTree deep-merges src into dst at the given path prefix, recording
// provenance (from org) for every path it sets into prov and purging the
// provenance of anything it replaces. Tables merge key by key; scalars
// and lists replace the previous value wholesale. aliasStrip is the
// prefix to remove before axis-alias lookup (profile trees are stored
// under "<name>."), "" for the main tree.
func (r *Resolution) mergeTree(dst, src map[string]any, prefix string, prov map[string]Origin, org func(path string) Origin, aliasStrip string) {
	for k, v := range src {
		path := joinPath(prefix, k)
		if alias, ok := axisAlias[strings.TrimPrefix(path, aliasStrip)]; ok {
			aliasPath := aliasStrip + alias
			aliasKey := alias[strings.LastIndexByte(alias, '.')+1:]
			// Retire only a lower layer's alternate spelling: a single
			// source setting both spellings is the decoder's "set either,
			// not both" error, not an override.
			if _, sameSource := src[aliasKey]; !sameSource {
				if _, exists := dst[aliasKey]; exists {
					delete(dst, aliasKey)
					purgeProv(prov, aliasPath)
				}
			}
		}
		if sm, ok := v.(map[string]any); ok {
			dm, ok := dst[k].(map[string]any)
			if !ok {
				purgeProv(prov, path)
				dm = map[string]any{}
				dst[k] = dm
			}
			r.mergeTree(dm, sm, path, prov, org, aliasStrip)
			continue
		}
		purgeProv(prov, path)
		dst[k] = v
		recordProv(prov, path, v, org)
	}
}

// purgeProv drops the provenance of a path and everything beneath it
// (a replaced subtree must not keep its old layers' provenance).
func purgeProv(prov map[string]Origin, path string) {
	delete(prov, path)
	for p := range prov {
		if strings.HasPrefix(p, path+".") || strings.HasPrefix(p, path+"[") {
			delete(prov, p)
		}
	}
}

// recordProv records provenance for a set value: the path itself, plus
// every nested path of a list of tables ([[flows]] elements and their
// keys), so errors anywhere in the subtree locate their source line.
func recordProv(prov map[string]Origin, path string, v any, org func(string) Origin) {
	prov[path] = org(path)
	if list, ok := v.([]any); ok {
		for i, el := range list {
			if m, ok := el.(map[string]any); ok {
				epath := fmt.Sprintf("%s[%d]", path, i)
				prov[epath] = org(epath)
				for k, cv := range m {
					recordProv(prov, joinPath(epath, k), cv, org)
				}
			}
		}
	}
}

// originOf resolves the provenance of a key path, walking up the path
// segments when the exact path was never recorded (a defaulted or
// synthesized key reports its nearest recorded ancestor).
func (r *Resolution) originOf(path string) Origin {
	p := path
	for {
		if o, ok := r.prov[p]; ok {
			return o
		}
		i := strings.LastIndexAny(p, ".[")
		if i < 0 {
			return Origin{}
		}
		p = p[:i]
	}
}

// Explain renders the resolved scenario with per-key provenance: every
// key of the merged tree as `path = value  # layer file:line`, sorted by
// path, plus the axis defaults the validator filled in. This is the
// `noctool sweep -explain` dump.
func (r *Resolution) Explain() string {
	var b strings.Builder
	name := r.defName
	if r.sc != nil {
		name = r.sc.Name
	}
	fmt.Fprintf(&b, "# scenario %s\n", name)
	if r.profile != "" {
		fmt.Fprintf(&b, "# profile %s\n", r.profile)
	}
	if len(r.files) > 0 {
		fmt.Fprintf(&b, "# files %s\n", strings.Join(r.files, " < "))
	}
	type row struct{ path, val, origin string }
	var rows []row
	var collect func(prefix string, m map[string]any)
	collect = func(prefix string, m map[string]any) {
		for k, v := range m {
			path := joinPath(prefix, k)
			switch t := v.(type) {
			case map[string]any:
				collect(path, t)
			case []any:
				if tables, ok := tableList(t); ok {
					for i, el := range tables {
						collect(fmt.Sprintf("%s[%d]", path, i), el)
					}
					continue
				}
				rows = append(rows, row{path, renderValue(v), r.originOf(path).String()})
			default:
				rows = append(rows, row{path, renderValue(v), r.originOf(path).String()})
			}
		}
	}
	collect("", r.merged)
	for _, d := range r.defaultRows() {
		rows = append(rows, d)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].path < rows[j].path })
	width := 0
	for _, row := range rows {
		if n := len(row.path) + 3 + len(row.val); n > width {
			width = n
		}
	}
	for _, row := range rows {
		entry := row.path + " = " + row.val
		fmt.Fprintf(&b, "%-*s  # %s\n", width, entry, row.origin)
	}
	return b.String()
}

// defaultRows lists the defaults the decoder and the validator filled
// in: the field-table rows with a default rendering whose key (in either
// spelling) appears in no layer, under the plural spelling.
func (r *Resolution) defaultRows() []struct{ path, val, origin string } {
	if r.sc == nil {
		return nil
	}
	type row = struct{ path, val, origin string }
	var rows []row
	for _, f := range fields {
		if f.explain == nil || r.merged[f.key] != nil || r.merged[f.plural] != nil {
			continue
		}
		if val := f.explain(r.sc); val != "" {
			path := f.key
			if f.plural != "" {
				path = f.plural
			}
			rows = append(rows, row{path, val, LayerDefault})
		}
	}
	return rows
}

// tableList reports whether a list holds only tables (array-of-tables),
// returning the typed elements.
func tableList(list []any) ([]map[string]any, bool) {
	if len(list) == 0 {
		return nil, false
	}
	out := make([]map[string]any, len(list))
	for i, el := range list {
		m, ok := el.(map[string]any)
		if !ok {
			return nil, false
		}
		out[i] = m
	}
	return out, true
}

// renderValue renders a raw value in TOML-flavoured syntax for Explain.
func renderValue(v any) string {
	switch t := v.(type) {
	case string:
		return strconv.Quote(t)
	case bool:
		return strconv.FormatBool(t)
	case float64:
		if t == float64(int64(t)) {
			return strconv.FormatInt(int64(t), 10)
		}
		return strconv.FormatFloat(t, 'g', -1, 64)
	case []any:
		parts := make([]string, len(t))
		for i, el := range t {
			parts[i] = renderValue(el)
		}
		return "[" + strings.Join(parts, ", ") + "]"
	case nil:
		return "null"
	default:
		return fmt.Sprintf("%v", t)
	}
}

// SplitProfile splits the CLI's "<scenario>#<profile>" argument form.
func SplitProfile(arg string) (path, profile string) {
	if i := strings.LastIndexByte(arg, '#'); i >= 0 {
		return arg[:i], arg[i+1:]
	}
	return arg, ""
}

// joinPath joins dotted key-path segments.
func joinPath(prefix, key string) string {
	if prefix == "" {
		return key
	}
	return prefix + "." + key
}

// stringListOf coerces a raw value to a string list (the include key).
func stringListOf(v any) ([]string, bool) {
	list, ok := v.([]any)
	if !ok {
		return nil, false
	}
	out := make([]string, len(list))
	for i, el := range list {
		s, ok := el.(string)
		if !ok {
			return nil, false
		}
		out[i] = s
	}
	return out, true
}

// decodeBlob decodes scenario bytes in either format into the shared raw
// tree plus a dotted-path -> line source map.
func decodeBlob(blob []byte, ext string) (map[string]any, map[string]int, error) {
	switch ext {
	case ".json":
		var raw map[string]any
		if err := json.Unmarshal(blob, &raw); err != nil {
			return nil, nil, jsonParseError(blob, err)
		}
		return raw, jsonLineIndex(blob), nil
	case ".toml":
		return parseTOMLLines(string(blob))
	default:
		return nil, nil, fmt.Errorf("unsupported scenario format %q (want .json or .toml)", ext)
	}
}

// jsonParseError attaches a line number to encoding/json's offset-based
// syntax and type errors.
func jsonParseError(blob []byte, err error) error {
	var off int64
	var syn *json.SyntaxError
	var typ *json.UnmarshalTypeError
	switch {
	case errors.As(err, &syn):
		off = syn.Offset
	case errors.As(err, &typ):
		off = typ.Offset
	default:
		return &ParseError{Err: err}
	}
	return &ParseError{Line: lineAt(blob, off), Err: err}
}

// lineAt converts a byte offset to a 1-based line number.
func lineAt(blob []byte, off int64) int {
	if off > int64(len(blob)) {
		off = int64(len(blob))
	}
	return 1 + bytes.Count(blob[:off], []byte{'\n'})
}

// jsonLineIndex walks a JSON document with the streaming tokenizer and
// records the line of every object key and array element by dotted path,
// mirroring parseTOMLLines' source map. Best effort: on any tokenizer
// error the partial map is returned (the document already unmarshalled,
// so errors here cannot happen in practice).
func jsonLineIndex(blob []byte) map[string]int {
	lines := map[string]int{}
	dec := json.NewDecoder(bytes.NewReader(blob))
	var walk func(path string) error
	walk = func(path string) error {
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		delim, ok := tok.(json.Delim)
		if !ok {
			return nil // scalar: line recorded at its key/element
		}
		switch delim {
		case '{':
			for dec.More() {
				keyTok, err := dec.Token()
				if err != nil {
					return err
				}
				key, _ := keyTok.(string)
				kpath := joinPath(path, key)
				if lines[kpath] == 0 {
					lines[kpath] = lineAt(blob, dec.InputOffset())
				}
				if err := walk(kpath); err != nil {
					return err
				}
			}
			_, err = dec.Token() // consume '}'
			return err
		case '[':
			for i := 0; dec.More(); i++ {
				epath := fmt.Sprintf("%s[%d]", path, i)
				if lines[epath] == 0 {
					lines[epath] = lineAt(blob, dec.InputOffset())
				}
				if err := walk(epath); err != nil {
					return err
				}
			}
			_, err = dec.Token() // consume ']'
			return err
		}
		return nil
	}
	_ = walk("")
	return lines
}
