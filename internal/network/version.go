package network

// buildVersion is the build stamp, overridden at build time via
//
//	go build -ldflags "-X tanoq/internal/network.buildVersion=$(git describe --always --dirty)"
//
// (the Makefile's build target does exactly this). Plain `go build` and
// `go run` report "dev". It names the build that made an artifact: it
// rides the version-2 trace header and is printed by `noctool version`.
// It is not part of any result-cache key — ModelVersion is.
var buildVersion = "dev"

// EngineVersion returns the engine's build version stamp ("dev" for
// unstamped builds).
func EngineVersion() string { return buildVersion }

// ModelVersion names what the simulator computes: the SHA-256 of
// testdata/fingerprints.golden followed by internal/scenario's
// testdata/rows.golden. Every result-cache key carries it, so a change
// that re-records either golden — a change to a simulated result or to
// how a row is derived from one — must bump it, and that retires every
// cached row; a change that leaves both goldens alone keeps caches warm
// whatever build it ships in. TestModelVersionPinsGoldens
// (internal/scenario) holds it to the two files.
const ModelVersion = "078bb20c861cf3c5e9c7405c2d16234e0743bc7665a3fb54313a7687e3ce5dfe"
