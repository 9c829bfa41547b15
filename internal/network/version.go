package network

// buildVersion is the engine version stamp, overridden at build time via
//
//	go build -ldflags "-X tanoq/internal/network.buildVersion=$(git describe --always --dirty)"
//
// (the Makefile's build target does exactly this). Plain `go build` and
// `go run` report "dev". The stamp is part of every content-addressed
// result-cache key (internal/store via internal/scenario), rides the
// version-2 trace header and is printed by `noctool version` — any
// engine change that ships under a new stamp invalidates cached results
// rather than silently serving stale rows.
var buildVersion = "dev"

// EngineVersion returns the engine's build version stamp ("dev" for
// unstamped builds).
func EngineVersion() string { return buildVersion }
