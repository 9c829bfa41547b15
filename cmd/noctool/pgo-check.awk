# The call sites default.pgo must keep inlined, for `make pgo-check`:
#
#   go build -pgo=cmd/noctool/default.pgo -gcflags=-m ./internal/network 2>&1 |
#       awk -f cmd/noctool/pgo-check.awk internal/network/arbiter.go internal/network/network.go internal/network/events.go -
#
# The source files come first (they say which function a line belongs to),
# the compiler's -m report last. None of these sites is inlined under
# -pgo=off, so a missing one means the profile no longer matches the tree.
# A generic callee is named without its type arguments: the compiler names
# an instantiation by its shape, which spells the record's fields, so the
# profile also goes stale when a record type gains or loses a field.
BEGIN {
	# want[caller, callee] = call sites of callee that must be inlined into caller
	want["arbitrate", "(*inBuf).allocVC"] = 2             # sole-candidate path, serve loop
	want["arbitrate", "(*Network).grant"] = 2             # the same two
	want["arbitrate", "(*Network).worstVictim"] = 1       # sole-candidate path
	want["arbitrate", "(*Network).tryInversionPreempt"] = 1
	want["Step", "(*Network).fireReleases"] = 1
	want["Step", "(*Network).processEvents"] = 1
	want["Step", "(*Network).fireDelivers"] = 1
	want["Step", "(*Network).fireAcks"] = 1
	want["Step", "(*Network).fireHeads"] = 1
	want["Step", "(*Network).scheduleArrival"] = 1
	want["schedule", "(*wheel).file"] = 1                 # the event wheel's direct filing: NACKs, timers
}

# Source files: remember the top-level function each line sits in.
FILENAME != "-" {
	if ($0 ~ /^func /) {
		fn = $0
		sub(/^func (\([^)]*\) )?/, "", fn)
		sub(/[(\[].*/, "", fn)
	}
	owner[FILENAME, FNR] = fn
	next
}

# internal/network/arbiter.go:181:23: inlining call to (*inBuf).allocVC
/: inlining call to / {
	split($1, at, ":")
	callee = $0
	sub(/^.*: inlining call to /, "", callee)
	gsub(/\[[^]]*\]/, "", callee)
	site = at[1] SUBSEP at[2] SUBSEP at[3] SUBSEP callee
	if (!(site in seen)) {
		seen[site] = 1
		got[owner[at[1], at[2]], callee]++
	}
}

END {
	for (k in want) {
		split(k, part, SUBSEP)
		if (got[k] + 0 < want[k]) {
			printf "pgo-check: %s inlines %d call(s) to %s under cmd/noctool/default.pgo, want %d\n", part[1], got[k], part[2], want[k]
			bad = 1
		}
	}
	if (bad) {
		print "pgo-check: the profile is stale for this tree: run `make pgo` (docs/LEDGER.md row (c))"
		exit 1
	}
	print "pgo-check: every listed call site in arbitrate, Step and schedule is inlined"
}
