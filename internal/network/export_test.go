package network

// Test-only windows onto the verdict memo for the external test package
// (which can import internal/workload without an import cycle).

// SetVerdictMemo turns the blocked-round and inversion-scan skips on or
// off process-wide. Callers must not run in parallel with other tests.
func SetVerdictMemo(on bool) { noVerdictMemo = !on }

// VerdictSkips reports how many allocation rounds were answered from a
// port's blocked-verdict memo since the last Reset.
func (n *Network) VerdictSkips() uint64 { return n.verdictSkips }
