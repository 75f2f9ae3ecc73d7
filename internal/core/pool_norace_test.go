//go:build !race

package core

// poolsKeepEntries reports whether a sync.Pool hands back what was put
// into it: without the race detector, a run after a warm-up run reuses
// the storage the warm-up released.
const poolsKeepEntries = true
