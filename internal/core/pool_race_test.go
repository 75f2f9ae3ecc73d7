//go:build race

package core

// poolsKeepEntries reports whether a sync.Pool hands back what was put
// into it. The race detector drops pooled entries at random, so there
// an allocation bound must allow for storage allocated afresh.
const poolsKeepEntries = false
