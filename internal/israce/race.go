//go:build race

// Package israce reports whether the race detector is compiled in, for
// tests whose assertions it invalidates: under -race a sync.Pool drops a
// quarter of what is Put into it, so a pooled path that allocates nothing
// in a normal build allocates there.
package israce

// Enabled is true when the build has the race detector.
const Enabled = true
