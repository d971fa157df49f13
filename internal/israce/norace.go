//go:build !race

package israce

// Enabled is true when the build has the race detector.
const Enabled = false
