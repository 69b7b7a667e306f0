//go:build !race

// Package race tells tests whether the race detector is on: it makes
// sync.Pool drop items at random, which voids assertions about allocation
// counts and pool reuse.
package race

// Enabled reports whether the binary was built with -race.
const Enabled = false
