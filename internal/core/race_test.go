//go:build race

package core

// raceEnabled is true in a -race build, where sync.Pool drops items at
// random and allocation counts are not exact.
const raceEnabled = true
