//go:build race

package serve

// raceEnabled is true in a -race build, where sync.Pool drops items at
// random and allocation counts stop being exact.
const raceEnabled = true
