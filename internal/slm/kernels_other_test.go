//go:build !amd64

package slm

import "testing"

// checkExpTanh has nothing to check off amd64: there are no exp and
// tanh lanes, only math.Exp and math.Tanh.
func checkExpTanh(*testing.T, []float64) {}
