package core

import (
	"context"
	"testing"
)

// BenchmarkCalibrate times what `ragserver -seed-demo` pays on every
// boot: fresh models (cold signature memos), all 360 default triples,
// moments frozen at the end.
func BenchmarkCalibrate(b *testing.B) {
	ctx := context.Background()
	triples := defaultTriples(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d, err := NewProposed()
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := d.Calibrate(ctx, triples); err != nil {
			b.Fatal(err)
		}
	}
}

// calibrateAllocBudget is the most allocations one Calibrate of the
// default triples may make, fresh models included. Lower it when a
// change saves allocations; raising it needs a reason.
const calibrateAllocBudget = 24000

// TestCalibrateAllocBudget holds what BenchmarkCalibrate measures —
// fresh models, all 360 default triples — to calibrateAllocBudget
// allocations.
func TestCalibrateAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race, so counts are not exact")
	}
	if testing.Short() {
		t.Skip("calibrates on 360 responses")
	}
	ctx := context.Background()
	triples := defaultTriples(t)
	allocs := testing.AllocsPerRun(3, func() {
		d, err := NewProposed()
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Calibrate(ctx, triples); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per calibration", allocs)
	if allocs > calibrateAllocBudget {
		t.Errorf("%.0f allocations per calibration, budget %d", allocs, calibrateAllocBudget)
	}
}
