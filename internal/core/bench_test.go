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
