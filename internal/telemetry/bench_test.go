package telemetry

import (
	"testing"

	"pond/internal/cluster"
	"pond/internal/pmu"
)

// BenchmarkTelemetryCapture measures the steady-state per-VM telemetry
// cycle the fleet event loop drives at every admission and departure:
// record two 1 Hz samples, read the mean, record the departure outcome,
// query the customer's history window, and forget the VM. After warmup
// the store recycles departed VMs' sample buffers and memoizes history
// windows, so the cycle settles near zero allocations.
func BenchmarkTelemetryCapture(b *testing.B) {
	s := NewStore()
	var v pmu.Vector
	for i := range v {
		v[i] = float64(i) / 200
	}
	// Warm the freelists and the customer's history the way a running
	// fleet does.
	for i := 0; i < 64; i++ {
		id := cluster.VMID(i)
		s.RecordSample(id, v)
		s.RecordOutcome(7, float64(i), 0.4)
		s.ForgetVM(id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := cluster.VMID(1000 + i%64)
		s.RecordSample(id, v)
		s.RecordSample(id, v)
		if _, ok := s.MeanCounters(id); !ok {
			b.Fatal("no samples recorded")
		}
		s.RecordOutcome(7, float64(100+i), 0.4)
		s.CustomerHistory(7, float64(100+i), 64)
		s.ForgetVM(id)
	}
}

// BenchmarkCustomerHistoryGrowing is the CLI-scale admission shape: one
// customer whose history window (7 days) is longer than the whole run,
// so every admission's window spans the customer's entire, growing
// history. Each op is one run of growingOutcomes departures, each
// followed by the next admission's history query.
func BenchmarkCustomerHistoryGrowing(b *testing.B) {
	const growingOutcomes = 4000
	const window = 7 * 24 * 3600
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewStore()
		for k := 0; k < growingOutcomes; k++ {
			end := float64(30 * k)
			s.RecordOutcome(7, end, float64((k*37)%101)/100)
			if h := s.CustomerHistory(7, end+1, window); h.Count != k+1 {
				b.Fatalf("history count %d after %d outcomes", h.Count, k+1)
			}
		}
	}
}
