package predict

import (
	"testing"

	"pond/internal/pmu"
	"pond/internal/stats"
	"pond/internal/workload"
)

// BenchmarkForestScore measures one insensitivity score on the request
// path: the default 60-tree forest routing a PMU counter vector to a
// leaf in every tree. Scoring reads the vector in place, so it should
// not allocate.
func BenchmarkForestScore(b *testing.B) {
	ds := BuildSensitivityDataset(1.82, 0.05, 3, 1)
	m := TrainForest(ds.X, ds.Insensitive, 1)
	r := stats.NewRand(2)
	catalogue := workload.Catalogue()
	vs := make([]pmu.Vector, 64)
	for i := range vs {
		vs[i] = pmu.Sample(catalogue[i%len(catalogue)], r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sum float64
	for i := 0; i < b.N; i++ {
		sum += m.Score(vs[i%len(vs)])
	}
	if sum < 0 {
		b.Fatal("negative score")
	}
}
