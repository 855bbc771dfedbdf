package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pond/internal/stats"
)

// draws returns a tuple of draws from the item's RNG; any cross-item
// stream sharing or seed drift shows up immediately.
func draws(_ int, _ struct{}, rng *stats.Rand) ([3]float64, error) {
	return [3]float64{rng.Float64(), rng.Float64(), rng.NormFloat64()}, nil
}

func TestSeedForIsOrderIndependent(t *testing.T) {
	// Same (root, shard) must always map to the same seed, distinct
	// shards to distinct seeds.
	seen := map[int64]int{}
	for shard := 0; shard < 1000; shard++ {
		s := SeedFor(42, shard)
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision: shards %d and %d both map to %d", prev, shard, s)
		}
		seen[s] = shard
	}
	if SeedFor(42, 7) != SeedFor(42, 7) {
		t.Fatal("SeedFor not a pure function")
	}
	if SeedFor(42, 7) == SeedFor(43, 7) {
		t.Fatal("root seed ignored")
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	items := make([]struct{}, 64)
	ref, err := Map(context.Background(), items, Options{Workers: 1, Seed: 42}, draws)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8, 33} {
		got, err := Map(context.Background(), items, Options{Workers: workers, Seed: 42}, draws)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("results differ between workers=1 and workers=%d", workers)
		}
	}
	// A different root seed must change the streams.
	other, err := Map(context.Background(), items, Options{Workers: 4, Seed: 43}, draws)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(ref, other) {
		t.Fatal("root seed had no effect")
	}
}

func TestRunStealsUnevenWork(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		// Still runs; stealing just cannot be observed via concurrency.
		t.Log("single-proc box: exercising the stealing path without true parallelism")
	}
	// Items are dealt round-robin, so with 4 workers every 4th item
	// belongs to worker 0: make exactly those slow.
	const n = 32
	var ran atomic.Int64
	res, err := Map(context.Background(), make([]struct{}, n), Options{Workers: 4, Seed: 1},
		func(i int, _ struct{}, rng *stats.Rand) (*int64, error) {
			if i%4 == 0 {
				time.Sleep(5 * time.Millisecond)
			}
			ran.Add(1)
			v := rng.Int63()
			return &v, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != n {
		t.Fatalf("ran %d of %d items", ran.Load(), n)
	}
	for i, r := range res {
		if r == nil {
			t.Fatalf("item %d has no result", i)
		}
	}
}

func TestRunJoinsErrorsInJobOrder(t *testing.T) {
	items := []string{"ok-0", "bad-1", "ok-2", "bad-3"}
	res, err := Map(context.Background(), items, Options{Workers: 2, Seed: 1},
		func(_ int, name string, _ *stats.Rand) (string, error) {
			if strings.HasPrefix(name, "bad") {
				return "partial-" + name, errors.New(name + ": boom")
			}
			return name, nil
		})
	if err == nil {
		t.Fatal("errors swallowed")
	}
	msg := err.Error()
	if !strings.Contains(msg, "bad-1") || !strings.Contains(msg, "bad-3") {
		t.Fatalf("error missing item names: %v", err)
	}
	if strings.Index(msg, "bad-1") > strings.Index(msg, "bad-3") {
		t.Fatalf("errors not in item order: %v", err)
	}
	want := []string{"ok-0", "partial-bad-1", "ok-2", "partial-bad-3"}
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("results %v, want %v (failed items keep what fn returned)", res, want)
	}
}

func TestRunHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	_, err := Map(ctx, make([]struct{}, 16), Options{Workers: 4, Seed: 1},
		func(int, struct{}, *stats.Rand) (struct{}, error) {
			ran.Add(1)
			return struct{}{}, nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() == 16 {
		t.Fatal("cancelled run executed every item")
	}
}

func TestRunEmptyAndSingle(t *testing.T) {
	if res, err := Map(context.Background(), nil, Options{}, draws); err != nil || len(res) != 0 {
		t.Fatalf("empty run: %v %v", res, err)
	}
	res, err := Map(context.Background(), []struct{}{{}}, Options{Workers: 8, Seed: 5}, draws)
	if err != nil || len(res) != 1 || res[0] == ([3]float64{}) {
		t.Fatalf("single item run: %v %v", res, err)
	}
}

func TestMapTypedResultsInOrder(t *testing.T) {
	items := []int{10, 20, 30, 40}
	got, err := Map(context.Background(), items, Options{Workers: 3, Seed: 9},
		func(i int, item int, rng *stats.Rand) (string, error) {
			return fmt.Sprintf("%d:%d", i, item), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"0:10", "1:20", "2:30", "3:40"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}
