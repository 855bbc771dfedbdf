// Package engine is the parallel deterministic simulation runner behind
// the experiment pipelines. Fleet generation and every figure of the
// paper's evaluation decompose into independent shards (one cluster, one
// model fold, one sweep cell); the engine fans those shards out across a
// work-stealing worker pool and merges results in shard order, so the
// output of a run is byte-identical regardless of worker count or OS
// scheduling.
//
// Determinism contract: each item receives its own RNG whose seed is
// derived as fnv1a(rootSeed, itemIndex) (see stats.ShardSeed). Seeding
// depends only on the item's position in the input slice — never on which
// worker runs it or when — and results are returned indexed by that same
// position. An item must not share mutable state with other items;
// anything it returns is merged by the caller in deterministic input
// order.
package engine

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"pond/internal/stats"
)

// Options configures a run.
type Options struct {
	// Workers is the pool size; <= 0 means GOMAXPROCS.
	Workers int
	// Seed is the root seed every item's stream derives from.
	Seed int64
}

// SeedFor returns the seed of shard i under root: fnv1a(root, i).
func SeedFor(root int64, shard int) int64 { return stats.ShardSeed(root, shard) }

// Map fans fn out over items across the worker pool and returns the
// per-item results in input order: one item per cluster (or fold, or
// sweep cell), one deterministic RNG per item. Errors are joined in item
// order; a failed item keeps whatever fn returned alongside its error.
// Map stops launching new items once ctx is cancelled and reports
// ctx.Err() joined with any item errors collected so far.
func Map[T, R any](ctx context.Context, items []T, opts Options, fn func(i int, item T, rng *stats.Rand) (R, error)) ([]R, error) {
	n := len(items)
	out := make([]R, n)
	if n == 0 {
		return out, ctx.Err()
	}
	errs := make([]error, n)
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)

	if workers <= 1 {
		// Serial fast path: same seeds, same merge order, no goroutines.
		for i := range items {
			if err := ctx.Err(); err != nil {
				return out, err
			}
			out[i], errs[i] = fn(i, items[i], stats.NewRand(SeedFor(opts.Seed, i)))
		}
		return out, errors.Join(errs...)
	}

	// Work-stealing pool: items are sharded round-robin across per-worker
	// deques. A worker drains its own deque from the back (LIFO: cache-warm
	// continuation of its shard) and steals from other deques at the front
	// (FIFO: the victim keeps its most recently pushed work). The item set
	// is static, so a pass over every deque finding nothing means the
	// worker is done.
	deques := make([]deque, workers)
	for i := range items {
		w := i % workers
		deques[w].items = append(deques[w].items, i)
	}
	var cancelled atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					cancelled.Store(true)
					return
				}
				idx, ok := deques[self].popBack()
				if !ok {
					// Own deque empty: scan the others for work.
					for off := 1; off < workers && !ok; off++ {
						idx, ok = deques[(self+off)%workers].popFront()
					}
					if !ok {
						return
					}
				}
				out[idx], errs[idx] = fn(idx, items[idx], stats.NewRand(SeedFor(opts.Seed, idx)))
			}
		}(w)
	}
	wg.Wait()
	joined := errors.Join(errs...)
	if cancelled.Load() {
		return out, errors.Join(ctx.Err(), joined)
	}
	return out, joined
}

// deque is a mutex-guarded double-ended work queue of item indexes.
type deque struct {
	mu    sync.Mutex
	items []int
}

func (d *deque) popBack() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.items) == 0 {
		return 0, false
	}
	idx := d.items[len(d.items)-1]
	d.items = d.items[:len(d.items)-1]
	return idx, true
}

func (d *deque) popFront() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.items) == 0 {
		return 0, false
	}
	idx := d.items[0]
	d.items = d.items[1:]
	return idx, true
}
