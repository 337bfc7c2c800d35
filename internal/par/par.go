// Package par is the experiment engine's parallel substrate: a bounded
// worker pool with ordered result collection and deterministic error
// propagation, plus splitmix64-based per-trial seed derivation and the
// lazily seeded per-trial RNG built on it.
//
// The contract every study in the root package relies on is that a
// fan-out over n independent trials produces bit-for-bit identical
// results for ANY worker count, including 1. Two rules make that hold:
//
//  1. results are collected positionally (trial i writes slot i), so
//     scheduling order never reorders output;
//  2. no trial reads a shared RNG — each draws from its own
//     TrialRand(studySeed, i), so no trial's draws depend on how many
//     trials ran before it on the same goroutine.
//
// Stdlib only.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalises a worker-count knob: values below 1 mean "one
// worker per available CPU" (runtime.GOMAXPROCS(0)).
func Workers(n int) int {
	if n >= 1 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Map runs fn(i) for every i in [0, n) on at most workers goroutines
// (workers < 1 meaning Workers(0)) and returns the results in index
// order. fn must be safe for concurrent invocation.
//
// Error propagation is deterministic: indices are dispatched in
// ascending order, and once a call fails no index beyond the smallest
// failing one is started; after in-flight calls drain, the error with
// the smallest index is returned. A sequential run and an 8-worker run
// therefore report the same error.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if ob := observer.Load(); ob != nil {
		fn = instrumented(ob, n, fn)
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	out := make([]T, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			v, err := fn(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	var (
		next     atomic.Int64
		mu       sync.Mutex
		firstErr error
		errIdx   = n
		wg       sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				mu.Lock()
				stop := firstErr != nil && i > errIdx
				mu.Unlock()
				if stop {
					return
				}
				v, err := fn(i)
				if err != nil {
					mu.Lock()
					if firstErr == nil || i < errIdx {
						firstErr, errIdx = err, i
					}
					mu.Unlock()
					continue
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// ForEach is Map for side-effect-only work: fn(i) for every i in
// [0, n), same worker bound and error semantics.
func ForEach(workers, n int, fn func(i int) error) error {
	_, err := Map(workers, n, func(i int) (struct{}, error) {
		return struct{}{}, fn(i)
	})
	return err
}

// ForEachChunk partitions [0, n) into contiguous chunks of at most
// chunk indices (chunk < 1 meaning 1) and runs fn(lo, hi) for every
// chunk, with ForEach's worker bound and error semantics. Sharded
// fan-outs use it to amortise per-task setup — a worker grabs one
// scratch buffer per chunk instead of one per index — while keeping the
// contract that results are independent of the worker count.
func ForEachChunk(workers, n, chunk int, fn func(lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	if chunk < 1 {
		chunk = 1
	}
	chunks := (n + chunk - 1) / chunk
	return ForEach(workers, chunks, func(i int) error {
		lo := i * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		return fn(lo, hi)
	})
}

// splitmix64 is the finalizer of Steele et al.'s SplitMix generator —
// a cheap, high-quality 64-bit mixer.
func splitmix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// TrialSeed derives the RNG seed for trial i of a study rooted at seed.
// Distinct trials of the same study get statistically independent
// streams, and the derivation depends only on (seed, i) — never on
// which worker runs the trial or in what order — which is what makes
// study results identical across worker counts. Nest calls to derive
// sub-streams: TrialSeed(TrialSeed(seed, i), k).
func TrialSeed(seed int64, trial int) int64 {
	z := uint64(seed) ^ 0x9e3779b97f4a7c15
	z = splitmix64(z + 0x9e3779b97f4a7c15*uint64(uint(trial)+1))
	return int64(splitmix64(z))
}
