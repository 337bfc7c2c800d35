package par

import (
	"math"
	"math/rand"
	"testing"
)

// TestTrialRandMatchesMathRand pins the lazily seeded source to
// math/rand draw for draw: every method the repo calls, over edge-case
// and pseudo-random seeds, with short streams served from the lazy lags
// and long ones that cross into the replayed real source. Each seed is
// then re-Seeded and read as raw Uint64s past lazyDraws, so every copied
// constant and lag index is compared with all 64 bits.
func TestTrialRandMatchesMathRand(t *testing.T) {
	const m = int32max
	seeds := []int64{
		0, 1, -1, 2, m - 1, m, m + 1, -m, -m - 1, -m + 1, 2 * m, -2 * m,
		m * m, -m * m, 89482311, -89482311, math.MinInt64, math.MinInt64 + 1,
		math.MaxInt64, math.MaxInt64 - 1, math.MaxInt64 / m * m,
	}
	for i := 0; len(seeds) < 10000; i++ {
		s := int64(splitmix64(uint64(i)))
		if i%2 == 1 {
			s %= 1 << 32 // small seeds too, both signs
		}
		seeds = append(seeds, s)
	}
	for i, seed := range seeds {
		ops := 1 + i%(lazyDraws+16)
		if i%97 == 0 {
			ops = 1000
		}
		got, want := seededRand(seed), rand.New(rand.NewSource(seed))
		for k := 0; k < ops; k++ {
			if g, w := drawOp(got, i+k), drawOp(want, i+k); g != w {
				t.Fatalf("seed %d: op %d (kind %d) = %v, want %v", seed, k, (i+k)%opKinds, g, w)
			}
		}
		reseed := TrialSeed(seed, i)
		got.Seed(reseed)
		want.Seed(reseed)
		for k := 0; k < lazyDraws+8; k++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d reseeded to %d: Uint64 #%d = %#x, want %#x", seed, reseed, k, g, w)
			}
		}
	}

	// TrialRand is seededRand over TrialSeed.
	for trial := 0; trial < 100; trial++ {
		got, want := TrialRand(7, trial), rand.New(rand.NewSource(TrialSeed(7, trial)))
		for k := 0; k < 3*lazyDraws; k++ {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("TrialRand(7, %d) draw %d = %d, want %d", trial, k, g, w)
			}
		}
	}
}

const opKinds = 7

// drawOp applies the math/rand method selected by kind and returns what
// it produced, so two RNGs can be compared call for call.
func drawOp(r *rand.Rand, kind int) any {
	switch kind % opKinds {
	case 0:
		return r.Int63()
	case 1:
		return r.Uint64()
	case 2:
		return r.Intn(3)
	case 3:
		return r.Float64()
	case 4:
		return r.Int63n(1<<62 + 1) // rejects about half its draws
	case 5:
		return [5]int(r.Perm(5))
	default:
		var a [9]int
		for i := range a {
			a[i] = i
		}
		r.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
		return a
	}
}

var sinkFloat float64

// BenchmarkTrialRand is one power-law stub's worth of drawing: a fresh
// trial RNG, a provider count and two weighted picks.
func BenchmarkTrialRand(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := TrialRand(1, i)
		sinkFloat += float64(r.Intn(3)) + r.Float64() + r.Float64()
	}
}
