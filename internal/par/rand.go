package par

import "math/rand"

// TrialRand returns the RNG for one trial of a study rooted at seed. Its
// stream is exactly that of rand.New(rand.NewSource(TrialSeed(seed,
// trial))), but the source is seeded lazily: a fresh math/rand source
// fills a 607-word (4.9 KB) state with 1,841 Park–Miller steps, while a
// trial that draws a handful of values reads only a few words of it.
//
// The first 273 draws of a freshly seeded math/rand source read only
// seeded state: draw k (from 1) returns lag(334−k) + lag(607−k), where
// lag(i) = x[21+3i]<<40 ^ x[22+3i]<<20 ^ x[23+3i] ^ rngCooked[i] and
// x[n] = x0·48271ⁿ mod (2³¹−1) for the reduced seed x0. TrialRand serves
// the first 32 draws that way, six multiply-mods each against a power
// table. On the draw after them it seeds a real source, replays it to
// the same position and continues from there, so the stream stays exact
// for any number of draws. Go 1 promises that a seeded math/rand stream
// never changes; TestTrialRandMatchesMathRand checks the two against
// each other.
func TrialRand(seed int64, trial int) *rand.Rand {
	return seededRand(TrialSeed(seed, trial))
}

// seededRand is rand.New(rand.NewSource(seed)), lazily seeded.
func seededRand(seed int64) *rand.Rand {
	s := new(lazySource)
	s.Seed(seed)
	return rand.New(s)
}

const (
	int32max  = 1<<31 - 1
	seedMul   = 48271 // math/rand's seedrand multiplier
	lazyDraws = 32    // draws served from lazily computed lags
)

// lagBase holds, per summand of a draw, the state index the last lazy
// draw reads: draw k (from 0) sums lags lagBase[h]+lazyDraws-1-k for
// h = 0 (the feed, 333 downwards) and h = 1 (the tap, 606 downwards).
var lagBase = [2]int{302, 575}

// lagCooked is rngCooked[302:334] and rngCooked[575:607] from
// $GOROOT/src/math/rand/rng.go: the only entries the lazy draws read.
//
// Copyright 2009 The Go Authors. All rights reserved. Use of this
// source code is governed by a BSD-style license that can be found in
// the Go distribution's LICENSE file.
var lagCooked = [2][lazyDraws]int64{{
	8785882556301281247, -3074039370013608197, -637529855400303673, 6137678347805511274,
	-7152924852417805802, 5708223427705576541, -3223714144396531304, 4358391411789012426,
	325123008708389849, 6837621693887290924, 4843721905315627004, -3212720814705499393,
	-3825019837890901156, 4602025990114250980, 1044646352569048800, 9106614159853161675,
	-8394115921626182539, -4304087667751778808, 2681532557646850893, 3681559472488511871,
	-3915372517896561773, -2889241648411946534, -6564663803938238204, -8060058171802589521,
	581945337509520675, 3648778920718647903, -4799698790548231394, -7602572252857820065,
	220828013409515943, -1072987336855386047, 4287360518296753003, -4633371852008891965,
}, {
	2278447439451174845, 3625338785743880657, 6477479539006708521, 8976185375579272206,
	-3712000482142939688, 1326024180520890843, 7537449876596048829, 5464680203499696154,
	3189671183162196045, 6346751753565857109, -8982212049534145501, -6127578587196093755,
	-245039190118465649, -6320577374581628592, 7208698530190629697, 7276901792339343736,
	-7490986807540332668, 4133292154170828382, 2918308698224194548, -7703910638917631350,
	-3929437324238184044, -4300543082831323144, -6344160503358350167, 5896236396443472108,
	-758328221503023383, -1894351639983151068, -307900319840287220, -6278469401177312761,
	-2171292963361310674, 8382142935188824023, 9103922860780351547, 4152330101494654406,
}}

// lagPow[h][j] is seedMul^(21+3i) mod int32max for i = lagBase[h]+j: the
// factor taking the reduced seed to the first of lag i's three words.
var lagPow = func() (p [2][lazyDraws]uint64) {
	for h, base := range lagBase {
		for j := range p[h] {
			p[h][j] = powMod(seedMul, uint64(21+3*(base+j)))
		}
	}
	return p
}()

func powMod(b, e uint64) uint64 {
	r := uint64(1)
	for ; e > 0; e >>= 1 {
		if e&1 == 1 {
			r = r * b % int32max
		}
		b = b * b % int32max
	}
	return r
}

// lazySource is a math/rand Source64 producing exactly the stream of
// rand.NewSource(seed) without filling its state up front.
type lazySource struct {
	seed int64         // as passed to Seed, for the replay
	x0   uint64        // seed reduced into [1, int32max), as math/rand does
	n    int           // draws served from the lazy lags
	src  rand.Source64 // the real source, once n reaches lazyDraws
}

func (s *lazySource) Seed(seed int64) {
	x := seed % int32max
	if x < 0 {
		x += int32max
	}
	if x == 0 {
		x = 89482311
	}
	*s = lazySource{seed: seed, x0: uint64(x)}
}

func (s *lazySource) Uint64() uint64 {
	if s.n < lazyDraws {
		j := lazyDraws - 1 - s.n
		s.n++
		return uint64(s.lag(0, j) + s.lag(1, j))
	}
	if s.src == nil {
		s.src = rand.NewSource(s.seed).(rand.Source64)
		for range lazyDraws {
			s.src.Uint64()
		}
	}
	return s.src.Uint64()
}

func (s *lazySource) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

// lag is the seeded state word lagBase[h]+j.
func (s *lazySource) lag(h, j int) int64 {
	x1 := s.x0 * lagPow[h][j] % int32max
	x2 := x1 * seedMul % int32max
	x3 := x2 * seedMul % int32max
	return int64(x1<<40^x2<<20^x3) ^ lagCooked[h][j]
}
